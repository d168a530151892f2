/**
 * @file
 * Shared helpers for the table/figure harness binaries. The paper's
 * evaluation grid (Figs. 14–18 and the §IX-A.1 resize counts) is one
 * binary, bench/paper; the other tables and ablations keep one binary
 * each. Every timing sweep runs as a campaign::Campaign.
 *
 * Every harness runs standalone with sensible defaults; the simulated
 * window can be scaled with environment variables:
 *
 *   AOS_SIM_OPS       measured micro-ops per timing run (default 1M)
 *   AOS_REPLAY_SCALE  divisor for full allocation replays (default 1)
 *
 * The campaign harnesses additionally honour (JSON only where the
 * harness emits it):
 *
 *   AOS_CAMPAIGN_JOBS      worker threads (default: all hardware threads)
 *   AOS_CAMPAIGN_JSON      results path; "0"/"off" disables emission
 *                          (default: BENCH_<name>.json in the cwd)
 *   AOS_CAMPAIGN_PROGRESS  set to 0 to silence progress/ETA lines
 *
 * Numeric knobs are parsed strictly (common/env.hh): a typo is a fatal
 * diagnostic naming the variable, never a silently-ignored override.
 *
 * Campaign harnesses install SIGINT/SIGTERM handlers; on shutdown the
 * campaign preempts its running jobs and the harness exits with 130
 * (see exitIfInterrupted()).
 */

#ifndef AOS_BENCH_HARNESS_HH
#define AOS_BENCH_HARNESS_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "common/cancel.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/aos_system.hh"
#include "workloads/workload_profile.hh"

namespace aos::bench {

using aos::envU64; // Strict parser (common/env.hh); fatal on garbage.

inline u64
simOps()
{
    return envU64("AOS_SIM_OPS", 1'000'000);
}

/** Print a separator line of width @p width. */
inline void
rule(unsigned width = 100)
{
    for (unsigned i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

struct GeoAccum
{
    std::vector<double> values;

    void add(double v) { values.push_back(v); }
    double geomean() const { return aos::geomean(values); }
};

/** Campaign options honouring the AOS_CAMPAIGN_* environment knobs. */
inline campaign::CampaignOptions
campaignOptions(const std::string &name)
{
    campaign::CampaignOptions options;
    options.name = name;
    options.workers = campaign::workersFromEnv(0);
    options.progress = envFlag("AOS_CAMPAIGN_PROGRESS", true);
    // Graceful shutdown: SIGINT/SIGTERM trips the process token; the
    // campaign preempts running jobs at their next cancellation point
    // and returns with interrupted set.
    installShutdownHandlers();
    options.cancel = &shutdownToken();
    return options;
}

/**
 * Write campaign results to AOS_CAMPAIGN_JSON (default
 * BENCH_<bench>.json; "0"/"off" disables) and say where they went.
 * Returns false when the document could not be written, so harnesses
 * can propagate the failure to their exit code.
 */
inline bool
emitCampaignJson(const campaign::CampaignResult &result,
                 const std::string &bench)
{
    std::string path = "BENCH_" + bench + ".json";
    if (const char *env = std::getenv("AOS_CAMPAIGN_JSON")) {
        const std::string v(env);
        if (v.empty() || v == "0" || v == "off")
            return true;
        path = v;
    }
    if (result.writeJsonFile(path)) {
        std::printf("\ncampaign results: %s\n", path.c_str());
        return true;
    }
    std::fprintf(stderr, "failed to write campaign JSON to %s\n",
                 path.c_str());
    return false;
}

/**
 * Shutdown epilogue for campaign harnesses: when the campaign was
 * interrupted (SIGINT/SIGTERM), say how far it got and exit 130 — the
 * conventional "killed by signal" code — instead of letting the
 * harness grade partial results as failures.
 */
inline void
exitIfInterrupted(const campaign::CampaignResult &result)
{
    if (!result.interrupted)
        return;
    std::fflush(stdout);
    std::fprintf(stderr, "\ninterrupted: %u/%zu jobs completed\n",
                 result.count(campaign::JobStatus::kOk) +
                     result.count(campaign::JobStatus::kFailed),
                 result.jobs.size());
    std::exit(130);
}

} // namespace aos::bench

#endif // AOS_BENCH_HARNESS_HH
