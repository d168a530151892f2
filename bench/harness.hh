/**
 * @file
 * Shared helpers for the per-figure/table harness binaries.
 *
 * Every harness runs standalone with sensible defaults; the simulated
 * window can be scaled with environment variables:
 *
 *   AOS_SIM_OPS       measured micro-ops per timing run (default 1M)
 *   AOS_REPLAY_SCALE  divisor for full allocation replays (default 1)
 *
 * Campaign-based harnesses additionally honour:
 *
 *   AOS_CAMPAIGN_JOBS      worker threads (default: all hardware threads)
 *   AOS_CAMPAIGN_JSON      results path; "0"/"off" disables emission
 *                          (default: BENCH_<name>.json in the cwd)
 *   AOS_CAMPAIGN_JSON_CANONICAL
 *                          also write the canonical (timing-stripped)
 *                          document to this path; unset disables
 *   AOS_CAMPAIGN_PROGRESS  set to 0 to silence progress/ETA lines
 *   AOS_CAMPAIGN_RESUME    checkpoint directory: completed jobs are
 *                          durably logged there, and a rerun restores
 *                          them instead of re-executing (DESIGN.md §10)
 *   AOS_CHAOS              "<seed>,<rate‰>,<domains>[,<cap>]" installs
 *                          the deterministic environment-fault engine
 *                          (common/chaosio.hh, DESIGN.md §13);
 *                          domains are '+'-joined from disk/alloc/all
 *
 * Numeric knobs are parsed strictly (common/env.hh): a typo is a fatal
 * diagnostic naming the variable, never a silently-ignored override.
 *
 * Campaign harnesses install SIGINT/SIGTERM handlers; on shutdown the
 * campaign flushes its checkpoint and the harness exits with 130 and a
 * resume hint (see exitIfInterrupted()).
 */

#ifndef AOS_BENCH_HARNESS_HH
#define AOS_BENCH_HARNESS_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "common/cancel.hh"
#include "common/chaosio.hh"
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

/** Run one workload under one configuration. */
inline core::RunResult
runConfig(const workloads::WorkloadProfile &profile,
          baselines::Mechanism mech, u64 ops,
          const baselines::SystemOptions &base = {})
{
    baselines::SystemOptions options = base;
    options.mech = mech;
    options.measureOps = ops;
    core::AosSystem system(profile, options);
    return system.run();
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
    options.checkpointDir = envString("AOS_CAMPAIGN_RESUME");
    // AOS_CHAOS installs the process-global environment-fault engine.
    chaos::installChaosFromEnv();
    // Graceful shutdown: SIGINT/SIGTERM trips the process token; the
    // campaign preempts running jobs at their next cancellation point,
    // flushes the checkpoint, and returns with interrupted set.
    installShutdownHandlers();
    options.cancel = &shutdownToken();
    return options;
}

/**
 * Write campaign results to AOS_CAMPAIGN_JSON (default
 * BENCH_<bench>.json; "0"/"off" disables) and say where they went.
 * When AOS_CAMPAIGN_RESUME checkpointing is active, also report the
 * resumed-vs-executed split. With AOS_CAMPAIGN_JSON_CANONICAL set, the
 * canonical (timing-stripped) document is written there too — that is
 * the byte-comparable artifact for kill-and-resume parity checks.
 * Returns false when a requested emission could not be written, so
 * harnesses can propagate the failure to their exit code.
 */
inline bool
emitCampaignJson(const campaign::CampaignResult &result,
                 const std::string &bench)
{
    if (!result.checkpointDir.empty()) {
        std::printf("checkpoint: %s (resumed %u, executed %u, "
                    "discarded %llu corrupt record region(s))\n",
                    result.checkpointDir.c_str(), result.resumedJobs,
                    result.executedJobs,
                    static_cast<unsigned long long>(
                        result.discardedRecords));
    }
    bool ok = true;
    const std::string canonical =
        envString("AOS_CAMPAIGN_JSON_CANONICAL");
    if (!canonical.empty()) {
        if (!result.writeJsonFile(canonical, false)) {
            std::fprintf(stderr,
                         "failed to write canonical campaign JSON to "
                         "%s\n",
                         canonical.c_str());
            ok = false;
        }
    }
    std::string path = "BENCH_" + bench + ".json";
    if (const char *env = std::getenv("AOS_CAMPAIGN_JSON")) {
        const std::string v(env);
        if (v.empty() || v == "0" || v == "off")
            return ok;
        path = v;
    }
    if (result.writeJsonFile(path)) {
        std::printf("\ncampaign results: %s\n", path.c_str());
        return ok;
    }
    std::fprintf(stderr, "failed to write campaign JSON to %s\n",
                 path.c_str());
    return false;
}

/**
 * Shutdown epilogue for campaign harnesses: when the campaign was
 * interrupted (SIGINT/SIGTERM), print a resume hint and exit 130 —
 * the conventional "killed by signal" code — instead of letting the
 * harness grade partial results as failures.
 */
inline void
exitIfInterrupted(const campaign::CampaignResult &result)
{
    if (!result.interrupted)
        return;
    std::fflush(stdout);
    if (!result.checkpointDir.empty()) {
        std::fprintf(stderr,
                     "\ninterrupted: %u/%zu jobs checkpointed; rerun "
                     "with AOS_CAMPAIGN_RESUME=%s to resume\n",
                     result.resumedJobs + result.executedJobs,
                     result.jobs.size(), result.checkpointDir.c_str());
    } else {
        std::fprintf(stderr,
                     "\ninterrupted with no checkpoint; set "
                     "AOS_CAMPAIGN_RESUME=<dir> to make runs "
                     "resumable\n");
    }
    std::exit(130);
}

} // namespace aos::bench

#endif // AOS_BENCH_HARNESS_HH
