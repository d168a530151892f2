/**
 * @file
 * Fig. 14 — Normalized execution time of Watchdog, PA, AOS and PA+AOS
 * over the Baseline for the 16 SPEC CPU 2006 workload profiles.
 *
 * Paper reference points: Watchdog 1.194 geomean, PA ~1.005 (with
 * ~10% outliers on call-heavy hmmer/omnetpp), AOS 1.084, PA+AOS ~+1.5%
 * over AOS; milc/namd/gobmk/astar marginally below 1.0 under AOS.
 *
 * The 80 (profile × mechanism) runs execute as one campaign on the
 * thread pool; per-config results are bit-identical whatever
 * AOS_CAMPAIGN_JOBS is set to (see DESIGN.md §7).
 */

#include "bench/harness.hh"

#include <cmath>

#include "common/stats.hh"

using namespace aos;
using namespace aos::bench;
using baselines::Mechanism;

namespace {

const Mechanism kMechs[] = {Mechanism::kBaseline, Mechanism::kWatchdog,
                            Mechanism::kPa, Mechanism::kAos,
                            Mechanism::kPaAos};
constexpr unsigned kNumMechs = 5; // Baseline + the four evaluated.

} // namespace

int
main()
{
    setQuiet(true);
    const u64 ops = simOps();

    std::printf("Fig. 14: normalized execution time (lower is better)\n");
    std::printf("measured window: %llu source micro-ops per run "
                "(AOS_SIM_OPS to change)\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("Table IV machine: 2GHz 8-wide OoO, 192 ROB, 48 MCQ, "
                "L-TAGE, 64KB L1-D, 32KB L1-B, 8MB L2, 16-bit PAC, "
                "1-way 4MB initial HBT\n\n");

    campaign::Campaign sweep(campaignOptions("fig14_exec_time"));
    const auto &profiles = workloads::specProfiles();
    for (const auto &profile : profiles)
        for (const Mechanism mech : kMechs)
            sweep.addConfig(profile, mech, ops);
    campaign::CampaignResult result = sweep.run();
    exitIfInterrupted(result);
    if (!result.allOk()) {
        std::fprintf(stderr, "fig14: %u job(s) failed\n",
                     result.count(campaign::JobStatus::kFailed));
        return 1;
    }

    std::printf("%-12s %10s %10s %10s %10s\n", "workload", "Watchdog",
                "PA", "AOS", "PA+AOS");
    rule(56);

    GeoAccum geo[kNumMechs - 1];
    bool sane = true;
    for (size_t p = 0; p < profiles.size(); ++p) {
        const auto row = [&](unsigned m) -> campaign::JobResult & {
            return result.jobs[p * kNumMechs + m];
        };
        const double base_cycles = row(0).stats.value("cycles");
        std::printf("%-12s", profiles[p].name.c_str());
        for (unsigned m = 1; m < kNumMechs; ++m) {
            const double norm = row(m).stats.value("cycles") / base_cycles;
            // A degenerate run (zero/NaN cycles) must fail the harness,
            // not ship a silently-wrong figure.
            if (!std::isfinite(norm) || norm <= 0.0)
                sane = false;
            // Derived stat: reducers + the JSON trajectory read it.
            row(m).stats.scalar("norm_exec_time") = norm;
            geo[m - 1].add(norm);
            std::printf(" %10.3f", norm);
        }
        std::printf("\n");
    }
    rule(56);
    std::printf("%-12s", "geomean");
    for (unsigned m = 1; m < kNumMechs; ++m)
        std::printf(" %10.3f", geo[m - 1].geomean());
    std::printf("\n%-12s %10.3f %10.3f %10.3f %10s\n", "paper", 1.194,
                1.005, 1.084, "AOS+1.5%");

    std::vector<campaign::Reducer> reducers;
    for (unsigned m = 1; m < kNumMechs; ++m) {
        const Mechanism mech = kMechs[m];
        reducers.push_back(
            {std::string("geomean_norm_") + baselines::mechanismName(mech),
             campaign::ReduceOp::kGeomean, "norm_exec_time",
             [mech](const campaign::JobResult &job) {
                 return job.mech == mech;
             }});
    }
    campaign::computeReducers(result, reducers);
    const bool json_ok = emitCampaignJson(result, "fig14_exec_time");
    if (!sane)
        std::fprintf(stderr,
                     "fig14: non-finite or non-positive normalized "
                     "execution time\n");
    return (sane && json_ok) ? 0 : 1;
}
