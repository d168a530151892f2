/**
 * @file
 * CI smoke for the campaign engine (scripts/check.sh stage): a tiny
 * 4-job campaign — the two cheapest SPEC profiles (bzip2, mcf) under
 * Baseline and AOS — that always emits JSON. check.sh runs it twice
 * (AOS_CAMPAIGN_JOBS=1 and =4) and diffs the canonical documents to
 * prove the serial/parallel determinism contract end to end.
 *
 * Keeps the default window small (AOS_SIM_OPS honoured) so the stage
 * adds seconds, not minutes.
 */

#include "bench/harness.hh"

using namespace aos;
using namespace aos::bench;
using baselines::Mechanism;

int
main()
{
    setQuiet(true);
    const u64 ops = envU64("AOS_SIM_OPS", 20'000);

    campaign::Campaign sweep(campaignOptions("campaign_smoke"));
    for (const char *name : {"bzip2", "mcf"}) {
        const auto &profile = workloads::profileByName(name);
        sweep.addConfig(profile, Mechanism::kBaseline, ops);
        sweep.addConfig(profile, Mechanism::kAos, ops);
    }
    sweep.addReducer({"total_cycles", campaign::ReduceOp::kSum, "cycles",
                      nullptr});
    sweep.addReducer({"max_ipc", campaign::ReduceOp::kMax, "ipc",
                      nullptr});

    campaign::CampaignResult result = sweep.run();
    exitIfInterrupted(result);

    std::printf("campaign smoke: %zu jobs, %u ok, %u failed\n",
                result.jobs.size(), result.count(campaign::JobStatus::kOk),
                result.count(campaign::JobStatus::kFailed));
    for (const auto &job : result.jobs) {
        std::printf("  %-16s %-8s cycles=%.0f\n", job.name.c_str(),
                    campaign::jobStatusName(job.status),
                    job.stats.value("cycles"));
    }
    emitCampaignJson(result, "campaign_smoke");
    return result.allOk() ? 0 : 1;
}
