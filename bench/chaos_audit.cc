/**
 * @file
 * Graceful-degradation audit campaign (DESIGN.md §13): 520 seeded
 * chaos scenarios, 420 of disk chaos against the checkpoint writer and
 * 100 of alloc chaos against a nested campaign, each classified
 * tolerated / degraded_retried / clean_abort / contract_violation. The gate is absolute: zero
 * contract violations, every scenario job kOk, and the scenario count
 * at or above 500.
 *
 * The scenario families run under thread-local ChaosScope engines, so
 * this campaign parallelizes (AOS_CAMPAIGN_JOBS) without schedules
 * bleeding between concurrent scenarios, and its canonical JSON is
 * byte-identical at any worker count — the audit audits itself.
 *
 * AOS_CHAOS_AUDIT_SEED rotates the whole scenario universe (default
 * fixed for CI reproducibility); a failing scenario's own seed is a
 * pure function of the base seed and its job name, so any verdict
 * replays exactly.
 */

#include "bench/harness.hh"

#include "campaign/chaos_audit.hh"
#include "common/fsio.hh"

using namespace aos;
using namespace aos::bench;
using namespace aos::campaign;

namespace {

struct Family
{
    const char *name;
    unsigned count;
    chaos_audit::ScenarioResult (*fn)(u64, const CancelToken &);
};

constexpr Family kFamilies[] = {
    {"disk_checkpoint", 420, chaos_audit::auditCheckpointDisk},
    {"alloc_campaign", 100, chaos_audit::auditCampaignAlloc},
};

} // namespace

int
main()
{
    setQuiet(true);
    const u64 baseSeed = envU64("AOS_CHAOS_AUDIT_SEED", 0xA05'C4A05ULL);

    campaign::CampaignOptions options = campaignOptions("chaos_audit");
    if (options.timeoutSec <= 0)
        options.timeoutSec = 120; // A hung scenario is a finding.
    campaign::Campaign sweep(options);

    for (const Family &family : kFamilies) {
        for (unsigned i = 0; i < family.count; ++i) {
            Job job;
            job.name = csprintf("%s/%03u", family.name, i);
            // Scenario seed: pure function of base seed + job name, so
            // one failing scenario replays without the other 519.
            job.seed = fsio::fnv1a64(job.name.data(), job.name.size(),
                                     baseSeed ^ 0xcbf29ce484222325ULL);
            job.profile.name = family.name;
            job.cancellableBody =
                [fn = family.fn, seed = job.seed,
                 name = job.name](const CancelToken &cancel) {
                    const chaos_audit::ScenarioResult sr =
                        fn(seed, cancel);
                    if (sr.outcome ==
                        chaos_audit::Outcome::kContractViolation) {
                        // Raw stderr: must surface even under
                        // setQuiet(), a violation IS the finding.
                        std::fprintf(
                            stderr,
                            "chaos_audit VIOLATION %s (seed %llu): "
                            "%s\n",
                            name.c_str(),
                            static_cast<unsigned long long>(seed),
                            sr.detail.c_str());
                    }
                    core::RunResult run;
                    run.workload = "chaos";
                    run.extra.scalar("chaos_ops") =
                        static_cast<double>(sr.chaosOps);
                    run.extra.scalar("chaos_injected") =
                        static_cast<double>(sr.injected);
                    using chaos_audit::Outcome;
                    run.extra.scalar("chaos_tolerated") =
                        sr.outcome == Outcome::kTolerated ? 1 : 0;
                    run.extra.scalar("chaos_degraded_retried") =
                        sr.outcome == Outcome::kDegradedRetried ? 1 : 0;
                    run.extra.scalar("chaos_clean_abort") =
                        sr.outcome == Outcome::kCleanAbort ? 1 : 0;
                    run.extra.scalar("chaos_contract_violation") =
                        sr.outcome == Outcome::kContractViolation ? 1
                                                                  : 0;
                    return run;
                };
            sweep.add(std::move(job));
        }
    }
    for (const char *stat :
         {"chaos_tolerated", "chaos_degraded_retried", "chaos_clean_abort",
          "chaos_contract_violation", "chaos_injected", "chaos_ops"}) {
        sweep.addReducer({stat, campaign::ReduceOp::kSum, stat, nullptr});
    }

    const size_t total = sweep.size();
    campaign::CampaignResult result = sweep.run();
    exitIfInterrupted(result);

    double tallies[4] = {0, 0, 0, 0};
    double injected = 0;
    double chaosOps = 0;
    for (const campaign::ReducerOutput &r : result.reducers) {
        if (r.name == "chaos_tolerated")
            tallies[0] = r.value;
        else if (r.name == "chaos_degraded_retried")
            tallies[1] = r.value;
        else if (r.name == "chaos_clean_abort")
            tallies[2] = r.value;
        else if (r.name == "chaos_contract_violation")
            tallies[3] = r.value;
        else if (r.name == "chaos_injected")
            injected = r.value;
        else if (r.name == "chaos_ops")
            chaosOps = r.value;
    }
    std::printf("chaos audit: %zu scenarios (seed %llu): "
                "%.0f tolerated, %.0f degraded+retried, "
                "%.0f clean aborts, %.0f contract violations "
                "(%.0f faults injected over %.0f instrumented ops)\n",
                total, static_cast<unsigned long long>(baseSeed),
                tallies[0], tallies[1], tallies[2], tallies[3],
                injected, chaosOps);
    emitCampaignJson(result, "chaos_audit");

    bool pass = true;
    if (!result.allOk()) {
        std::fprintf(stderr,
                     "chaos audit: %u scenario job(s) did not finish "
                     "ok\n",
                     static_cast<unsigned>(total) -
                         result.count(campaign::JobStatus::kOk));
        pass = false;
    }
    if (tallies[3] != 0) {
        std::fprintf(stderr,
                     "chaos audit: %.0f contract violation(s) — a "
                     "subsystem mishandled an injected fault\n",
                     tallies[3]);
        pass = false;
    }
    if (total < 500) {
        std::fprintf(stderr,
                     "chaos audit: only %zu scenarios (gate needs "
                     ">= 500)\n",
                     total);
        pass = false;
    }
    return pass ? 0 : 1;
}
