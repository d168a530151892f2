/**
 * @file
 * Bounds-elision ablation (DESIGN.md §11): PA+AOS with and without
 * AosBoundsElidePass across the SPEC profiles.
 *
 * The dataflow engine proves some chunks non-escaping with every
 * access in bounds; the pass then drops their whole instrumentation
 * quadruple (pacma/bndstr/bndclr/autm). This harness measures the
 * coverage and the timing effect as one campaign, then tries every
 * plan in court: per profile, the full and elided streams are replayed
 * through the ObligationChecker (ground-truth parity, obligation
 * replay, aligned pointer-fault replay) and any lost detection fails
 * the run.
 *
 * Exit status is the gate scripts/check.sh relies on: non-zero when a
 * checker rejects a plan, a verifier contract fires, or coverage drops
 * below 10% elided bndstr on at least two profiles.
 *
 * Build & run:  ./build/bench/bounds_elision
 */

#include "bench/harness.hh"

#include <algorithm>

#include "analysis/dataflow/engine.hh"
#include "compiler/aos_bounds_elide_pass.hh"
#include "compiler/aos_passes.hh"
#include "compiler/pa_pass.hh"
#include "pa/pa_context.hh"
#include "staticcheck/obligation_checker.hh"
#include "workloads/synthetic_workload.hh"

using namespace aos;
using namespace aos::bench;
using baselines::Mechanism;
using baselines::SystemOptions;

namespace {

/** Profiles that must clear the 10% bndstr-elision bar. */
constexpr double kCoverageFloor = 0.10;
constexpr unsigned kCoverageProfiles = 2;

/**
 * Replay one profile's plan through the ObligationChecker: regenerate
 * the exact source stream AosSystem analysed, plan, lower with and
 * without the pass, and let the checker try the proofs.
 */
staticcheck::ObligationReport
tryPlan(const workloads::WorkloadProfile &profile, u64 ops)
{
    pa::PaContext pa(pa::PointerLayout(16, 46));
    const pa::PointerLayout layout = pa.layout();

    workloads::SyntheticWorkload analysis_stream(profile, ops);
    analysis::dataflow::DataflowEngine engine(layout);
    engine.run(analysis_stream);
    const auto plan =
        analysis::dataflow::planBoundsElision(engine);

    workloads::SyntheticWorkload source(profile, ops);
    compiler::AosOptPass opt(&source);
    compiler::AosBackendPass backend(&opt, &pa);
    compiler::PaPass pa_pass(&backend, compiler::PaMode::kPaAos);
    std::vector<ir::MicroOp> full;
    ir::MicroOp next;
    while (pa_pass.next(next))
        full.push_back(next);

    ir::VectorStream full_stream(full);
    compiler::AosBoundsElidePass belide(&full_stream, layout, &plan);
    std::vector<ir::MicroOp> elided;
    while (belide.next(next))
        elided.push_back(next);

    staticcheck::ObligationChecker checker;
    return checker.check(full, elided, plan);
}

} // namespace

int
main()
{
    setQuiet(true);
    const u64 ops = simOps();

    std::printf("Bounds elision: PA+AOS vs PA+AOS with dataflow bounds "
                "elision, %llu ops/run\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("%-12s %9s %9s %7s %8s %8s %10s %10s %8s %7s\n",
                "workload", "bndstr", "bnds-el", "cover", "ipc",
                "ipc-el", "mcq-stall", "mcq-st-el", "norm", "verify");
    rule(98);

    SystemOptions with_belide;
    with_belide.aosBoundsElision = true;
    // Online lint with the SC15-SC18 elided-region contracts: any
    // residual instrumentation or out-of-plan access in the elided
    // stream is a diagnostic, and diagnostics fail this harness.
    with_belide.verifyStream = true;

    campaign::Campaign sweep(campaignOptions("bounds_elision"));
    const auto &profiles = workloads::specProfiles();
    for (const auto &profile : profiles) {
        // Two jobs per profile: [2p] = PA+AOS base, [2p+1] = elided.
        campaign::Job base;
        base.name = profile.name + "/pa_aos";
        base.profile = profile;
        base.mech = Mechanism::kPaAos;
        base.ops = ops;
        sweep.add(std::move(base));

        campaign::Job elided;
        elided.name = profile.name + "/pa_aos_belide";
        elided.profile = profile;
        elided.mech = Mechanism::kPaAos;
        elided.options = with_belide;
        elided.ops = ops;
        sweep.add(std::move(elided));
    }
    campaign::CampaignResult result = sweep.run();
    exitIfInterrupted(result);
    if (!result.allOk()) {
        std::fprintf(stderr, "bounds_elision: %u job(s) failed\n",
                     result.count(campaign::JobStatus::kFailed));
        return 1;
    }

    GeoAccum norm_geo;
    unsigned covered = 0;
    u64 verify_diags = 0;
    for (size_t p = 0; p < profiles.size(); ++p) {
        const StatSet &base = result.jobs[2 * p].stats;
        campaign::JobResult &elided_job = result.jobs[2 * p + 1];
        const StatSet &elided = elided_job.stats;
        const double cover = elided.has("belide_bndstr_rate")
                                 ? elided.value("belide_bndstr_rate")
                                 : 0.0;
        const double verify = elided.has("verify_total")
                                  ? elided.value("verify_total")
                                  : 0.0;
        const double norm =
            elided.value("cycles") / base.value("cycles");
        elided_job.stats.scalar("norm_exec_time") = norm;
        if (cover >= kCoverageFloor)
            ++covered;
        verify_diags += static_cast<u64>(verify);
        norm_geo.add(norm);
        std::printf("%-12s %9.0f %9.0f %6.1f%% %8.3f %8.3f %10.0f "
                    "%10.0f %8.3f %7.0f\n",
                    profiles[p].name.c_str(),
                    elided.value("belide_bndstr_seen"),
                    elided.value("belide_bndstr_elided"), 100.0 * cover,
                    base.value("ipc"), elided.value("ipc"),
                    base.value("mcq_full_stalls"),
                    elided.value("mcq_full_stalls"), norm, verify);
        std::fflush(stdout);
    }
    rule(98);
    std::printf("%-12s geomean exec time (elided/base): %.3f; "
                "%u/%zu profiles above %.0f%% coverage\n\n", "",
                norm_geo.geomean(), covered, profiles.size(),
                100.0 * kCoverageFloor);

    const auto elided_only = [](const campaign::JobResult &job) {
        return job.stats.has("norm_exec_time");
    };
    campaign::computeReducers(
        result,
        {{"geomean_norm_belide", campaign::ReduceOp::kGeomean,
          "norm_exec_time", elided_only},
         {"mean_bndstr_coverage", campaign::ReduceOp::kMean,
          "belide_bndstr_rate", elided_only}});
    const bool json_ok = emitCampaignJson(result, "bounds_elision");

    // --- Obligation court: every plan tried against ground truth ---
    // Functional, not timed; capped so the serial replay stays a smoke
    // even when the campaign above runs with a large AOS_SIM_OPS.
    const u64 replay_ops = std::min<u64>(ops, 40'000);
    std::printf("Obligation replay (%llu ops/profile, pointer-fault "
                "replay):\n",
                static_cast<unsigned long long>(replay_ops));
    std::printf("  %-12s %6s %5s %9s %9s %9s %9s\n", "workload", "oblig",
                "viol", "inj-full", "inj-el", "det-full", "det-el");

    bool plans_ok = true;
    for (const auto &profile : profiles) {
        const auto report = tryPlan(profile, replay_ops);
        plans_ok &= report.ok;
        std::printf("  %-12s %6llu %5llu %9llu %9llu %9llu %9llu   %s\n",
                    profile.name.c_str(),
                    static_cast<unsigned long long>(
                        report.obligationsChecked),
                    static_cast<unsigned long long>(
                        report.obligationsViolated),
                    static_cast<unsigned long long>(
                        report.fullFaultStats.totalInjected()),
                    static_cast<unsigned long long>(
                        report.elidedFaultStats.totalInjected()),
                    static_cast<unsigned long long>(
                        report.fullFaultStats.totalDetected()),
                    static_cast<unsigned long long>(
                        report.elidedFaultStats.totalDetected()),
                    report.ok ? "OK" : "FAIL");
        if (!report.ok) {
            for (const auto &failure : report.failures)
                std::printf("    %s\n", failure.c_str());
        }
        std::fflush(stdout);
    }

    bool ok = json_ok && plans_ok;
    if (covered < kCoverageProfiles) {
        std::fprintf(stderr,
                     "bounds_elision: only %u profile(s) above %.0f%% "
                     "bndstr coverage (need %u)\n",
                     covered, 100.0 * kCoverageFloor, kCoverageProfiles);
        ok = false;
    }
    if (verify_diags != 0) {
        std::fprintf(stderr,
                     "bounds_elision: %llu stream-verifier "
                     "diagnostic(s) in elided runs\n",
                     static_cast<unsigned long long>(verify_diags));
        ok = false;
    }
    std::printf("\n%s\n",
                ok ? "All plans sound: no lost detections, coverage "
                     "and verifier gates hold."
                   : "BOUNDS-ELISION GATE FAILURE (see above).");
    return ok ? 0 : 1;
}
