/**
 * @file
 * Elision ablation (DESIGN.md §6.2 and §11): PA+AOS with and without
 * the two elision extensions across the SPEC profiles. Neither is in
 * the paper.
 *
 *  - Dataflow bounds elision (AosBoundsElidePass): the dataflow engine
 *    proves some chunks non-escaping with every access in bounds, and
 *    the pass drops their whole instrumentation quadruple
 *    (pacma/bndstr/bndclr/autm).
 *  - Autm elision (AosElidePass): the pass proves most on-load autm
 *    authentications redundant (the same chunk's metadata was already
 *    authenticated and nothing invalidated the proof).
 *
 * One campaign runs three timing jobs per profile: the PA+AOS base,
 * autm elision and bounds elision. Two tables report coverage and
 * timing. A second, non-emitted campaign runs two functional jobs per
 * profile on the same pool:
 *
 *  - the stream verifier: the bounds-elided stream the belide cell
 *    times (same window, layout and plan) is linted with the
 *    SC15-SC18 elided-region contracts; its finding count is the
 *    bounds table's `verify` column;
 *  - the obligation court: the full and bounds-elided streams are
 *    replayed through the ObligationChecker (ground-truth parity,
 *    obligation replay, aligned pointer-fault replay).
 *
 * Both write only their own profile's slot and print in profile order,
 * so stdout does not depend on the worker count. Two small checks stay
 * serial:
 *
 *  - attack parity: the attack-gallery classes run through the
 *    pipeline with and without autm elision;
 *  - pointer-fault parity: one program mixing elidable chunks with
 *    escaping, out-of-bounds and use-after-free chunks is replayed
 *    with and without bounds elision.
 *
 * Exit status is the gate scripts/check.sh relies on. It is non-zero
 * when the court rejects a plan, fewer than two profiles reach 10%
 * elided bndstr, the stream verifier reports a diagnostic, attack
 * parity fails, or pointer-fault parity fails.
 *
 * Build & run:  ./build/bench/elision_ablation
 */

#include "bench/harness.hh"

#include <algorithm>

#include "analysis/dataflow/engine.hh"
#include "compiler/aos_bounds_elide_pass.hh"
#include "compiler/aos_elide_pass.hh"
#include "pa/pa_context.hh"
#include "staticcheck/obligation_checker.hh"
#include "staticcheck/stream_executor.hh"
#include "staticcheck/stream_verifier.hh"
#include "workloads/synthetic_workload.hh"

using namespace aos;
using namespace aos::bench;
using baselines::Mechanism;
using baselines::SystemOptions;

namespace {

/** Profiles that must clear the 10% bndstr-elision bar. */
constexpr double kCoverageFloor = 0.10;
constexpr unsigned kCoverageProfiles = 2;

ir::MicroOp
src(ir::OpKind kind, Addr addr = 0, Addr chunk = 0, u32 size = 0,
    bool loads_pointer = false)
{
    ir::MicroOp op;
    op.kind = kind;
    op.addr = addr;
    op.chunkBase = chunk;
    op.size = size;
    op.loadsPointer = loads_pointer;
    return op;
}

std::vector<ir::MicroOp>
drain(ir::InstStream &stream)
{
    std::vector<ir::MicroOp> out;
    ir::MicroOp next;
    while (stream.next(next))
        out.push_back(next);
    return out;
}

/** Lower a source stream through the full PA+AOS pipeline. */
std::vector<ir::MicroOp>
lower(ir::InstStream &source, pa::PaContext &pa)
{
    return drain(*core::instrument(&source, Mechanism::kPaAos, &pa).passes);
}

/** A bounds-elision plan and the ObligationChecker's verdict on it. */
struct PlanTrial
{
    analysis::dataflow::ElisionPlan plan;
    staticcheck::ObligationReport report;
};

/**
 * Plan bounds elision over @p analysed, lower @p source (the same ops
 * again: streams do not rewind) with and without the plan, and let the
 * ObligationChecker try the proofs.
 */
PlanTrial
tryPlan(ir::InstStream &analysed, ir::InstStream &source)
{
    pa::PaContext pa(pa::PointerLayout(16, 46));
    analysis::dataflow::DataflowEngine engine(pa.layout());
    engine.run(analysed);
    PlanTrial trial{analysis::dataflow::planBoundsElision(engine), {}};

    const auto full = lower(source, pa);
    ir::VectorStream full_stream(full);
    compiler::AosBoundsElidePass belide(&full_stream, pa.layout(),
                                        &trial.plan);
    const auto elided = drain(belide);

    staticcheck::ObligationChecker checker;
    trial.report = checker.check(full, elided, trial.plan);
    return trial;
}

/**
 * Lint the stream the pa_aos_belide cell of @p profile times at an
 * @p ops window: AosSystem's layout, its own dataflow plan and the
 * PA+AOS chain with bounds elision, checked with the AOS lowering
 * rules and the SC15-SC18 contracts. Returns the finding count.
 */
u64
verifyBelided(const workloads::WorkloadProfile &profile, u64 ops,
              const CancelToken &cancel)
{
    pa::PaContext pa(pa::PointerLayout(16, 46));
    workloads::SyntheticWorkload analysed(profile, ops);
    analysis::dataflow::DataflowEngine engine(pa.layout());
    engine.run(analysed, &cancel);
    const auto plan = analysis::dataflow::planBoundsElision(engine);

    workloads::SyntheticWorkload source(profile, ops);
    const auto chain = core::instrument(&source, Mechanism::kPaAos, &pa,
                                        {.boundsPlan = &plan});
    staticcheck::StreamVerifier verifier({.layout = pa.layout(),
                                          .requireAosLowering = true,
                                          .elisionPlan = &plan});
    std::vector<ir::MicroOp> block(1024);
    for (size_t n;
         (n = chain.passes->nextBatch(block.data(), block.size())) != 0;) {
        cancel.throwIfCancelled();
        for (size_t i = 0; i < n; ++i)
            verifier.observe(block[i]);
    }
    verifier.finish();
    return verifier.totalDiagnostics();
}

/**
 * One attack class: detections with and without autm elision must
 * match. With @p strip_ahc the attacker zeroes the AHC of the last
 * loaded pointer (the load and the autm that authenticates it) after
 * lowering: that unsigned autm operand is the one detection autm
 * alone makes, so elision must never drop it.
 */
bool
attackParity(const char *name, std::vector<ir::MicroOp> source,
             bool strip_ahc = false)
{
    pa::PaContext pa(pa::PointerLayout(16, 46));
    const pa::PointerLayout &layout = pa.layout();
    ir::VectorStream source_stream(std::move(source));
    auto full = lower(source_stream, pa);
    for (size_t i = full.size(); strip_ahc && i-- > 1;) {
        if (full[i].kind != ir::OpKind::kAutm)
            continue;
        for (ir::MicroOp *op : {&full[i - 1], &full[i]})
            op->addr = layout.compose(op->addr, layout.pac(op->addr), 0);
        break;
    }
    ir::VectorStream full_stream(full);
    compiler::AosElidePass elide(&full_stream, layout);
    const auto elided = drain(elide);
    staticcheck::StreamExecutor full_exec(layout);
    staticcheck::StreamExecutor elided_exec(layout);
    const auto fs = full_exec.run(full);
    const auto es = elided_exec.run(elided);
    const bool parity = es.sameDetections(fs) && fs.detections() > 0;
    std::printf("  %-24s %9llu %9llu %9llu %9llu   %s\n", name,
                static_cast<unsigned long long>(fs.autms),
                static_cast<unsigned long long>(es.autms),
                static_cast<unsigned long long>(fs.detections()),
                static_cast<unsigned long long>(es.detections()),
                parity ? "PARITY" : "MISMATCH");
    return parity;
}

/** The statistic @p key of @p stats, or 0 when the run never set it. */
double
valueOr0(const StatSet &stats, const char *key)
{
    return stats.has(key) ? stats.value(key) : 0.0;
}

} // namespace

int
main()
{
    setQuiet(true);
    const u64 ops = simOps();

    SystemOptions with_elision;
    with_elision.aosElision = true;
    SystemOptions with_belide;
    with_belide.aosBoundsElision = true;

    campaign::Campaign sweep(campaignOptions("elision_ablation"));
    const auto &profiles = workloads::specProfiles();
    for (const auto &profile : profiles) {
        // Three jobs per profile: [3p] = PA+AOS base, [3p+1] = autm
        // elision, [3p+2] = dataflow bounds elision.
        sweep.add({.name = profile.name + "/pa_aos", .profile = profile,
                   .mech = Mechanism::kPaAos, .ops = ops});
        sweep.add({.name = profile.name + "/pa_aos_elide",
                   .profile = profile, .mech = Mechanism::kPaAos,
                   .options = with_elision, .ops = ops});
        sweep.add({.name = profile.name + "/pa_aos_belide",
                   .profile = profile, .mech = Mechanism::kPaAos,
                   .options = with_belide, .ops = ops});
    }
    campaign::CampaignResult result = sweep.run();
    exitIfInterrupted(result);
    if (!result.allOk()) {
        std::fprintf(stderr, "elision_ablation: %u job(s) failed\n",
                     result.count(campaign::JobStatus::kFailed));
        return 1;
    }

    // The functional checks, two jobs per profile on the same pool;
    // each job writes only its own profile's slot. The verifier lints
    // the belide cell's stream: any residual instrumentation or
    // out-of-plan access in it is a finding, and findings fail this
    // harness. The court is capped so it stays a smoke even when the
    // timing campaign runs with a large AOS_SIM_OPS.
    const u64 replay_ops = std::min<u64>(ops, 40'000);
    std::vector<u64> verify_found(profiles.size());
    std::vector<staticcheck::ObligationReport> courts(profiles.size());
    campaign::Campaign checks(campaignOptions("elision_checks"));
    for (size_t p = 0; p < profiles.size(); ++p) {
        checks.add({.name = profiles[p].name + "/verify",
                    .profile = profiles[p],
                    .cancellableBody = [&, p](const CancelToken &cancel) {
                        verify_found[p] =
                            verifyBelided(profiles[p], ops, cancel);
                        return core::RunResult{};
                    }});
        checks.add({.name = profiles[p].name + "/court",
                    .profile = profiles[p],
                    .cancellableBody = [&, p](const CancelToken &) {
                        workloads::SyntheticWorkload analysed(profiles[p],
                                                              replay_ops);
                        workloads::SyntheticWorkload source(profiles[p],
                                                            replay_ops);
                        courts[p] = tryPlan(analysed, source).report;
                        return core::RunResult{};
                    }});
    }
    const campaign::CampaignResult checked = checks.run();
    exitIfInterrupted(checked);
    if (!checked.allOk()) {
        std::fprintf(stderr, "elision_ablation: %u check(s) failed\n",
                     checked.count(campaign::JobStatus::kFailed));
        return 1;
    }

    std::printf("Elision ablation: PA+AOS vs autm elision vs dataflow "
                "bounds elision, %llu ops/run\n\n",
                static_cast<unsigned long long>(ops));

    // --- Dataflow bounds elision ---
    std::printf("Bounds elision (pa_aos_belide vs pa_aos):\n");
    std::printf("%-12s %9s %9s %7s %8s %8s %10s %10s %8s %7s\n",
                "workload", "bndstr", "bnds-el", "cover", "ipc",
                "ipc-el", "mcq-stall", "mcq-st-el", "norm", "verify");
    rule(98);
    GeoAccum belide_norm_geo;
    unsigned covered = 0;
    u64 verify_diags = 0;
    for (size_t p = 0; p < profiles.size(); ++p) {
        const StatSet &base = result.jobs[3 * p].stats;
        StatSet &belided = result.jobs[3 * p + 2].stats;
        const double cover = valueOr0(belided, "belide_bndstr_rate");
        const u64 verify = verify_found[p];
        const double norm =
            belided.value("cycles") / base.value("cycles");
        belided.scalar("norm_exec_time_belide") = norm;
        if (cover >= kCoverageFloor)
            ++covered;
        verify_diags += verify;
        belide_norm_geo.add(norm);
        std::printf("%-12s %9.0f %9.0f %6.1f%% %8.3f %8.3f %10.0f "
                    "%10.0f %8.3f %7.0f\n",
                    profiles[p].name.c_str(),
                    belided.value("belide_bndstr_seen"),
                    belided.value("belide_bndstr_elided"), 100.0 * cover,
                    base.value("ipc"), belided.value("ipc"),
                    base.value("mcq_full_stalls"),
                    belided.value("mcq_full_stalls"), norm,
                    static_cast<double>(verify));
    }
    rule(98);
    std::printf("%-12s geomean exec time (elided/base): %.3f; "
                "%u/%zu profiles above %.0f%% coverage\n\n", "",
                belide_norm_geo.geomean(), covered, profiles.size(),
                100.0 * kCoverageFloor);

    // --- Autm elision ---
    std::printf("Autm elision (pa_aos_elide vs pa_aos):\n");
    std::printf("%-12s %10s %10s %7s %8s %8s %10s %10s %8s\n",
                "workload", "autm", "autm-el", "rate", "ipc", "ipc-el",
                "mcq-stall", "mcq-st-el", "norm");
    rule(91);
    GeoAccum norm_geo;
    GeoAccum rate_geo;
    for (size_t p = 0; p < profiles.size(); ++p) {
        const StatSet &base = result.jobs[3 * p].stats;
        StatSet &elided = result.jobs[3 * p + 1].stats;
        const double elision_rate = valueOr0(elided, "elide_rate");
        const double norm =
            elided.value("cycles") / base.value("cycles");
        elided.scalar("norm_exec_time") = norm;
        elided.scalar("kept_autm_fraction") = 1.0 - elision_rate;
        norm_geo.add(norm);
        rate_geo.add(1.0 - elision_rate);
        std::printf("%-12s %10.0f %10.0f %6.1f%% %8.3f %8.3f %10.0f "
                    "%10.0f %8.3f\n",
                    profiles[p].name.c_str(), base.value("mix_autms"),
                    elided.value("mix_autms"), 100.0 * elision_rate,
                    base.value("ipc"), elided.value("ipc"),
                    base.value("mcq_full_stalls"),
                    elided.value("mcq_full_stalls"), norm);
    }
    rule(91);
    std::printf("%-12s geomean exec time elided/base: %.3f, "
                "geomean kept-autm fraction: %.3f\n", "",
                norm_geo.geomean(), rate_geo.geomean());
    std::fflush(stdout);

    const auto elided_only = [](const campaign::JobResult &job) {
        return job.stats.has("norm_exec_time");
    };
    const auto belided_only = [](const campaign::JobResult &job) {
        return job.stats.has("norm_exec_time_belide");
    };
    campaign::computeReducers(
        result,
        {{"geomean_norm_elided", campaign::ReduceOp::kGeomean,
          "norm_exec_time", elided_only},
         {"geomean_kept_autm_fraction", campaign::ReduceOp::kGeomean,
          "kept_autm_fraction", elided_only},
         {"geomean_norm_belide", campaign::ReduceOp::kGeomean,
          "norm_exec_time_belide", belided_only},
         {"mean_bndstr_coverage", campaign::ReduceOp::kMean,
          "belide_bndstr_rate", belided_only}});
    const bool json_ok = emitCampaignJson(result, "elision_ablation");

    // --- Obligation court: every plan tried against ground truth ---
    std::printf("\nObligation replay (%llu ops/profile, pointer-fault "
                "replay):\n",
                static_cast<unsigned long long>(replay_ops));
    std::printf("  %-12s %6s %5s %9s %9s %9s %9s\n", "workload", "oblig",
                "viol", "inj-full", "inj-el", "det-full", "det-el");

    bool plans_ok = true;
    for (size_t p = 0; p < profiles.size(); ++p) {
        const staticcheck::ObligationReport &report = courts[p];
        plans_ok &= report.ok;
        std::printf("  %-12s %6llu %5llu %9llu %9llu %9llu %9llu   %s\n",
                    profiles[p].name.c_str(),
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
    }

    // --- Detection parity on the attack-gallery classes ---
    constexpr Addr kChunk = 0x20001000;
    std::vector<ir::MicroOp> prelude{
        src(ir::OpKind::kMallocMark, 0, kChunk, 64)};
    for (int i = 0; i < 4; ++i)
        prelude.push_back(
            src(ir::OpKind::kLoad, kChunk + 8, kChunk, 8, true));

    std::printf("\nAttack parity (autm count may drop; detections may "
                "not):\n");
    std::printf("  %-24s %9s %9s %9s %9s\n", "attack", "autm", "autm-el",
                "det", "det-el");

    bool all_parity = true;
    {
        auto s = prelude;
        s.push_back(src(ir::OpKind::kLoad, kChunk + 4096, kChunk, 8));
        all_parity &= attackParity("heap-overflow", std::move(s));
    }
    {
        auto s = prelude;
        s.push_back(src(ir::OpKind::kFreeMark, 0, kChunk));
        s.push_back(src(ir::OpKind::kLoad, kChunk + 16, kChunk, 8));
        all_parity &= attackParity("use-after-free", std::move(s));
    }
    {
        auto s = prelude;
        s.push_back(src(ir::OpKind::kFreeMark, 0, kChunk));
        s.push_back(src(ir::OpKind::kFreeMark, 0, kChunk));
        all_parity &= attackParity("double-free", std::move(s));
    }
    {
        auto s = prelude;
        s.push_back(src(ir::OpKind::kFreeMark, 0, 0x00601000));
        all_parity &= attackParity("invalid-free", std::move(s));
    }
    all_parity &= attackParity("ahc-stripping", prelude, true);

    std::printf("\n%s\n", all_parity
                              ? "All attacks detected identically with "
                                "elision enabled."
                              : "PARITY FAILURE: elision dropped a "
                                "security-relevant check!");

    // --- Pointer-fault parity under bounds elision ---
    // A representative program mixing elidable private chunks with an
    // escaping, an out-of-bounds and a use-after-free chunk; the
    // ObligationChecker injects aligned pointer faults into the full
    // and the bounds-elided lowering, and per fault class the elided
    // stream must detect at least as much as the full one.
    std::vector<ir::MicroOp> program;
    constexpr Addr kBase = 0x20100000;
    constexpr Addr kStride = 0x2000;
    for (int c = 0; c < 12; ++c) {
        const Addr chunk = kBase + c * kStride;
        program.push_back(src(ir::OpKind::kMallocMark, 0, chunk, 96));
        for (int a = 0; a < 6; ++a)
            program.push_back(src(ir::OpKind::kLoad, chunk + 8 * a, chunk,
                                  8, /*loads_pointer=*/c % 4 == 1));
        if (c % 4 == 2) // out-of-bounds probe: spatially unsafe.
            program.push_back(src(ir::OpKind::kStore, chunk + 4096,
                                  chunk, 8));
        program.push_back(src(ir::OpKind::kFreeMark, 0, chunk));
        if (c % 4 == 3) // use-after-free probe: temporally unsafe.
            program.push_back(src(ir::OpKind::kLoad, chunk + 16, chunk,
                                  8));
    }
    ir::VectorStream analysed(program);
    ir::VectorStream source(std::move(program));
    const PlanTrial trial = tryPlan(analysed, source);
    const auto &report = trial.report;
    const bool fault_ok = report.ok;

    std::printf("\nPointer-fault replay parity under bounds "
                "elision (%zu/%llu chunks elided):\n",
                trial.plan.obligations().size(),
                static_cast<unsigned long long>(
                    trial.plan.stats().chunksSeen));
    std::printf("  %-16s %9s %9s %9s %9s\n", "fault class", "inj",
                "inj-el", "det", "det-el");
    for (unsigned t = 0; t < staticcheck::kNumPointerFaults; ++t) {
        const auto &fs = report.fullFaultStats;
        const auto &es = report.elidedFaultStats;
        if (fs.injected[t] == 0 && es.injected[t] == 0)
            continue;
        std::printf("  %-16s %9llu %9llu %9llu %9llu   %s\n",
                    staticcheck::pointerFaultName(
                        static_cast<staticcheck::PointerFault>(t)),
                    static_cast<unsigned long long>(fs.injected[t]),
                    static_cast<unsigned long long>(es.injected[t]),
                    static_cast<unsigned long long>(fs.detected[t]),
                    static_cast<unsigned long long>(es.detected[t]),
                    es.detected[t] >= fs.detected[t] ? "PARITY"
                                                     : "MISMATCH");
    }
    std::printf("%s\n", fault_ok
                            ? "  bounds elision lost no fault "
                              "detections."
                            : "  FAULT PARITY FAILURE: an elided "
                              "check was load-bearing!");
    if (!fault_ok) {
        for (const auto &failure : report.failures)
            std::printf("    %s\n", failure.c_str());
    }

    // --- The five gates ---
    bool ok = json_ok;
    const auto gate = [&ok](bool held, const std::string &what) {
        if (!held)
            std::fprintf(stderr, "elision_ablation: gate failed: %s\n",
                         what.c_str());
        ok &= held;
    };
    gate(plans_ok, "the obligation court rejected a plan");
    gate(covered >= kCoverageProfiles,
         csprintf("only %u profile(s) above %.0f%% bndstr coverage "
                  "(need %u)",
                  covered, 100.0 * kCoverageFloor, kCoverageProfiles));
    gate(verify_diags == 0,
         csprintf("%llu stream-verifier diagnostic(s) in bounds-elided "
                  "runs",
                  static_cast<unsigned long long>(verify_diags)));
    gate(all_parity, "attack parity");
    gate(fault_ok, "pointer-fault parity");
    std::printf("\n%s\n",
                ok ? "All elision gates hold: obligation court, bndstr "
                     "coverage, stream verifier, attack parity and "
                     "pointer-fault parity."
                   : "ELISION GATE FAILURE (see above).");
    return ok ? 0 : 1;
}
