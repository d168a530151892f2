/**
 * @file
 * Elision ablation (new axis, DESIGN.md "Static analysis layer"):
 * PA+AOS with and without AosElidePass across the SPEC profiles.
 *
 * The pass proves most on-load autm authentications redundant (the
 * same chunk's metadata was already authenticated and nothing
 * invalidated the proof), so the elided configuration executes fewer
 * pac-unit micro-ops at identical security: the second table replays
 * the attack-gallery classes through the pipeline with and without
 * elision and shows the detection profiles match.
 *
 * The per-profile (base, elided) timing pairs execute as one campaign
 * on the thread pool (AOS_CAMPAIGN_JOBS workers); the attack
 * parity replay below stays serial — it is functional, not timed.
 *
 * Build & run:  ./build/bench/elision_ablation
 */

#include "bench/harness.hh"

#include "analysis/dataflow/engine.hh"
#include "compiler/aos_bounds_elide_pass.hh"
#include "compiler/aos_elide_pass.hh"
#include "compiler/aos_passes.hh"
#include "compiler/pa_pass.hh"
#include "pa/pa_context.hh"
#include "staticcheck/obligation_checker.hh"
#include "staticcheck/stream_executor.hh"

using namespace aos;
using namespace aos::bench;
using baselines::Mechanism;
using baselines::SystemOptions;

namespace {

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

/** Lower a source stream through the full PA+AOS pipeline. */
std::vector<ir::MicroOp>
lower(std::vector<ir::MicroOp> input, pa::PaContext &pa)
{
    ir::VectorStream source(std::move(input));
    compiler::AosOptPass opt(&source);
    compiler::AosBackendPass backend(&opt, &pa);
    compiler::PaPass pa_pass(&backend, compiler::PaMode::kPaAos);
    std::vector<ir::MicroOp> out;
    ir::MicroOp next;
    while (pa_pass.next(next))
        out.push_back(next);
    return out;
}

std::vector<ir::MicroOp>
elideStream(const std::vector<ir::MicroOp> &ops,
            const pa::PointerLayout &layout)
{
    ir::VectorStream source(ops);
    compiler::AosElidePass pass(&source, layout);
    std::vector<ir::MicroOp> out;
    ir::MicroOp next;
    while (pass.next(next))
        out.push_back(next);
    return out;
}

/** One attack class: detections with and without elision must match. */
bool
attackParity(const char *name, std::vector<ir::MicroOp> source)
{
    pa::PaContext pa(pa::PointerLayout(16, 46));
    const auto full = lower(std::move(source), pa);
    const auto elided = elideStream(full, pa.layout());
    staticcheck::StreamExecutor full_exec(pa.layout());
    staticcheck::StreamExecutor elided_exec(pa.layout());
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

} // namespace

int
main()
{
    setQuiet(true);
    const u64 ops = simOps();

    std::printf("Elision ablation: PA+AOS vs autm elision vs dataflow "
                "bounds elision, %llu ops/run\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("%-12s %10s %10s %7s %7s %8s %8s %8s %10s %10s %8s "
                "%8s\n",
                "workload", "autm", "autm-el", "rate", "cover", "ipc",
                "ipc-el", "ipc-bel", "mcq-stall", "mcq-st-el", "norm",
                "norm-bel");
    rule(112);

    SystemOptions with_elision;
    with_elision.aosElision = true;
    SystemOptions with_belide;
    with_belide.aosBoundsElision = true;

    campaign::Campaign sweep(campaignOptions("elision_ablation"));
    const auto &profiles = workloads::specProfiles();
    for (const auto &profile : profiles) {
        // Three jobs per profile: [3p] = PA+AOS base, [3p+1] = autm
        // elision, [3p+2] = dataflow bounds elision.
        campaign::Job base;
        base.name = profile.name + "/pa_aos";
        base.profile = profile;
        base.mech = Mechanism::kPaAos;
        base.ops = ops;
        sweep.add(std::move(base));

        campaign::Job elided;
        elided.name = profile.name + "/pa_aos_elide";
        elided.profile = profile;
        elided.mech = Mechanism::kPaAos;
        elided.options = with_elision;
        elided.ops = ops;
        sweep.add(std::move(elided));

        campaign::Job belided;
        belided.name = profile.name + "/pa_aos_belide";
        belided.profile = profile;
        belided.mech = Mechanism::kPaAos;
        belided.options = with_belide;
        belided.ops = ops;
        sweep.add(std::move(belided));
    }
    campaign::CampaignResult result = sweep.run();
    exitIfInterrupted(result);
    if (!result.allOk()) {
        std::fprintf(stderr, "elision_ablation: %u job(s) failed\n",
                     result.count(campaign::JobStatus::kFailed));
        return 1;
    }

    GeoAccum norm_geo;
    GeoAccum rate_geo;
    GeoAccum belide_norm_geo;
    for (size_t p = 0; p < profiles.size(); ++p) {
        const StatSet &base = result.jobs[3 * p].stats;
        campaign::JobResult &elided_job = result.jobs[3 * p + 1];
        campaign::JobResult &belided_job = result.jobs[3 * p + 2];
        const StatSet &elided = elided_job.stats;
        const StatSet &belided = belided_job.stats;
        const double elision_rate =
            elided.has("elide_rate") ? elided.value("elide_rate") : 0.0;
        const double cover = belided.has("belide_bndstr_rate")
                                 ? belided.value("belide_bndstr_rate")
                                 : 0.0;
        const double norm =
            elided.value("cycles") / base.value("cycles");
        const double belide_norm =
            belided.value("cycles") / base.value("cycles");
        elided_job.stats.scalar("norm_exec_time") = norm;
        elided_job.stats.scalar("kept_autm_fraction") = 1.0 - elision_rate;
        belided_job.stats.scalar("norm_exec_time_belide") = belide_norm;
        norm_geo.add(norm);
        rate_geo.add(1.0 - elision_rate);
        belide_norm_geo.add(belide_norm);
        std::printf("%-12s %10.0f %10.0f %6.1f%% %6.1f%% %8.3f %8.3f "
                    "%8.3f %10.0f %10.0f %8.3f %8.3f\n",
                    profiles[p].name.c_str(), base.value("mix_autms"),
                    elided.value("mix_autms"), 100.0 * elision_rate,
                    100.0 * cover, base.value("ipc"),
                    elided.value("ipc"), belided.value("ipc"),
                    base.value("mcq_full_stalls"),
                    elided.value("mcq_full_stalls"), norm, belide_norm);
        std::fflush(stdout);
    }
    rule(112);
    std::printf("%-12s geomean exec time elided/base: %.3f, "
                "belide/base: %.3f, geomean kept-autm fraction: "
                "%.3f\n\n", "",
                norm_geo.geomean(), belide_norm_geo.geomean(),
                rate_geo.geomean());

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

    // --- Detection parity on the attack-gallery classes ---
    constexpr Addr kChunk = 0x20001000;
    std::vector<ir::MicroOp> prelude{
        src(ir::OpKind::kMallocMark, 0, kChunk, 64)};
    for (int i = 0; i < 4; ++i)
        prelude.push_back(
            src(ir::OpKind::kLoad, kChunk + 8, kChunk, 8, true));

    std::printf("Attack parity (autm count may drop; detections may "
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
    bool fault_ok = true;
    {
        std::vector<ir::MicroOp> program;
        constexpr Addr kBase = 0x20100000;
        constexpr Addr kStride = 0x2000;
        for (int c = 0; c < 12; ++c) {
            const Addr chunk = kBase + c * kStride;
            program.push_back(src(ir::OpKind::kMallocMark, 0, chunk, 96));
            for (int a = 0; a < 6; ++a)
                program.push_back(src(ir::OpKind::kLoad, chunk + 8 * a,
                                      chunk, 8,
                                      /*loads_pointer=*/c % 4 == 1));
            if (c % 4 == 2) // out-of-bounds probe: spatially unsafe.
                program.push_back(src(ir::OpKind::kStore, chunk + 4096,
                                      chunk, 8));
            program.push_back(src(ir::OpKind::kFreeMark, 0, chunk));
            if (c % 4 == 3) // use-after-free probe: temporally unsafe.
                program.push_back(src(ir::OpKind::kLoad, chunk + 16,
                                      chunk, 8));
        }

        pa::PaContext pa(pa::PointerLayout(16, 46));
        ir::VectorStream analysis_stream(program);
        analysis::dataflow::DataflowEngine engine(pa.layout());
        engine.run(analysis_stream);
        const auto plan = analysis::dataflow::planBoundsElision(engine);

        const auto full = lower(program, pa);
        ir::VectorStream full_stream(full);
        compiler::AosBoundsElidePass belide(&full_stream, pa.layout(),
                                            &plan);
        std::vector<ir::MicroOp> belided;
        ir::MicroOp next;
        while (belide.next(next))
            belided.push_back(next);

        staticcheck::ObligationChecker checker;
        const auto report = checker.check(full, belided, plan);
        fault_ok = report.ok;

        std::printf("\nFault-matrix parity under bounds elision "
                    "(%zu/%llu chunks elided, aligned injection):\n",
                    plan.obligations().size(),
                    static_cast<unsigned long long>(
                        plan.stats().chunksSeen));
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
    }

    return (all_parity && fault_ok && json_ok) ? 0 : 1;
}
