#include "core/aos_system.hh"

#include "analysis/dataflow/engine.hh"
#include "common/cancel.hh"
#include "common/logging.hh"
#include "common/profiler.hh"
#include "compiler/aos_passes.hh"
#include "compiler/pa_pass.hh"
#include "compiler/asan_pass.hh"
#include "compiler/watchdog_pass.hh"

namespace aos::core {

namespace {

ir::OpMixStats
mixDelta(const ir::OpMixStats &after, const ir::OpMixStats &before)
{
    ir::OpMixStats delta;
    delta.total = after.total - before.total;
    delta.unsignedLoads = after.unsignedLoads - before.unsignedLoads;
    delta.unsignedStores = after.unsignedStores - before.unsignedStores;
    delta.signedLoads = after.signedLoads - before.signedLoads;
    delta.signedStores = after.signedStores - before.signedStores;
    delta.boundsOps = after.boundsOps - before.boundsOps;
    delta.pacOps = after.pacOps - before.pacOps;
    delta.autms = after.autms - before.autms;
    delta.branches = after.branches - before.branches;
    delta.wdOps = after.wdOps - before.wdOps;
    return delta;
}

} // namespace

StatSet
RunResult::toStatSet() const
{
    StatSet set(workload + "." + baselines::mechanismName(mech));
    set.scalar("cycles") = static_cast<double>(core.cycles);
    set.scalar("committed_ops") = static_cast<double>(core.committed);
    set.scalar("ipc") = core.ipc();
    set.scalar("loads") = static_cast<double>(core.loads);
    set.scalar("stores") = static_cast<double>(core.stores);
    set.scalar("branches") = static_cast<double>(core.branches);
    set.scalar("branch_mpki") = branchMpki;
    set.scalar("rob_full_stalls") = static_cast<double>(core.robFullStalls);
    set.scalar("lsq_full_stalls") = static_cast<double>(core.lsqFullStalls);
    set.scalar("mcq_full_stalls") = static_cast<double>(core.mcqFullStalls);
    set.scalar("retire_delayed") = static_cast<double>(core.retireDelayed);
    set.scalar("network_traffic_bytes") =
        static_cast<double>(networkTraffic);
    set.scalar("dram_accesses") = static_cast<double>(dramAccesses);
    set.scalar("dram_writes") = static_cast<double>(dramWrites);
    set.scalar("mix_total") = static_cast<double>(mix.total);
    set.scalar("mix_signed_loads") = static_cast<double>(mix.signedLoads);
    set.scalar("mix_signed_stores") =
        static_cast<double>(mix.signedStores);
    set.scalar("mix_unsigned_loads") =
        static_cast<double>(mix.unsignedLoads);
    set.scalar("mix_unsigned_stores") =
        static_cast<double>(mix.unsignedStores);
    set.scalar("mix_bounds_ops") = static_cast<double>(mix.boundsOps);
    set.scalar("mix_pac_ops") = static_cast<double>(mix.pacOps);
    set.scalar("mix_autms") = static_cast<double>(mix.autms);
    set.scalar("mcu_checked_ops") =
        static_cast<double>(mcuStats.checkedOps);
    set.scalar("mcu_unchecked_ops") =
        static_cast<double>(mcuStats.uncheckedOps);
    set.scalar("mcu_ways_per_check") = mcuStats.avgWaysPerCheck();
    set.scalar("mcu_forwards") = static_cast<double>(mcuStats.forwards);
    set.scalar("mcu_replays") = static_cast<double>(mcuStats.replays);
    set.scalar("bwb_hit_rate") = bwb.hitRate();
    set.scalar("hbt_inserts") = static_cast<double>(hbt.inserts);
    set.scalar("hbt_clears") = static_cast<double>(hbt.clears);
    set.scalar("hbt_occupied") = static_cast<double>(hbt.occupied);
    set.scalar("hbt_resizes") = static_cast<double>(hbt.resizes);
    set.scalar("violations") = static_cast<double>(violations);
    if (elide.autmSeen) {
        set.scalar("elide_autm_seen") = static_cast<double>(elide.autmSeen);
        set.scalar("elide_autm_elided") =
            static_cast<double>(elide.autmElided);
        set.scalar("elide_autm_kept") = static_cast<double>(elide.autmKept);
        set.scalar("elide_invalidations") =
            static_cast<double>(elide.invalidations);
        set.scalar("elide_rate") = elide.elisionRate();
    }
    if (belide.bndstrSeen) {
        set.scalar("belide_chunks_seen") =
            static_cast<double>(belidePlan.chunksSeen);
        set.scalar("belide_chunks_elided") =
            static_cast<double>(belidePlan.chunksElided);
        set.scalar("belide_plan_rate") = belidePlan.elisionRate();
        set.scalar("belide_reject_escaped") =
            static_cast<double>(belidePlan.rejectEscaped);
        set.scalar("belide_reject_oob") =
            static_cast<double>(belidePlan.rejectOutOfBounds);
        set.scalar("belide_reject_widened") =
            static_cast<double>(belidePlan.rejectWidened);
        set.scalar("belide_reject_temporal") =
            static_cast<double>(belidePlan.rejectTemporal);
        set.scalar("belide_reject_zero_size") =
            static_cast<double>(belidePlan.rejectZeroSize);
        set.scalar("belide_pacma_seen") =
            static_cast<double>(belide.pacmaSeen);
        set.scalar("belide_pacma_elided") =
            static_cast<double>(belide.pacmaElided);
        set.scalar("belide_bndstr_seen") =
            static_cast<double>(belide.bndstrSeen);
        set.scalar("belide_bndstr_elided") =
            static_cast<double>(belide.bndstrElided);
        set.scalar("belide_bndstr_rate") = belide.bndstrElisionRate();
        set.scalar("belide_bndclr_seen") =
            static_cast<double>(belide.bndclrSeen);
        set.scalar("belide_bndclr_elided") =
            static_cast<double>(belide.bndclrElided);
        set.scalar("belide_xpacm_elided") =
            static_cast<double>(belide.xpacmElided);
        set.scalar("belide_autm_elided") =
            static_cast<double>(belide.autmElided);
        set.scalar("belide_accesses_stripped") =
            static_cast<double>(belide.accessesStripped);
    }
    if (verified) {
        set.scalar("verify_total") =
            static_cast<double>(verifyDiagnostics);
        set.scalar("verify_suppressed") =
            static_cast<double>(verifySuppressed);
        for (const auto &[rule, count] : verifyRuleCounts) {
            set.scalar(std::string("verify_") + staticcheck::ruleId(rule) +
                       "_" + staticcheck::ruleName(rule)) =
                static_cast<double>(count);
        }
    }
    return set;
}

AosSystem::AosSystem(const workloads::WorkloadProfile &profile,
                     const baselines::SystemOptions &options)
    : _profile(profile), _options(options)
{
    fatal_if(options.faultTypes != 0,
             "SystemOptions::faultTypes is set, but fault injection was "
             "removed from the simulator");

    // Narrow the VA when a wide PAC would not fit the 64-bit layout.
    const unsigned va_bits =
        options.pacBits <= 16 ? 46 : 62 - options.pacBits;
    const pa::PointerLayout layout(options.pacBits, va_bits);
    _pa = std::make_unique<pa::PaContext>(layout);

    memsim::MemoryConfig mem_config;
    mem_config.useBoundsCache = options.usesAos() && options.useL1B;
    _mem = std::make_unique<memsim::MemorySystem>(mem_config);

    if (options.usesAos()) {
        const unsigned records = options.boundsCompression
                                     ? bounds::kSlotsPerWay
                                     : bounds::kWideSlotsPerWay;
        _os = std::make_unique<os::OsModel>(options.pacBits,
                                            options.initialHbtAssoc,
                                            records,
                                            os::FaultPolicy::kReport);
        _bwb = std::make_unique<bounds::BoundsWayBuffer>(64);

        mcu::McuConfig mcu_config;
        mcu_config.useBwb = options.useBwb;
        mcu_config.boundsForwarding = options.boundsForwarding;
        _mcu = std::make_unique<mcu::MemoryCheckUnit>(
            mcu_config, layout, &_os->hbt(), _bwb.get(), _mem.get());
        _mcu->onFault = [this](mcu::FaultKind kind,
                               const mcu::McqEntry &entry) {
            return _os->handleFault(kind, entry);
        };
    }

    cpu::CoreConfig core_config;
    core_config.codeFootprint = profile.codeFootprint;
    core_config.cancel = options.cancel;
    _core = std::make_unique<cpu::OoOCore>(core_config, layout, _mem.get(),
                                           _mcu.get());

    _workload = std::make_unique<workloads::SyntheticWorkload>(
        profile, options.measureOps, options.seedSalt);

    if (options.aosBoundsElision && options.usesAos()) {
        // The synthetic stream is a pure function of
        // (profile, measureOps, seedSalt), so abstractly interpreting a
        // regenerated duplicate is an exact model of the stream the
        // pipeline below will instrument.
        prof::Scope scope("sys.boundsplan");
        workloads::SyntheticWorkload analysis_copy(
            profile, options.measureOps, options.seedSalt);
        analysis::dataflow::DataflowEngine engine(layout);
        engine.run(analysis_copy, options.cancel);
        _boundsPlan = std::make_unique<analysis::dataflow::ElisionPlan>(
            analysis::dataflow::planBoundsElision(engine));
    }

    buildPipeline();
}

AosSystem::~AosSystem() = default;

void
AosSystem::buildPipeline()
{
    _pipeline = std::make_unique<compiler::PassManager>(_workload.get());

    switch (_options.mech) {
      case baselines::Mechanism::kBaseline:
        break;
      case baselines::Mechanism::kWatchdog:
        _pipeline->add<compiler::WatchdogPass>();
        break;
      case baselines::Mechanism::kPa:
        _pipeline->add<compiler::PaPass>(compiler::PaMode::kPaOnly);
        break;
      case baselines::Mechanism::kAos:
        _pipeline->add<compiler::AosOptPass>();
        _pipeline->add<compiler::AosBackendPass>(_pa.get());
        if (_boundsPlan) {
            _belide = _pipeline->add<compiler::AosBoundsElidePass>(
                _pa->layout(), _boundsPlan.get());
        }
        break;
      case baselines::Mechanism::kPaAos:
        _pipeline->add<compiler::AosOptPass>();
        _pipeline->add<compiler::AosBackendPass>(_pa.get());
        _pipeline->add<compiler::PaPass>(compiler::PaMode::kPaAos);
        if (_boundsPlan) {
            // After PaPass so elided regions are dropped before autm
            // elision sees them; before the counter like AosElidePass.
            _belide = _pipeline->add<compiler::AosBoundsElidePass>(
                _pa->layout(), _boundsPlan.get());
        }
        if (_options.aosElision) {
            // Before the counter so the mix reflects executed autms.
            _elide = _pipeline->add<compiler::AosElidePass>(_pa->layout());
        }
        break;
      case baselines::Mechanism::kAsan:
        _pipeline->add<compiler::AsanPass>();
        break;
    }

    _counter = _pipeline->add<compiler::OpCounter>(_pa->layout());

    _stream = _pipeline.get();
    if (_options.verifyStream) {
        staticcheck::VerifierOptions verify_options;
        verify_options.layout = _pa->layout();
        verify_options.requireAosLowering = _options.usesAos();
        verify_options.elisionPlan = _boundsPlan.get();
        _verifier =
            std::make_unique<staticcheck::StreamVerifier>(verify_options);
        _verified = std::make_unique<staticcheck::VerifyingStream>(
            _pipeline.get(), _verifier.get());
        _stream = _verified.get();
    }
}

void
AosSystem::fastForward()
{
    const pa::PointerLayout &layout = _pa->layout();
    // Pull in blocks: one pipeline dispatch per block instead of two
    // virtual calls per op. Warmup is the bulk of a job's wall time
    // and this loop consumes tens of millions of ops, so per-op
    // dispatch overhead is measurable. Ops over-pulled past the phase
    // mark are spliced back in front of the stream for the measure
    // loop via a CarryStream.
    constexpr size_t kBlock = 1024;
    std::vector<ir::MicroOp> buf(kBlock);
    u64 polled = 0;
    for (size_t n; (n = _stream->nextBatch(buf.data(), kBlock)) != 0;) {
        for (size_t i = 0; i < n; ++i) {
            const ir::MicroOp &op = buf[i];
            // Fast-forward has no cycle loop, so poll the cancellation
            // token here (every 4096 ops keeps overhead negligible).
            if ((++polled & 0xfff) == 0 && _options.cancel)
                _options.cancel->throwIfCancelled();
            switch (op.kind) {
              case ir::OpKind::kPhaseMark:
                if (i + 1 < n) {
                    _ffCarry = std::make_unique<ir::CarryStream>(
                        std::vector<ir::MicroOp>(buf.begin() + i + 1,
                                                 buf.begin() + n),
                        _stream);
                    _stream = _ffCarry.get();
                }
                return;
              case ir::OpKind::kBndstr: {
                const u64 pac = layout.pac(op.addr);
                const Addr raw = layout.strip(op.addr);
                auto &hbt = _os->hbt();
                const unsigned way =
                    hbt.insertOrGrow(pac, bounds::compress(raw, op.size));
                _mem->boundsAccess(hbt.wayAddr(pac, way), true);
                break;
              }
              case ir::OpKind::kBndclr:
                _os->hbt().clear(layout.pac(op.addr),
                                 layout.strip(op.addr));
                break;
              case ir::OpKind::kLoad:
              case ir::OpKind::kWdMetaLoad:
                _mem->dataAccess(layout.strip(op.addr), false);
                break;
              case ir::OpKind::kStore:
              case ir::OpKind::kWdMetaStore:
                _mem->dataAccess(layout.strip(op.addr), true);
                break;
              case ir::OpKind::kBranch:
                _core->observeBranch(op.branchId, op.taken);
                break;
              default:
                break;
            }
        }
    }
    panic("workload stream ended before the phase mark");
}

RunResult
AosSystem::run()
{
    {
        prof::Scope scope("sys.fastforward");
        fastForward();
    }

    // Snapshot at the measurement boundary. The op mix comes from the
    // counter's own phase-mark latch: the pass pipeline runs ahead of
    // the consumer by up to a block, so mix() here already includes
    // measured-phase ops sitting in pending buffers.
    const ir::OpMixStats mix_before = _counter->mixAtPhaseMark();
    const u64 traffic_before = _mem->networkTraffic();
    const u64 dram_accesses_before = _mem->dramAccesses();
    const u64 dram_writes_before = _mem->dramWrites();
    const u64 mispred_before = _core->predictor().stats().mispredicts;

    {
        prof::Scope scope("sys.measure");
        // Run until the bounded source stream ends: every configuration
        // executes the same program work; instrumented instructions are
        // extra, exactly as in the paper's methodology.
        _core->run(*_stream, 0);
    }

    RunResult result;
    result.workload = _profile.name;
    result.mech = _options.mech;
    result.core = _core->stats();
    result.networkTraffic = _mem->networkTraffic() - traffic_before;
    result.dramAccesses = _mem->dramAccesses() - dram_accesses_before;
    result.dramWrites = _mem->dramWrites() - dram_writes_before;
    result.mix = mixDelta(_counter->mix(), mix_before);
    if (_mcu)
        result.mcuStats = _mcu->stats();
    if (_bwb)
        result.bwb = _bwb->stats();
    if (_os) {
        result.hbt = _os->hbt().stats();
        result.violations = _os->violationCount();
        result.resizes = result.hbt.resizes;
    }
    if (_elide)
        result.elide = _elide->stats();
    if (_boundsPlan)
        result.belidePlan = _boundsPlan->stats();
    if (_belide)
        result.belide = _belide->stats();
    if (_verifier) {
        result.verified = true;
        result.verifyDiagnostics = _verifier->totalDiagnostics();
        result.verifySuppressed = _verifier->suppressedDiagnostics();
        result.verifyRuleCounts = _verifier->ruleCounts();
        result.verifyFindings = _verifier->diagnostics();
    }
    const u64 mispredicts =
        _core->predictor().stats().mispredicts - mispred_before;
    result.branchMpki =
        result.core.committed
            ? 1000.0 * static_cast<double>(mispredicts) /
                  static_cast<double>(result.core.committed)
            : 0.0;
    return result;
}

} // namespace aos::core
