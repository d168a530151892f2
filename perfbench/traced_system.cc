#include "perfbench/traced_system.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/dataflow/engine.hh"
#include "common/cancel.hh"
#include "compiler/aos_bounds_elide_pass.hh"
#include "compiler/aos_elide_pass.hh"
#include "compiler/aos_passes.hh"
#include "compiler/op_counter.hh"
#include "compiler/pa_pass.hh"
#include "compiler/watchdog_pass.hh"
#include "cpu/ooo_core.hh"
#include "mcu/memory_check_unit.hh"
#include "memsim/memory_system.hh"
#include "os/os_model.hh"
#include "pa/pa_context.hh"
#include "workloads/synthetic_workload.hh"

namespace aos::perfbench {

namespace {

/** Ops per block: the fast-forward block of AosSystem. */
constexpr size_t kBlock = 1024;

/**
 * Times every pull from the stream below as one span of a layer and
 * counts the ops that come out (the phase mark included). Per-op
 * consumers (the OoO core, the dataflow engine) are served from a
 * block read ahead in one timed pull.
 */
class TimedStream : public ir::InstStream
{
  public:
    TimedStream(ir::InstStream *below, SpanLog &log, Layer layer)
        : _below(below), _log(log), _layer(layer), _buf(kBlock)
    {
    }

    bool
    next(ir::MicroOp &op) override
    {
        if (_head == _filled) {
            _filled = pull(_buf.data(), kBlock);
            _head = 0;
            if (_filled == 0)
                return false;
        }
        op = _buf[_head++];
        return true;
    }

    size_t
    nextBatch(ir::MicroOp *out, size_t max) override
    {
        size_t k = std::min(max, _filled - _head);
        std::copy_n(_buf.data() + _head, k, out);
        _head += k;
        if (k < max)
            k += pull(out + k, max - k);
        return k;
    }

    std::string name() const override { return _below->name(); }

    /** Ops pulled so far, excluding the one phase mark. */
    u64 ops() const { return _ops ? _ops - 1 : 0; }

  private:
    size_t
    pull(ir::MicroOp *out, size_t max)
    {
        ScopedSpan span(_log, _layer);
        const size_t n = _below->nextBatch(out, max);
        _ops += n;
        return n;
    }

    ir::InstStream *_below;
    SpanLog &_log;
    Layer _layer;
    std::vector<ir::MicroOp> _buf;
    size_t _head = 0;
    size_t _filled = 0;
    u64 _ops = 0;
};

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

core::RunResult
runTraced(const workloads::WorkloadProfile &profile,
          const baselines::SystemOptions &options, SpanLog &log,
          TraceCounts &counts)
{
    using baselines::Mechanism;
    if (options.faultTypes != 0 || options.verifyStream) {
        throw std::invalid_argument(
            "traced runner: fault injection and stream verification "
            "are not traced");
    }

    // Opened first so it closes last: teardown of everything below is
    // part of the job's traced wall time.
    ScopedSpan job_span(log, Layer::kJob);

    const unsigned va_bits =
        options.pacBits <= 16 ? 46 : 62 - options.pacBits;
    const pa::PointerLayout layout(options.pacBits, va_bits);

    std::unique_ptr<pa::PaContext> pa;
    std::unique_ptr<memsim::MemorySystem> mem;
    std::unique_ptr<os::OsModel> os;
    std::unique_ptr<bounds::BoundsWayBuffer> bwb;
    std::unique_ptr<mcu::MemoryCheckUnit> mcu;
    std::unique_ptr<cpu::OoOCore> core;
    {
        ScopedSpan span(log, Layer::kCoreSetup);
        pa = std::make_unique<pa::PaContext>(layout);

        memsim::MemoryConfig mem_config;
        mem_config.useBoundsCache = options.usesAos() && options.useL1B;
        mem = std::make_unique<memsim::MemorySystem>(mem_config);

        if (options.usesAos()) {
            const unsigned records = options.boundsCompression
                                         ? bounds::kSlotsPerWay
                                         : bounds::kWideSlotsPerWay;
            os = std::make_unique<os::OsModel>(options.pacBits,
                                               options.initialHbtAssoc,
                                               records,
                                               os::FaultPolicy::kReport);
            bwb = std::make_unique<bounds::BoundsWayBuffer>(64);

            mcu::McuConfig mcu_config;
            mcu_config.useBwb = options.useBwb;
            mcu_config.boundsForwarding = options.boundsForwarding;
            mcu = std::make_unique<mcu::MemoryCheckUnit>(
                mcu_config, layout, &os->hbt(), bwb.get(), mem.get());
            os::OsModel *os_raw = os.get();
            mcu->onFault = [os_raw](mcu::FaultKind kind,
                                    const mcu::McqEntry &entry) {
                return os_raw->handleFault(kind, entry);
            };
        }

        cpu::CoreConfig core_config;
        core_config.codeFootprint = profile.codeFootprint;
        core_config.cancel = options.cancel;
        core = std::make_unique<cpu::OoOCore>(core_config, layout,
                                              mem.get(), mcu.get());
    }

    std::unique_ptr<workloads::SyntheticWorkload> workload;
    {
        ScopedSpan span(log, Layer::kWorkloads);
        workload = std::make_unique<workloads::SyntheticWorkload>(
            profile, options.measureOps, options.seedSalt);
    }

    std::unique_ptr<analysis::dataflow::ElisionPlan> bounds_plan;
    if (options.aosBoundsElision && options.usesAos()) {
        ScopedSpan span(log, Layer::kAnalysis);
        std::unique_ptr<workloads::SyntheticWorkload> analysis_copy;
        {
            ScopedSpan gen(log, Layer::kWorkloads);
            analysis_copy = std::make_unique<workloads::SyntheticWorkload>(
                profile, options.measureOps, options.seedSalt);
        }
        TimedStream copy_stream(analysis_copy.get(), log, Layer::kWorkloads);
        analysis::dataflow::DataflowEngine engine(layout);
        engine.run(copy_stream, options.cancel);
        bounds_plan = std::make_unique<analysis::dataflow::ElisionPlan>(
            analysis::dataflow::planBoundsElision(engine));
        counts.generatedOps += copy_stream.ops();
        counts.plan = bounds_plan->stats();
    }

    TimedStream source(workload.get(), log, Layer::kWorkloads);
    std::unique_ptr<compiler::PassManager> pipeline;
    compiler::OpCounter *counter = nullptr;
    compiler::AosElidePass *elide = nullptr;
    compiler::AosBoundsElidePass *belide = nullptr;
    {
        ScopedSpan span(log, Layer::kCompiler);
        pipeline = std::make_unique<compiler::PassManager>(&source);
        switch (options.mech) {
          case Mechanism::kBaseline:
            break;
          case Mechanism::kWatchdog:
            pipeline->add<compiler::WatchdogPass>();
            break;
          case Mechanism::kPa:
            pipeline->add<compiler::PaPass>(compiler::PaMode::kPaOnly);
            break;
          case Mechanism::kAos:
            pipeline->add<compiler::AosOptPass>();
            pipeline->add<compiler::AosBackendPass>(pa.get());
            if (bounds_plan) {
                belide = pipeline->add<compiler::AosBoundsElidePass>(
                    pa->layout(), bounds_plan.get());
            }
            break;
          case Mechanism::kPaAos:
            pipeline->add<compiler::AosOptPass>();
            pipeline->add<compiler::AosBackendPass>(pa.get());
            pipeline->add<compiler::PaPass>(compiler::PaMode::kPaAos);
            if (bounds_plan) {
                belide = pipeline->add<compiler::AosBoundsElidePass>(
                    pa->layout(), bounds_plan.get());
            }
            if (options.aosElision)
                elide = pipeline->add<compiler::AosElidePass>(pa->layout());
            break;
          case Mechanism::kAsan:
            throw std::invalid_argument(
                "traced runner: the ASan-style pipeline is not traced");
        }
        counter = pipeline->add<compiler::OpCounter>(pa->layout());
    }
    TimedStream stream(pipeline.get(), log, Layer::kCompiler);

    // Fast-forward: functional warm-up, one layer per pass over a block.
    std::vector<ir::MicroOp> buf(kBlock);
    std::vector<Addr> way_addrs;
    way_addrs.reserve(kBlock);
    std::unique_ptr<ir::CarryStream> carry;
    for (;;) {
        if (options.cancel)
            options.cancel->throwIfCancelled();
        const size_t n = stream.nextBatch(buf.data(), kBlock);
        if (n == 0) {
            throw std::runtime_error(
                "workload stream ended before the phase mark");
        }
        size_t mark = 0;
        while (mark < n && buf[mark].kind != ir::OpKind::kPhaseMark)
            ++mark;

        if (os) {
            ScopedSpan span(log, Layer::kBounds);
            auto &hbt = os->hbt();
            way_addrs.clear();
            for (size_t i = 0; i < mark; ++i) {
                const ir::MicroOp &op = buf[i];
                if (op.kind == ir::OpKind::kBndstr) {
                    const u64 pac = layout.pac(op.addr);
                    const Addr raw = layout.strip(op.addr);
                    auto way = hbt.insert(pac, bounds::compress(raw, op.size));
                    while (!way) {
                        if (!hbt.resizing())
                            hbt.beginResize();
                        hbt.finishResize();
                        way = hbt.insert(pac,
                                         bounds::compress(raw, op.size));
                    }
                    way_addrs.push_back(hbt.wayAddr(pac, *way));
                } else if (op.kind == ir::OpKind::kBndclr) {
                    hbt.clear(layout.pac(op.addr), layout.strip(op.addr));
                }
            }
        }
        {
            ScopedSpan span(log, Layer::kMemsim);
            size_t next_way = 0;
            for (size_t i = 0; i < mark; ++i) {
                const ir::MicroOp &op = buf[i];
                switch (op.kind) {
                  case ir::OpKind::kBndstr:
                    mem->boundsAccess(way_addrs[next_way++], true);
                    ++counts.ffMemAccesses;
                    break;
                  case ir::OpKind::kLoad:
                  case ir::OpKind::kWdMetaLoad:
                    mem->dataAccess(layout.strip(op.addr), false);
                    ++counts.ffMemAccesses;
                    break;
                  case ir::OpKind::kStore:
                  case ir::OpKind::kWdMetaStore:
                    mem->dataAccess(layout.strip(op.addr), true);
                    ++counts.ffMemAccesses;
                    break;
                  default:
                    break;
                }
            }
        }
        {
            ScopedSpan span(log, Layer::kCpuTrain);
            for (size_t i = 0; i < mark; ++i) {
                if (buf[i].kind == ir::OpKind::kBranch) {
                    core->observeBranch(buf[i].branchId, buf[i].taken);
                    ++counts.ffBranches;
                }
            }
        }
        if (mark < n) {
            carry = std::make_unique<ir::CarryStream>(
                std::vector<ir::MicroOp>(buf.begin() + mark + 1,
                                         buf.begin() + n),
                &stream);
            break;
        }
    }
    if (os)
        counts.ffHbt = os->hbt().stats();
    counts.ffL1d = mem->l1d().stats();
    if (mem->l1b())
        counts.ffL1b = mem->l1b()->stats();
    counts.ffL2 = mem->l2().stats();

    // Measured window, snapshotted exactly as AosSystem::run does.
    const ir::OpMixStats mix_before = counter->mixAtPhaseMark();
    const u64 traffic_before = mem->networkTraffic();
    const u64 dram_accesses_before = mem->dramAccesses();
    const u64 dram_writes_before = mem->dramWrites();
    const u64 lookups_before = core->predictor().stats().lookups;
    const u64 mispred_before = core->predictor().stats().mispredicts;
    {
        ScopedSpan span(log, Layer::kCpuRun);
        if (carry)
            core->run(*carry, 0);
        else
            core->run(stream, 0);
    }

    core::RunResult result;
    result.workload = profile.name;
    result.mech = options.mech;
    result.core = core->stats();
    result.networkTraffic = mem->networkTraffic() - traffic_before;
    result.dramAccesses = mem->dramAccesses() - dram_accesses_before;
    result.dramWrites = mem->dramWrites() - dram_writes_before;
    result.mix = mixDelta(counter->mix(), mix_before);
    if (mcu)
        result.mcuStats = mcu->stats();
    if (bwb)
        result.bwb = bwb->stats();
    if (os) {
        result.hbt = os->hbt().stats();
        result.violations = os->violationCount();
        result.resizes = result.hbt.resizes;
    }
    if (elide)
        result.elide = elide->stats();
    if (bounds_plan)
        result.belidePlan = bounds_plan->stats();
    if (belide)
        result.belide = belide->stats();
    counts.lookups = core->predictor().stats().lookups - lookups_before;
    counts.mispredicts =
        core->predictor().stats().mispredicts - mispred_before;
    result.branchMpki =
        result.core.committed
            ? 1000.0 * static_cast<double>(counts.mispredicts) /
                  static_cast<double>(result.core.committed)
            : 0.0;

    counts.srcOps = source.ops();
    counts.generatedOps += source.ops();
    counts.opsOut = stream.ops();
    counts.pacOps = counter->mix().pacOps;

    // Teardown, charged to the layer that owns each object.
    {
        ScopedSpan span(log, Layer::kCompiler);
        carry.reset();
        pipeline.reset();
    }
    {
        ScopedSpan span(log, Layer::kAnalysis);
        bounds_plan.reset();
    }
    {
        ScopedSpan span(log, Layer::kWorkloads);
        workload.reset();
    }
    {
        ScopedSpan span(log, Layer::kCoreSetup);
        core.reset();
        mcu.reset();
        bwb.reset();
        os.reset();
        mem.reset();
        pa.reset();
    }
    return result;
}

} // namespace aos::perfbench
