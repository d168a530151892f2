/**
 * @file
 * Trace record/replay round trip: the reproducibility workflow.
 *
 * Records a workload's instrumented micro-op stream to a binary trace,
 * then replays the trace through a *fresh* machine and verifies the
 * simulation is cycle-for-cycle identical — the property that lets a
 * measurement be archived and re-examined later (or on another
 * machine) without the generator.
 *
 * Usage:  ./build/examples/trace_roundtrip [workload] [ops] [file]
 */

#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "core/aos_system.hh"
#include "cpu/ooo_core.hh"
#include "ir/trace.hh"
#include "workloads/synthetic_workload.hh"

using namespace aos;

namespace {

/** Skip warmup ops; the measured window starts at the phase mark. */
class MeasuredWindow : public ir::InstStream
{
  public:
    explicit MeasuredWindow(ir::InstStream *source) : _source(source) {}

    bool
    next(ir::MicroOp &op) override
    {
        while (_source->next(op)) {
            if (_started && op.kind != ir::OpKind::kPhaseMark)
                return true;
            if (op.kind == ir::OpKind::kPhaseMark)
                _started = true;
        }
        return false;
    }

  private:
    ir::InstStream *_source;
    bool _started = false;
};

cpu::CoreStats
simulate(ir::InstStream &stream)
{
    memsim::MemorySystem mem;
    cpu::OoOCore core(cpu::CoreConfig{}, pa::PointerLayout(16, 46), &mem,
                      nullptr);
    return core.run(stream);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *workload = argc > 1 ? argv[1] : "gobmk";
    const u64 ops = argc > 2 ? std::strtoull(argv[2], nullptr, 0)
                             : 200'000;
    const std::string path =
        argc > 3 ? argv[3] : "/tmp/aos_roundtrip.trc";

    std::printf("== trace round trip: %s, %lu ops ==\n\n", workload,
                static_cast<unsigned long>(ops));

    // 1. Record the instrumented stream (AOS pipeline) to disk.
    pa::PaContext pa_ctx;
    workloads::SyntheticWorkload source(
        workloads::profileByName(workload), ops);
    const auto chain =
        core::instrument(&source, baselines::Mechanism::kAos, &pa_ctx);
    MeasuredWindow window(chain.passes.get());
    {
        ir::TraceWriter writer(path);
        ir::RecordingStream recorder(&window, &writer);
        const cpu::CoreStats live = simulate(recorder);
        writer.close(); // flush before replaying
        std::printf("live run:    %12lu ops, %12lu cycles "
                    "(trace: %lu records)\n",
                    live.committed, live.cycles,
                    static_cast<unsigned long>(writer.count()));

        // 2. Replay the trace through a fresh machine.
        ir::TraceReader reader(path);
        const cpu::CoreStats replay = simulate(reader);
        std::printf("trace replay:%12lu ops, %12lu cycles\n",
                    replay.committed, replay.cycles);

        const bool identical = live.cycles == replay.cycles &&
                               live.committed == replay.committed &&
                               live.mispredicts == replay.mispredicts;
        std::printf("\nround trip %s\n",
                    identical ? "IDENTICAL — measurement is archival"
                              : "DIVERGED (bug!)");
        std::remove(path.c_str());
        return identical ? 0 : 1;
    }
}
