/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call across a layer boundary: {layer, start, end,
 * parent, job}. Spans nest through an open-span stack, so a pull from
 * the pass pipeline (compiler) that in turn pulls from the generator
 * (workloads) records the generator span as its child. A layer's self
 * time is its spans' durations minus the part covered by child spans.
 *
 * Spans are taken per block of micro-ops, never per op, and are kept in
 * memory until the sweep ends. One SpanLog belongs to one job and is
 * only touched by the worker thread running that job.
 */

#ifndef AOS_PERFBENCH_SPANS_HH
#define AOS_PERFBENCH_SPANS_HH

#include <time.h>

#include <array>
#include <vector>

#include "common/types.hh"

namespace aos::perfbench {

/** Layers the traced runner attributes host time to (module names). */
enum class Layer : u8
{
    kJob,       //!< Root span of one job; its self time is unattributed.
    kCoreSetup, //!< PaContext, MemorySystem, OsModel/HBT, BWB, MCU, core.
    kWorkloads, //!< SyntheticWorkload construction and generation.
    kCompiler,  //!< Pass pipeline construction and pulls (incl. QARMA).
    kAnalysis,  //!< DataflowEngine::run + planBoundsElision.
    kBounds,    //!< Fast-forward HBT inserts, resizes and clears.
    kMemsim,    //!< Fast-forward functional cache accesses.
    kCpuTrain,  //!< Fast-forward branch-predictor training.
    kCpuRun,    //!< OoOCore::run (MCU, HBT lookups, memsim, TAGE inside).
    kNumLayers,
};

inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kNumLayers);

inline const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::kJob: return "job";
      case Layer::kCoreSetup: return "core.setup";
      case Layer::kWorkloads: return "workloads";
      case Layer::kCompiler: return "compiler";
      case Layer::kAnalysis: return "analysis";
      case Layer::kBounds: return "bounds";
      case Layer::kMemsim: return "memsim";
      case Layer::kCpuTrain: return "cpu.train";
      case Layer::kCpuRun: return "cpu.run";
      case Layer::kNumLayers: break;
    }
    return "?";
}

/** CLOCK_MONOTONIC in ns: comparable with other processes' readings. */
inline u64
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<u64>(ts.tv_nsec);
}

struct Span
{
    static constexpr u32 kNoParent = ~0u;

    u64 start = 0;
    u64 end = 0;
    u32 parent = kNoParent; //!< Index of the enclosing span.
    Layer layer = Layer::kJob;
};

class SpanLog
{
  public:
    explicit SpanLog(u32 job = 0) : _job(job) {}

    void
    open(Layer layer)
    {
        const u32 parent = _open.empty() ? Span::kNoParent : _open.back();
        _open.push_back(static_cast<u32>(_spans.size()));
        _spans.push_back({monoNs(), 0, parent, layer});
    }

    void
    close()
    {
        _spans[_open.back()].end = monoNs();
        _open.pop_back();
    }

    /** Self time per layer, ns: span durations minus child spans. */
    std::array<double, kNumLayers>
    selfNs() const
    {
        std::array<double, kNumLayers> self{};
        for (const Span &s : _spans) {
            const double dur = static_cast<double>(s.end - s.start);
            self[static_cast<size_t>(s.layer)] += dur;
            if (s.parent != Span::kNoParent)
                self[static_cast<size_t>(_spans[s.parent].layer)] -= dur;
        }
        return self;
    }

    /** Summed duration of the root spans, ns. */
    double
    rootNs() const
    {
        double total = 0;
        for (const Span &s : _spans) {
            if (s.parent == Span::kNoParent)
                total += static_cast<double>(s.end - s.start);
        }
        return total;
    }

    u32 job() const { return _job; }
    const std::vector<Span> &spans() const { return _spans; }

  private:
    u32 _job;
    std::vector<Span> _spans;
    std::vector<u32> _open;
};

/** Opens a span on construction and closes it on scope exit. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, Layer layer) : _log(log) { _log.open(layer); }
    ~ScopedSpan() { _log.close(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &_log;
};

} // namespace aos::perfbench

#endif // AOS_PERFBENCH_SPANS_HH
