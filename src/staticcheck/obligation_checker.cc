#include "staticcheck/obligation_checker.hh"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/random.hh"

namespace aos::staticcheck {

namespace {

/**
 * Tracks which chunk instance is current per base while replaying a
 * lowered stream, mirroring the generation bookkeeping of the
 * DataflowEngine and AosBoundsElidePass. Membership in the elided set
 * persists past the chunk's free (the full stream's free quadruple and
 * any use-after-free access must still attribute to the instance) and
 * resets at the base's next allocation.
 */
class InstanceCursor
{
  public:
    explicit InstanceCursor(const analysis::dataflow::ElisionPlan &plan)
        : _plan(plan)
    {
    }

    void
    step(const ir::MicroOp &op)
    {
        if (op.chunkBase == 0)
            return;
        if (op.kind == ir::OpKind::kMallocMark) {
            const u32 gen = ++_gen[op.chunkBase];
            _open[op.chunkBase] = op.size;
            if (_plan.elided(op.chunkBase, gen))
                _elided.insert(op.chunkBase);
            else
                _elided.erase(op.chunkBase);
        } else if (op.kind == ir::OpKind::kFreeMark) {
            _open.erase(op.chunkBase);
        }
    }

    bool elided(Addr base) const { return _elided.count(base) != 0; }

    u32
    gen(Addr base) const
    {
        auto it = _gen.find(base);
        return it == _gen.end() ? 0 : it->second;
    }

    bool
    inChunk(Addr base, Addr addr) const
    {
        auto it = _open.find(base);
        return it != _open.end() && addr >= base &&
               addr < base + it->second;
    }

  private:
    const analysis::dataflow::ElisionPlan &_plan;
    std::unordered_map<Addr, u32> _gen;
    std::unordered_map<Addr, u64> _open;
    std::unordered_set<Addr> _elided;
};

/** Chunk attribution of one op: explicit provenance, else raw VA. */
Addr
attributionBase(const ir::MicroOp &op, const pa::PointerLayout &layout)
{
    return op.chunkBase != 0 ? op.chunkBase : layout.strip(op.addr);
}

/** Phase 3's schedule: this many faults of each class, from this seed. */
constexpr unsigned kFaultsPerType = 4;
constexpr u64 kFaultSeed = 0xa05b0071u;

/**
 * Injects phase 3's pointer faults into one replay and judges each one
 * against PA+AOS at fire time, asking the replay's own HBT what the
 * MCU would see. The schedule is a pure function of the op window:
 * every fault draws its parameters a, b and then its trigger from one
 * seeded Rng, class by class, and the triggers are stably sorted. A
 * fault due at a shared op waits in a FIFO for the next signed autm,
 * load or store, which it corrupts in place.
 */
class PointerFaultInjector
{
  public:
    PointerFaultInjector(const pa::PointerLayout &layout, u64 op_window,
                         const bounds::HashedBoundsTable &hbt,
                         const InstanceCursor &cursor)
        : _layout(layout), _hbt(hbt), _cursor(cursor)
    {
        Rng rng(kFaultSeed ^ 0xfa017'1d3ec7ull);
        const u64 window = std::max<u64>(op_window, 1);
        for (unsigned t = 0; t < kNumPointerFaults; ++t) {
            for (unsigned i = 0; i < kFaultsPerType; ++i) {
                Fault fault;
                fault.type = static_cast<PointerFault>(t);
                fault.a = rng.next();
                fault.b = rng.next();
                fault.at = rng.below(window);
                _schedule.push_back(fault);
            }
        }
        std::stable_sort(_schedule.begin(), _schedule.end(),
                         [](const Fault &x, const Fault &y) {
                             return x.at < y.at;
                         });
    }

    /** Arm the faults due at shared op @p index; maybe corrupt @p op. */
    void
    onOp(u64 index, ir::MicroOp &op)
    {
        while (_next < _schedule.size() && _schedule[_next].at <= index)
            _pending.push_back(_schedule[_next++]);
        if (_pending.empty() || !eligibleVictim(op))
            return;
        const Fault fault = _pending.front();
        _pending.pop_front();

        const Addr original = op.addr;
        bool detected = false;
        if (fault.type == PointerFault::kPacFlip) {
            const auto bit =
                static_cast<unsigned>(fault.a % (_layout.pacSize() + 2));
            op.addr = _layout.flipMetaBit(original, bit);
            detected = detectsMetaFlip(original, op.addr,
                                       op.kind == ir::OpKind::kAutm);
        } else {
            // Flip within the 33-bit span the bounds compression
            // covers; higher VA bits never hold heap addresses here.
            const auto bit = static_cast<unsigned>(fault.b % 33);
            op.addr = _layout.flipVaBit(original, bit);
            detected = detectsVaFlip(op.addr, op.chunkBase);
        }
        const auto t = static_cast<unsigned>(fault.type);
        ++_stats.injected[t];
        if (detected)
            ++_stats.detected[t];
    }

    const PointerFaultStats &stats() const { return _stats; }

  private:
    struct Fault
    {
        PointerFault type = PointerFault::kPacFlip;
        u64 at = 0; //!< Shared-op ordinal the fault is armed at.
        u64 a = 0;  //!< Metadata bit draw (kPacFlip).
        u64 b = 0;  //!< VA bit draw (kVaFlip).
    };

    /** Signed pointers only: an autm right after the pointer's load
     *  meets the corruption before any dereference. */
    bool
    eligibleVictim(const ir::MicroOp &op) const
    {
        return (op.kind == ir::OpKind::kAutm ||
                op.kind == ir::OpKind::kLoad ||
                op.kind == ir::OpKind::kStore) &&
               _layout.signed_(op.addr);
    }

    bool
    detectsMetaFlip(Addr original, Addr corrupt, bool autm_op) const
    {
        // The AHC was cleared: the pointer now looks unsigned and the
        // MCU skips its check. Only autm catches the stripped signature.
        if (!_layout.signed_(corrupt))
            return autm_op;
        // AHC-only change with the AHC still nonzero: the AHC feeds way
        // prediction, not correctness.
        if (_layout.pac(corrupt) == _layout.pac(original))
            return false;
        // Wrong PAC: the check runs against the wrong HBT row, and
        // passes silently only on a PAC collision there.
        return !_hbt.check(_layout.pac(corrupt), _layout.strip(corrupt), 0,
                           nullptr);
    }

    bool
    detectsVaFlip(Addr corrupt, Addr chunk_base) const
    {
        // Still inside the object: sub-object corruption is invisible
        // to every bounds mechanism.
        const Addr raw = _layout.strip(corrupt);
        if (chunk_base && _cursor.inChunk(chunk_base, raw))
            return false;
        return !_hbt.check(_layout.pac(corrupt), raw, 0, nullptr);
    }

    const pa::PointerLayout &_layout;
    const bounds::HashedBoundsTable &_hbt;
    const InstanceCursor &_cursor;
    std::vector<Fault> _schedule; //!< Sorted by trigger.
    size_t _next = 0;             //!< First schedule entry not yet armed.
    std::deque<Fault> _pending;   //!< Armed, waiting for a victim.
    PointerFaultStats _stats;
};

} // namespace

const char *
pointerFaultName(PointerFault fault)
{
    return fault == PointerFault::kPacFlip ? "ptr_pac_flip" : "ptr_va_flip";
}

std::string
ObligationReport::summary() const
{
    std::ostringstream os;
    os << (ok ? "OK" : "FAIL") << ": " << obligationsChecked
       << " obligations, " << obligationsViolated << " violated; benign "
       << (benignParity ? "parity" : "MISMATCH") << " (full "
       << fullStats.detections() << " vs elided "
       << elidedStats.detections() << " detections)";
    if (faultsChecked) {
        os << "; faults " << (faultParity ? "parity" : "MISMATCH")
           << " (detected " << fullFaultStats.totalDetected()
           << " full vs " << elidedFaultStats.totalDetected()
           << " elided, " << victimsInElidedRegions
           << " victims in elided regions)";
    }
    return os.str();
}

ObligationChecker::ObligationChecker(ObligationCheckOptions options)
    : _options(options)
{
}

ObligationReport
ObligationChecker::check(const std::vector<ir::MicroOp> &full,
                         const std::vector<ir::MicroOp> &elided,
                         const analysis::dataflow::ElisionPlan &plan)
{
    ObligationReport report;

    // Phase 1: benign detection parity.
    {
        StreamExecutor full_exec(_options.layout);
        StreamExecutor elided_exec(_options.layout);
        report.fullStats = full_exec.run(full);
        report.elidedStats = elided_exec.run(elided);
        report.benignParity =
            report.elidedStats.sameDetections(report.fullStats);
        if (!report.benignParity) {
            std::ostringstream os;
            os << "detection profile changed: full(auth="
               << report.fullStats.authFailures
               << " bounds=" << report.fullStats.boundsViolations
               << " clear=" << report.fullStats.clearFailures
               << ") vs elided(auth=" << report.elidedStats.authFailures
               << " bounds=" << report.elidedStats.boundsViolations
               << " clear=" << report.elidedStats.clearFailures << ")";
            report.failures.push_back(os.str());
        }
    }

    // Phase 2: obligation replay against the ground-truth executor.
    replayObligations(full, plan, report);

    // Phase 3: pointer-fault replay.
    if (_options.checkFaults && !full.empty() && !elided.empty())
        replayFaults(full, elided, plan, report);

    report.ok = report.benignParity && report.obligationsViolated == 0 &&
                (!report.faultsChecked || report.faultParity);
    return report;
}

void
ObligationChecker::replayObligations(
    const std::vector<ir::MicroOp> &full,
    const analysis::dataflow::ElisionPlan &plan, ObligationReport &report)
{
    report.obligationsChecked = plan.obligations().size();

    StreamExecutor exec(_options.layout);
    InstanceCursor cursor(plan);
    std::unordered_set<Addr> violated_bases;
    u64 violated = 0;

    for (const ir::MicroOp &op : full) {
        cursor.step(op);
        const u64 before = exec.stats().detections();
        exec.step(op);
        if (exec.stats().detections() == before)
            continue;
        // The ground truth raised a detection on this op. If the op
        // attributes to an elided instance, the check the pass removed
        // was the one that fired: that obligation's proof is wrong.
        const Addr base = attributionBase(op, _options.layout);
        if (cursor.elided(base) && violated_bases.insert(base).second) {
            ++violated;
            if (report.failures.size() < 16) {
                std::ostringstream os;
                os << "obligation violated: chunk 0x" << std::hex << base
                   << std::dec << " gen " << cursor.gen(base)
                   << " raised a detection (" << ir::opKindName(op.kind)
                   << ") despite being elided";
                report.failures.push_back(os.str());
            }
        }
    }
    report.obligationsViolated = violated;
}

void
ObligationChecker::replayFaults(const std::vector<ir::MicroOp> &full,
                                const std::vector<ir::MicroOp> &elided,
                                const analysis::dataflow::ElisionPlan &plan,
                                ObligationReport &report)
{
    report.faultsChecked = true;

    // Fault exposure must hit the SAME victims in both runs, or victim
    // shift (a fault sliding past a removed op onto a different signed
    // access) makes the comparison meaningless. The elided stream is
    // the full stream minus dropped ops, with elided-chunk accesses
    // stripped, so a greedy subsequence match recovers the ops that are
    // bit-identical in both streams; only those are exposed to the
    // injector, indexed by their shared ordinal. Both replays then
    // schedule identical faults onto identical victims, and the only
    // remaining difference is the HBT contents — the elided table holds
    // a subset of the full run's records, so detections are monotone.
    // (Faults on elided-region ops have no elided counterpart at all:
    // the pointer is never signed there, which phase 2 and the SC16
    // verifier contract already police.)
    auto same_op = [](const ir::MicroOp &a, const ir::MicroOp &b) {
        return a.kind == b.kind && a.addr == b.addr &&
               a.chunkBase == b.chunkBase && a.size == b.size &&
               a.taken == b.taken && a.loadsPointer == b.loadsPointer;
    };
    std::vector<std::pair<size_t, size_t>> shared; // (full, elided) idx
    for (size_t i = 0, j = 0; i < full.size() && j < elided.size(); ++i) {
        if (same_op(full[i], elided[j])) {
            shared.push_back({i, j});
            ++j;
            continue;
        }
        ir::MicroOp stripped = full[i];
        stripped.addr = _options.layout.strip(full[i].addr);
        if (same_op(stripped, elided[j]))
            ++j; // present but stripped: corresponding, not shared
        // else: dropped from the elided stream; consume full[i] only.
    }

    struct FaultRun
    {
        PointerFaultStats stats;
        u64 victimsInElided = 0;
    };

    auto replay = [&](const std::vector<ir::MicroOp> &stream,
                      bool use_full_index) {
        StreamExecutor exec(_options.layout);
        InstanceCursor cursor(plan);
        PointerFaultInjector injector(_options.layout, shared.size(),
                                      exec.hbt(), cursor);

        FaultRun run;
        size_t s = 0;
        for (size_t i = 0; i < stream.size(); ++i) {
            const ir::MicroOp &op = stream[i];
            cursor.step(op);
            ir::MicroOp mutated = op;
            const size_t here =
                s < shared.size()
                    ? (use_full_index ? shared[s].first : shared[s].second)
                    : stream.size();
            if (i == here) {
                injector.onOp(s, mutated);
                ++s;
            }
            if (mutated.addr != op.addr &&
                cursor.elided(attributionBase(op, _options.layout))) {
                ++run.victimsInElided;
            }
            exec.step(mutated);
        }
        run.stats = injector.stats();
        return run;
    };

    const FaultRun full_run = replay(full, true);
    const FaultRun elided_run = replay(elided, false);

    report.fullFaultStats = full_run.stats;
    report.elidedFaultStats = elided_run.stats;
    report.victimsInElidedRegions = elided_run.victimsInElided;

    bool ok = true;
    if (report.victimsInElidedRegions != 0) {
        ok = false;
        report.failures.push_back(
            "pointer fault struck an op inside an elided region: the "
            "pass left a signed access uninstrumented checks relied on");
    }
    for (unsigned t = 0; t < kNumPointerFaults; ++t) {
        if (elided_run.stats.detected[t] >= full_run.stats.detected[t])
            continue;
        ok = false;
        std::ostringstream os;
        os << "lost fault detections for "
           << pointerFaultName(static_cast<PointerFault>(t))
           << ": full detected " << full_run.stats.detected[t]
           << ", elided detected " << elided_run.stats.detected[t];
        report.failures.push_back(os.str());
    }
    report.faultParity = ok;
}

} // namespace aos::staticcheck
