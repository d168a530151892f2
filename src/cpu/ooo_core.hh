/**
 * @file
 * The out-of-order core timing model (paper Table IV).
 *
 * A cycle-driven model of the mechanisms that determine AOS's relative
 * overhead: an 8-wide issue/commit machine with a 192-entry ROB,
 * 32-entry load and store queues, a TAGE branch predictor with a fixed
 * redirect penalty, the cache hierarchy of aos::memsim and, when
 * configured, the MCU of aos::mcu sitting next to the LSU:
 *
 *  - every load/store is enqueued in the MCQ when it issues, and an
 *    instruction can only issue when both the LSU and the MCQ have
 *    room (back-pressure, SV-A);
 *  - an instruction cannot retire until its MCQ entry reports Done
 *    (delayed retirement / precise exceptions, SIII-C4);
 *  - bndstr/bndclr issue directly to the MCU and commit only after
 *    their occupancy check, with the table write post-commit.
 *
 * The loop is event-driven: after a cycle in which nothing commits,
 * issues or steps in the MCU, run() jumps to the next cycle in which
 * something can change (the ROB head completes, an MCQ entry wakes or
 * a fetch redirect ends). The stall counters are credited for every
 * skipped cycle, so all statistics equal a cycle-by-cycle run's.
 *
 * Register dependencies are not tracked (workload streams carry no
 * dataflow); memory latency exerts pressure through ROB occupancy, as
 * in other bandwidth-limit models. This keeps absolute IPC optimistic
 * but preserves the relative effects the paper measures: extra
 * instruction bandwidth, delayed retirement, cache pollution, and MCQ
 * back-pressure (which also dampens wrong-path speculation — the
 * paper's explanation for the small speedups on milc/namd/gobmk/astar).
 */

#ifndef AOS_CPU_OOO_CORE_HH
#define AOS_CPU_OOO_CORE_HH

#include <vector>

#include "cpu/tage.hh"
#include "ir/micro_op.hh"
#include "mcu/memory_check_unit.hh"
#include "memsim/memory_system.hh"
#include "pa/pointer_layout.hh"

namespace aos {
class CancelToken;
}

namespace aos::cpu {

/** Core configuration (Table IV defaults). */
struct CoreConfig
{
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned robEntries = 192;
    unsigned lqEntries = 32;
    unsigned sqEntries = 32;
    Cycles mispredictPenalty = 12;
    Cycles pacLatency = 4;  //!< pacma/pacia/autia (Table IV).
    Cycles stripLatency = 1;//!< xpacm / autm.
    Cycles fpLatency = 3;
    u64 codeFootprint = 16 * 1024; //!< Synthetic instruction footprint.

    /**
     * Polled in run() whenever the clock crosses a multiple of 1024
     * cycles, also by an idle-cycle jump; raises CancelledException
     * at that cancellation point so a shutdown request preempts a
     * simulation at op granularity. Null disables (not owned).
     */
    const CancelToken *cancel = nullptr;
};

/** Aggregate run statistics. */
struct CoreStats
{
    u64 cycles = 0;
    u64 committed = 0;      //!< All committed micro-ops.
    u64 loads = 0;
    u64 stores = 0;
    u64 branches = 0;
    u64 mispredicts = 0;
    u64 robFullStalls = 0;  //!< Issue slots lost to a full ROB.
    u64 lsqFullStalls = 0;
    u64 mcqFullStalls = 0;  //!< Back-pressure from the MCU.
    u64 retireDelayed = 0;  //!< Commit slots lost waiting on the MCQ.

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committed) / cycles : 0.0;
    }
};

class OoOCore
{
  public:
    /**
     * @param config Core parameters.
     * @param layout Pointer layout (to strip metadata for cache index).
     * @param mem Cache hierarchy (not owned).
     * @param mcu MCU, or nullptr for configurations without AOS.
     */
    OoOCore(const CoreConfig &config, pa::PointerLayout layout,
            memsim::MemorySystem *mem, mcu::MemoryCheckUnit *mcu);

    /**
     * Run @p stream until this call has issued @p max_ops micro-ops
     * (0 = until the stream ends) and the machine drains. The core may
     * run again on the same or another stream; its statistics
     * accumulate across calls. Returns the accumulated statistics.
     */
    const CoreStats &run(ir::InstStream &stream, u64 max_ops = 0);

    const CoreStats &stats() const { return _stats; }
    const Tage &predictor() const { return _tage; }

    /** Train the predictor during functional fast-forward. */
    void
    observeBranch(u32 branch_id, bool taken)
    {
        const Addr pc = 0x400000 + static_cast<Addr>(branch_id) * 4;
        _tage.resolve(pc, taken);
    }

  private:
    struct RobEntry
    {
        u64 seq = 0;
        ir::OpKind kind = ir::OpKind::kIntAlu;
        Tick doneAt = 0;
        bool isLoad = false;
        bool isStore = false;
        bool inMcq = false;
    };

    bool issueOne(const ir::MicroOp &op, Tick now);
    /** Retire up to commitWidth ops; true if any retired. */
    bool commit(Tick now);
    Cycles execLatency(const ir::MicroOp &op, Tick now);
    /**
     * The first cycle after idle cycle @p now at which something can
     * change, or now + 1 when no event is pending.
     */
    Tick nextEvent(Tick now, bool can_issue) const;

    bool robFull() const { return _robCount >= _config.robEntries; }
    const RobEntry &robHead() const { return _rob[_robHead]; }

    CoreConfig _config;
    pa::PointerLayout _layout;
    memsim::MemorySystem *_mem;
    mcu::MemoryCheckUnit *_mcu;
    Tage _tage;

    // The ROB: a ring of robEntries (rounded up to a power of two)
    // slots, oldest at _robHead.
    std::vector<RobEntry> _rob;
    u32 _robHead = 0;
    u32 _robCount = 0;
    u32 _robMask = 0;
    unsigned _loadsInFlight = 0;
    unsigned _storesInFlight = 0;
    u64 _nextSeq = 1;
    Tick _fetchBlockedUntil = 0;
    Tick _mcqStallCooldownUntil = 0;
    Addr _fetchPc = 0x400000;
    unsigned _fetchedInLine = 0;

    CoreStats _stats;
};

} // namespace aos::cpu

#endif // AOS_CPU_OOO_CORE_HH
