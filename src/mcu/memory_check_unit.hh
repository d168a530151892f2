/**
 * @file
 * The memory check unit (MCU) of paper SV-A: a memory check queue
 * (MCQ) whose entries run the two finite state machines of Fig. 8,
 * plus the way-prediction (BWB), bounds forwarding, store-load replay
 * and non-blocking HBT resizing of SV-C/E/F.
 *
 * Every memory instruction issued to the LSU is also enqueued here
 * (paper: "an instruction can be issued when both the LSU and the MCU
 * are not full" — the full() predicate provides that back-pressure).
 * Unsigned pointers complete immediately; signed pointers perform
 * bounds checking against the HBT, loading one 64-byte way line at a
 * time through the cache hierarchy and checking its eight records in
 * parallel.
 *
 * bndstr/bndclr are issued directly to the MCU. Their occupancy check
 * runs speculatively, but the table mutation is applied only once the
 * instruction has committed from the ROB, preserving store ordering;
 * committing a mutation replays younger same-PAC entries (SV-E).
 *
 * Failures (bounds-check miss, bndclr of absent bounds, bndstr into a
 * full row) raise an AosFault when the entry reaches the MCQ head; the
 * OS model decides whether to resize (bndstr) or report a violation.
 */

#ifndef AOS_MCU_MEMORY_CHECK_UNIT_HH
#define AOS_MCU_MEMORY_CHECK_UNIT_HH

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "bounds/bounds_way_buffer.hh"
#include "bounds/hashed_bounds_table.hh"
#include "ir/micro_op.hh"
#include "memsim/memory_system.hh"
#include "pa/pointer_layout.hh"

namespace aos::mcu {

/** FSM states (paper Fig. 8). */
enum class McqState : u8
{
    kInit,
    kOccChk,
    kBndChk,
    kBndStr,
    kIncCnt,
    kFail,
    kDone,
};

/** What kind of operation an MCQ entry tracks. */
enum class McqType : u8
{
    kLoadCheck,
    kStoreCheck,
    kBndstr,
    kBndclr,
};

/** Why an entry faulted. */
enum class FaultKind : u8
{
    kNone,
    kBoundsViolation, //!< Load/store outside every bounds record.
    kClearFailure,    //!< bndclr found nothing: double/invalid free.
    kStoreOverflow,   //!< bndstr found the row full: resize needed.
};

/** One in-flight MCQ entry (fields of paper SV-A1). */
struct McqEntry
{
    McqType type = McqType::kLoadCheck;
    McqState state = McqState::kInit;
    FaultKind fault = FaultKind::kNone;
    Addr addr = 0;      //!< Signed pointer address.
    Addr rawAddr = 0;   //!< Stripped address.
    u64 pac = 0;
    u64 ahc = 0;
    u64 size = 0;       //!< Allocation size (bndstr).
    bounds::Compressed bndData = 0; //!< Record to store (bndstr).
    Addr bndAddr = 0;   //!< Current way-line address.
    unsigned way = 0;   //!< Way being examined.
    unsigned count = 0; //!< Ways examined so far.
    bool committed = false; //!< Retired from the ROB.
    bool signedPtr = false;
    bool forwarded = false;
    bool started = false;   //!< Way access issued for the current state.
    bool counted = false;   //!< Entry tallied in checked/unchecked stats.
    u64 seq = 0;        //!< Program-order sequence number.
    Tick readyAt = 0;   //!< Pending memory access completes here.
    unsigned waysTouched = 0;

    /**
     * Reset the FSM for a retry of the walk (replay after a committed
     * mutation, fault-handler restart, head restart after an HBT
     * resize). Clears exactly the FSM-progress fields — state, way
     * cursor, fault, forwarding and in-flight-access flags — while
     * preserving the entry's identity (seq/addr/pac), commit status
     * and accounting (counted, waysTouched). @p ready_at is the
     * earliest tick the retried walk may issue.
     */
    void
    resetForRetry(Tick ready_at)
    {
        state = McqState::kInit;
        fault = FaultKind::kNone;
        way = 0;
        count = 0;
        forwarded = false;
        started = false;
        readyAt = ready_at;
    }
};

/** MCU statistics (feeds Fig. 16/17 and the ablations). */
struct McuStats
{
    u64 enqueued = 0;
    u64 uncheckedOps = 0;   //!< Unsigned pointers: no bounds checking.
    u64 checkedOps = 0;     //!< Signed loads/stores bounds-checked.
    u64 boundsLineLoads = 0;//!< 64-byte way-line reads issued.
    u64 boundsStores = 0;   //!< Way-line writes (bndstr/bndclr commit).
    u64 forwards = 0;       //!< Checks satisfied by bounds forwarding.
    u64 replays = 0;        //!< Store-load replays triggered.
    u64 boundsFailures = 0;
    u64 clearFailures = 0;
    u64 storeOverflows = 0;
    u64 waysTouchedTotal = 0;

    double
    avgWaysPerCheck() const
    {
        return checkedOps
                   ? static_cast<double>(waysTouchedTotal) / checkedOps
                   : 0.0;
    }
};

/** MCU configuration (Table IV: 48 MCQ entries). */
struct McuConfig
{
    unsigned mcqEntries = 48;
    unsigned boundsPortsPerCycle = 1; //!< Way accesses started per cycle (one L1-B read port).
    bool boundsForwarding = true;     //!< SV-F2 optimization.
    bool useBwb = true;               //!< SV-C way prediction.
    unsigned migrationRowsPerCycle = 4; //!< Table-manager bandwidth.
    bool chargeMigrationTraffic = true;
};

class MemoryCheckUnit
{
  public:
    MemoryCheckUnit(const McuConfig &config,
                    const pa::PointerLayout &layout,
                    bounds::HashedBoundsTable *hbt,
                    bounds::BoundsWayBuffer *bwb,
                    memsim::MemorySystem *mem);

    /** Issue back-pressure: no room for another entry. */
    bool
    full() const
    {
        return _count >= _config.mcqEntries;
    }

    bool empty() const { return _count == 0; }

    /**
     * Enqueue a load/store (checked iff its pointer is signed) or a
     * bndstr/bndclr. @p seq must be strictly increasing program order.
     * Returns false when the queue is full.
     */
    bool enqueue(ir::OpKind kind, Addr addr, u64 size, u64 seq, Tick now);

    /** The ROB retired instruction @p seq (sets Committed). */
    void markCommitted(u64 seq);

    /**
     * Advance all entry FSMs by one cycle. Returns true if the cycle
     * changed any state: an entry stepped, the head fault handler ran
     * or the HBT migrated rows. After a false return nothing changes
     * before nextWake(), unless the queue is enqueued to, committed
     * to or drained.
     */
    bool tick(Tick now);

    /** Tick value meaning "no time-driven work pending". */
    static constexpr Tick kNever = ~Tick{0};

    /**
     * A lower bound on the next tick at which tick() steps an entry
     * (kNever when none is armed). Exact after a tick() that walked
     * the queue.
     */
    Tick nextWake() const { return _minWake; }

    /**
     * True when the ROB may retire @p seq: checks must be Done;
     * bndstr/bndclr must have passed their occupancy check (BndStr or
     * Done). Entries not in the MCQ are trivially retirable.
     */
    bool readyToRetire(u64 seq) const;

    /** True when entry @p seq ended in the Fail state. */
    bool faulted(u64 seq, FaultKind *kind = nullptr) const;

    /**
     * Drop completed (Done + Committed) entries from the head. Returns
     * true if any entry left.
     */
    bool drainRetired();

    /**
     * Handle a bndstr overflow at the head of the queue: the OS
     * resizes the HBT and the entry restarts. Called by the fault
     * handler installed via onStoreOverflow.
     */
    void restartHead();

    /**
     * Invoked when the head entry faults. Receives the fault kind and
     * the entry; return true if the fault was handled (entry restarts,
     * e.g. after an HBT resize), false to let it stand as a violation.
     */
    std::function<bool(FaultKind, const McqEntry &)> onFault;

    const McuStats &stats() const { return _stats; }
    size_t occupancy() const { return _count; }

  private:
    /**
     * Ring slots. One u64 mask covers every slot, which bounds the
     * MCQ at 64 entries (Table IV's is 48).
     */
    static constexpr u32 kRingSlots = 64;
    static constexpr u32 kSlotMask = kRingSlots - 1;

    void stepEntry(McqEntry &entry, Tick now, unsigned &ports);
    void startWayAccess(McqEntry &entry, Tick now);
    bool tryForward(McqEntry &entry);
    /** Older same-PAC bndstr whose occupancy check is unresolved. */
    bool hasPendingOlderBndstr(const McqEntry &entry) const;
    void finishCheck(McqEntry &entry, bool found, unsigned found_way);
    void commitMutation(McqEntry &entry, Tick now);
    void replayYounger(const McqEntry &from);
    McqEntry *find(u64 seq);
    const McqEntry *find(u64 seq) const;

    /** Ring slot of the @p i-th oldest entry. */
    u32 slotOf(u32 i) const { return (_headSlot + i) & kSlotMask; }

    /**
     * Set @p slot's wake tick, keeping the armed mask and the wake
     * lower bound in step with it.
     */
    void
    arm(u32 slot, Tick wake)
    {
        _wake[slot] = wake;
        if (wake == kNever) {
            _armed &= ~(u64{1} << slot);
        } else {
            _armed |= u64{1} << slot;
            _minWake = std::min(_minWake, wake);
        }
    }

    /**
     * Earliest tick @p entry needs stepping again. Terminal states and
     * commit-gated states have no time-driven work: they are woken
     * explicitly (markCommitted, replayYounger, the head-fault
     * handler), so the per-cycle scan can skip them entirely.
     */
    Tick
    wakeOf(const McqEntry &entry) const
    {
        switch (entry.state) {
          case McqState::kDone:
          case McqState::kFail:
            return kNever;
          case McqState::kBndStr:
            return entry.committed ? entry.readyAt : kNever;
          default:
            return entry.readyAt;
        }
    }

    McuConfig _config;
    pa::PointerLayout _layout;
    bounds::HashedBoundsTable *_hbt;
    bounds::BoundsWayBuffer *_bwb;
    memsim::MemorySystem *_mem;

    // MCQ storage: a fixed 64-slot ring allocated once at
    // construction, with the per-slot wake tick split out into its own
    // plane (_wake). A slot is armed (its bit set in _armed) iff its
    // wake is not kNever, so tick() visits only armed slots, and none
    // at all before _minWake. Entries sit in the ring in strictly
    // increasing seq order and leave only from the head, so find()
    // tries the slot after the last commit, then binary-searches.
    std::vector<McqEntry> _slots;
    std::vector<Tick> _wake;
    u64 _armed = 0;
    Tick _minWake = kNever; //!< Lower bound on every armed wake.
    u32 _headSlot = 0;
    u32 _count = 0;
    u32 _commitCursor = 0;  //!< Slot after the last markCommitted().
    u32 _bndstrs = 0;       //!< bndstr entries in the queue.

    McuStats _stats;
};

} // namespace aos::mcu

#endif // AOS_MCU_MEMORY_CHECK_UNIT_HH
