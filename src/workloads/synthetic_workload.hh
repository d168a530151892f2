/**
 * @file
 * Synthetic benchmark generator: produces an infinite micro-op stream
 * whose allocation behaviour, instruction mix, locality and branch
 * behaviour follow a WorkloadProfile.
 *
 * The stream has two phases:
 *
 *  1. Warmup: the live heap set is built up to the profile's target
 *     (allocation bursts only), ending with a kPhaseMark op. The
 *     simulator fast-forwards through this phase functionally, exactly
 *     as the paper's gem5 runs start 3 B instructions into execution
 *     with the heap already populated.
 *  2. Steady state: the instruction mix of the profile, with malloc/
 *     free pairs that keep the live set at the target.
 *
 * Memory ops carry chunkBase annotations so the AOS backend pass can
 * sign them; allocator-internal work (chunk headers, coalescing
 * neighbours) is emitted as unsigned accesses, matching the xpacm
 * rationale of SIV-C.
 */

#ifndef AOS_WORKLOADS_SYNTHETIC_WORKLOAD_HH
#define AOS_WORKLOADS_SYNTHETIC_WORKLOAD_HH

#include <vector>

#include "alloc/heap_allocator.hh"
#include "common/random.hh"
#include "ir/micro_op.hh"
#include "workloads/workload_profile.hh"

namespace aos::workloads {

class SyntheticWorkload : public ir::InstStream
{
  public:
    /**
     * @param profile Benchmark description.
     * @param measure_ops Steady-phase ops to emit after warmup before
     *        ending the stream (0 = unbounded). Bounding the *source*
     *        stream keeps the amount of program work identical across
     *        configurations, matching the paper's methodology of not
     *        counting instrumented instructions (SVIII).
     * @param seed_salt Extra seed entropy (vary to get independent
     *        instances of the same benchmark).
     */
    explicit SyntheticWorkload(const WorkloadProfile &profile,
                               u64 measure_ops = 0, u64 seed_salt = 0);

    bool next(ir::MicroOp &op) override;

    size_t
    nextBatch(ir::MicroOp *out, size_t max) override
    {
        // Same semantics as the base-class loop, but the self-call is
        // direct: the pass refill above this pulls whole windows, so
        // this is the hottest dispatch edge in the pipeline.
        size_t k = 0;
        while (k < max && SyntheticWorkload::next(out[k]))
            ++k;
        return k;
    }

    std::string name() const override { return _profile.name; }

    alloc::HeapAllocator &allocator() { return _alloc; }
    const WorkloadProfile &profile() const { return _profile; }

  private:
    void refill();
    void emitWarmupStep();
    void emitMalloc();
    void emitFree();
    void emitMemOp(bool is_load);
    void emitBranch();
    void emitCallRet();

    u64 pickChunkSize();
    /** Pick an address (and its chunk base) inside a live heap chunk. */
    Addr pickHeapAddr(Addr *chunk_base);
    Addr pickGlobalAddr();

    void push(ir::MicroOp op) { _pending.push_back(op); }

    bool pendingEmpty() const { return _pendingHead == _pending.size(); }

    WorkloadProfile _profile;
    Rng _rng;
    alloc::HeapAllocator _alloc;
    // FIFO of generated ops: refill() appends, next() reads through a
    // head cursor and the buffer is recycled once drained (refill is
    // only ever called on an empty buffer, so a ring is not needed).
    std::vector<ir::MicroOp> _pending;
    size_t _pendingHead = 0;

    // log(heapChunkMin/Max), hoisted out of pickChunkSize (profile
    // bounds never change after construction).
    double _logChunkLo = 0;
    double _logChunkHi = 0;

    bool _warmupDone = false;
    u64 _measureOps = 0;
    u64 _measuredEmitted = 0;
    double _allocAccum = 0;
    unsigned _callDepth = 0;
    std::vector<double> _branchBias;

    struct RecentAccess
    {
        Addr addr = 0;
        Addr base = 0; //!< Chunk base (0 for global/stack).
        u64 limit = 0; //!< One past the end of the object/region.
    };
    std::vector<RecentAccess> _recent; //!< Reuse set (ring buffer).
    unsigned _recentPos = 0;
};

} // namespace aos::workloads

#endif // AOS_WORKLOADS_SYNTHETIC_WORKLOAD_HH
