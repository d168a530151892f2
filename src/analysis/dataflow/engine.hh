/**
 * @file
 * Forward abstract-interpretation engine over aos::ir::InstStream
 * (DESIGN.md §11).
 *
 * The engine makes one forward pass over a micro-op stream and folds
 * every op through the three abstract domains (domains.hh), producing
 * one ChunkSummary per chunk *instance* (base address + generation:
 * fastbin reuse means a base names a timeline of objects).
 *
 * It interprets both source-level streams (kMallocMark/kFreeMark plus
 * raw accesses, as SyntheticWorkload emits them) and lowered streams
 * (which keep the markers; autm ops are attributed too). Instances
 * follow the one chunk-instance rule of chunk_instances.hh. Because
 * every workload stream in this repo is a pure function of (profile,
 * measureOps, seedSalt), AosSystem can run the engine on a regenerated
 * duplicate stream and obtain an *exact* model of the stream the
 * pipeline will see — the "whole program" of this simulator.
 * Front-ends with real control flow would instead run the engine per
 * path and join() the summaries; the domains support that, the streams
 * here don't need it.
 *
 * Escape events observable in this IR are pointer loads
 * (MicroOp::loadsPointer) and unknown-provenance aliasing (an access
 * with chunkBase == 0 whose address lands inside a live chunk). The
 * store-to-memory and call transfers of EscapeState exist for richer
 * front-ends; this IR's kCall carries no pointer arguments, so calls
 * transfer nothing here.
 *
 * Per-base state is one ChunkInstances probe per attributed op; the
 * engine's payload is the newest instance's summary index.
 */

#ifndef AOS_ANALYSIS_DATAFLOW_ENGINE_HH
#define AOS_ANALYSIS_DATAFLOW_ENGINE_HH

#include <map>
#include <vector>

#include "analysis/dataflow/chunk_instances.hh"
#include "analysis/dataflow/domains.hh"
#include "common/cancel.hh"
#include "ir/micro_op.hh"
#include "pa/pointer_layout.hh"

namespace aos::analysis::dataflow {

/**
 * Everything the engine learned about one chunk instance. omnetpp's
 * warm-up opens ~700k of these, so the layout carries no copies: the
 * instance's id is stored as its two fields (a ChunkId member would
 * pad to 16 bytes), the size keeps MicroOp::size's 32 bits, and the
 * range widens to the size passed in rather than a stored limit.
 */
struct ChunkSummary
{
    Addr base = 0;        //!< Chunk base address.
    u32 gen = 0;          //!< 1-based malloc ordinal for this base.
    u32 size = 0;         //!< Requested allocation size in bytes.
    u64 mallocOp = 0;     //!< Op index of the allocation marker.
    u64 freeOp = 0;       //!< Op index of the free marker (if freed).
    u64 lastOp = 0;       //!< Last op index attributed to this instance.
    u64 accesses = 0;     //!< Loads/stores attributed while live.
    u64 pointerLoads = 0; //!< Subset of accesses with loadsPointer.
    u64 autms = 0;        //!< autm ops attributed (lowered streams).
    u64 accessesAfterFree = 0; //!< Temporal violations (UAF).
    u32 freeCount = 0;    //!< >1 means double free.
    bool allInBounds = true;   //!< Every access spatially proven.
    EscapeState escape;
    OffsetRange range;

    ChunkId id() const { return ChunkId{base, gen}; }
};

static_assert(sizeof(ChunkSummary) == 104,
              "ChunkSummary grew; omnetpp holds ~700k of them");

/** Forward dataflow over a micro-op stream. */
class DataflowEngine
{
  public:
    explicit DataflowEngine(const pa::PointerLayout &layout)
        : _layout(layout)
    {
    }

    /** Transfer one op through all domains. */
    void step(const ir::MicroOp &op);

    /**
     * Drain @p stream through step(), pulling it in blocks. Polls
     * @p cancel once per block so campaign jobs stay preemptible.
     * Returns ops consumed.
     */
    u64 run(ir::InstStream &stream, const CancelToken *cancel = nullptr);

    /** All chunk instances, in allocation order. */
    const std::vector<ChunkSummary> &summaries() const
    {
        return _summaries;
    }

    /** The live (not yet freed) instance at @p base, or nullptr. */
    const ChunkSummary *current(Addr base) const;

    /** Provenance of @p addr under the current heap state. */
    ProvenanceValue provenanceOf(Addr addr) const;

    u64 opsSeen() const { return _opIndex; }
    u64 invalidFrees() const { return _invalidFrees; }
    u64 orphanAccesses() const { return _orphanAccesses; }

  private:
    void onMalloc(const ir::MicroOp &op);
    void onFree(const ir::MicroOp &op);
    void onAccess(const ir::MicroOp &op);
    void onAutm(const ir::MicroOp &op);

    /** Summary index of the live chunk whose extent covers @p raw. */
    size_t coveringIndex(Addr raw) const;

    const pa::PointerLayout &_layout;

    std::vector<ChunkSummary> _summaries;
    /** Per base: the summary index of its newest instance. */
    ChunkInstances<size_t> _instances;
    /** Live extents for alias lookup: base -> (end, summary index). */
    std::map<Addr, std::pair<Addr, size_t>> _extents;

    u64 _opIndex = 0;
    u64 _invalidFrees = 0;   //!< Frees of never-allocated bases.
    u64 _orphanAccesses = 0; //!< chunkBase names no known instance.
};

} // namespace aos::analysis::dataflow

#endif // AOS_ANALYSIS_DATAFLOW_ENGINE_HH
