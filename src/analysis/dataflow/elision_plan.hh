/**
 * @file
 * Proof-carrying bounds-elision planning (DESIGN.md §11).
 *
 * planBoundsElision() turns the DataflowEngine's chunk summaries into
 * an ElisionPlan: the set of chunk instances whose AOS instrumentation
 * quadruple (pacma / bndstr / bndclr / autm) may be dropped, plus one
 * ProofObligation per elided instance recording *why* dropping it is
 * sound. A chunk is elided only when every assumption below is proven
 * by the analysis:
 *
 *   kNonEscaping   no pointer into the chunk escaped the analysable
 *                  scope (no pointer-valued loads from it, no
 *                  unknown-provenance access aliased it);
 *   kInBounds      every attributed access lies inside the requested
 *                  object and inside the compressed HBT record the
 *                  ground-truth executor would have checked, with the
 *                  offset interval never widened (no precision loss);
 *   kTemporalSafe  at most one free, and no access attributed after
 *                  the free.
 *
 * Under these assumptions the elided checks are dead: they could never
 * have fired in the ground-truth execution, so removing them cannot
 * remove a detection. The obligations are not trusted — the
 * staticcheck::ObligationChecker replays each one against the
 * StreamExecutor, clean and under seeded pointer faults, and fails
 * loudly if any assumption does not hold dynamically.
 */

#ifndef AOS_ANALYSIS_DATAFLOW_ELISION_PLAN_HH
#define AOS_ANALYSIS_DATAFLOW_ELISION_PLAN_HH

#include <vector>

#include "analysis/dataflow/chunk_instances.hh"
#include "analysis/dataflow/engine.hh"
#include "common/flat_map.hh"

namespace aos::analysis::dataflow {

/** Assumption kinds a ProofObligation can carry (bitmask). */
enum Assumption : u32
{
    kNonEscaping = 1u << 0,
    kInBounds = 1u << 1,
    kTemporalSafe = 1u << 2,
};

/** One elided site: what was assumed, and where it applies. */
struct ProofObligation
{
    ChunkId chunk;
    u64 size = 0;        //!< Requested object size in bytes.
    u32 assumptions = 0; //!< Assumption bits proven for this chunk.
    u64 firstOp = 0;     //!< Op index of the allocation marker.
    u64 lastOp = 0;      //!< Last op index attributed to the instance.
    u64 accesses = 0;    //!< Accesses the in-bounds proof covers.
    u64 minOff = 0;      //!< Observed offset interval (inclusive)...
    u64 maxOff = 0;      //!< ...meaningless when accesses == 0.
};

/** Why chunks were (not) elided; feeds the belide_* stats. */
struct PlanStats
{
    u64 chunksSeen = 0;
    u64 chunksElided = 0;
    u64 rejectEscaped = 0;
    u64 rejectOutOfBounds = 0;
    u64 rejectWidened = 0;
    u64 rejectTemporal = 0;
    u64 rejectZeroSize = 0;

    double
    elisionRate() const
    {
        return chunksSeen ? static_cast<double>(chunksElided) / chunksSeen
                          : 0.0;
    }
};

/**
 * The pass-facing result: per-instance elision verdicts.
 *
 * The index is exact, with no hashing of (base, gen) into one key: a
 * FlatU64Map keyed by the base alone names the base's run of slots in
 * _slots, one slot per generation, and each slot holds the index of
 * that instance's obligation (or kNoObligation).
 */
class ElisionPlan
{
  public:
    bool
    elided(Addr base, u32 gen) const
    {
        return find(base, gen) != nullptr;
    }

    /** The obligation for (base, gen), or nullptr if not elided. */
    const ProofObligation *
    find(Addr base, u32 gen) const
    {
        const Timeline *t = _timelines.find(base);
        if (t == nullptr || gen == 0 || gen > t->gens)
            return nullptr;
        const u32 ob = _slots[t->first + (gen - 1)];
        return ob == kNoObligation ? nullptr : &_obligations[ob];
    }

    const std::vector<ProofObligation> &obligations() const
    {
        return _obligations;
    }

    const PlanStats &stats() const { return _stats; }
    bool empty() const { return _obligations.empty(); }

    /** What a reader of a stream rewritten under a plan keeps per
     *  chunk instance. */
    struct Verdict
    {
        u32 size = 0;        //!< Requested object size in bytes.
        bool elided = false; //!< The plan elides the instance.
    };
    using Instances = ChunkInstances<Verdict>;

    /**
     * Advance @p instances over @p op of a rewritten stream under the
     * chunk-instance rule; each new instance gets this plan's verdict.
     * An elided instance stays elided, open or closed, until its
     * base's next malloc, so its whole free sequence and any
     * use-after-free still attribute to it.
     */
    void
    track(Instances &instances, const ir::MicroOp &op) const
    {
        if (op.chunkBase == 0)
            return;
        if (op.kind == ir::OpKind::kMallocMark) {
            auto &inst = instances.onMalloc(op.chunkBase);
            inst.payload = {op.size, elided(op.chunkBase, inst.gen)};
        } else if (op.kind == ir::OpKind::kFreeMark) {
            instances.onFree(op.chunkBase);
        }
    }

  private:
    friend ElisionPlan planBoundsElision(const DataflowEngine &engine);

    static constexpr u32 kNoObligation = ~u32{0};

    /** A base's instances: slots [first, first + gens) of _slots. */
    struct Timeline
    {
        u32 first = 0;
        u32 gens = 0;
    };

    std::vector<ProofObligation> _obligations;
    FlatU64Map<Timeline> _timelines;
    std::vector<u32> _slots; //!< Per instance: obligation index.
    PlanStats _stats;
};

/** Decide elision for every chunk instance the engine summarized. */
ElisionPlan planBoundsElision(const DataflowEngine &engine);

} // namespace aos::analysis::dataflow

#endif // AOS_ANALYSIS_DATAFLOW_ELISION_PLAN_HH
