/**
 * @file
 * AosBoundsElidePass — proof-carrying elision of whole-chunk AOS
 * instrumentation (DESIGN.md §11).
 *
 * Where AosElidePass removes *repeated* autm checks, this pass removes
 * the entire pacma/bndstr/bndclr/autm quadruple for chunk instances an
 * ElisionPlan proved non-escaping, spatially in-bounds, and temporally
 * safe (elision_plan.hh). It runs after the AOS backend and PA passes,
 * so it sees lowered streams and rewrites them as a compiler with the
 * analysis results would have emitted them in the first place:
 *
 *   - the malloc-side pacma + bndstr of an elided instance are dropped
 *     (the pointer is never signed, no HBT row is occupied);
 *   - loads/stores attributed to the instance have their addresses
 *     stripped back to the raw VA (the backend signed them; an elided
 *     chunk's pointer was never signed);
 *   - the free-side bndclr / xpacm / re-sign pacma are dropped;
 *   - any autm attributed to the instance is dropped (normally none:
 *     a pointer load from a chunk makes it escape, so elided chunks
 *     have no attributed authentications — the counter is defensive).
 *
 * Instances follow the one chunk-instance rule (chunk_instances.hh),
 * so plan verdicts attach to the instances the engine summarized. One
 * thing is the pass's own: an elided instance stops being elided at
 * its re-sign pacma, the last op of its free quadruple, although it
 * stays the base's instance until the next malloc. A signed access
 * after that (a use-after-free the plan did not foresee) is then left
 * signed, so it still traps.
 *
 * Everything else — other chunks, unsigned accesses, invalid frees —
 * passes through untouched, which is what preserves the detection set:
 * an elided check is one the plan proved could never fire, and even a
 * wrong temporal assumption fails safe (a signed use-after-free access
 * still traps, against a missing record instead of a cleared one).
 * The ObligationChecker validates exactly this claim dynamically.
 */

#ifndef AOS_COMPILER_AOS_BOUNDS_ELIDE_PASS_HH
#define AOS_COMPILER_AOS_BOUNDS_ELIDE_PASS_HH

#include "analysis/dataflow/chunk_instances.hh"
#include "analysis/dataflow/elision_plan.hh"
#include "compiler/pass.hh"
#include "pa/pointer_layout.hh"

namespace aos::compiler {

/** Per-op-kind elision counters (exported as belide_* stats). */
struct BoundsElideStats
{
    u64 pacmaSeen = 0;
    u64 pacmaElided = 0;
    u64 bndstrSeen = 0;
    u64 bndstrElided = 0;
    u64 bndclrSeen = 0;
    u64 bndclrElided = 0;
    u64 xpacmElided = 0;
    u64 autmElided = 0;
    u64 accessesStripped = 0;

    double
    bndstrElisionRate() const
    {
        return bndstrSeen
                   ? static_cast<double>(bndstrElided) / bndstrSeen
                   : 0.0;
    }
};

/** Plan-driven whole-chunk instrumentation elision. */
class AosBoundsElidePass : public Pass
{
  public:
    /** @param plan Analysis result; not owned. Null disables the pass. */
    AosBoundsElidePass(ir::InstStream *source, pa::PointerLayout layout,
                       const analysis::dataflow::ElisionPlan *plan)
        : Pass(source), _layout(layout), _plan(plan)
    {
    }

    std::string name() const override { return "aos-bounds-elide-pass"; }

    const BoundsElideStats &stats() const { return _stats; }

    /** What the pass keeps per chunk instance. */
    struct Payload
    {
        /** Elided by the plan, until its re-sign pacma. */
        bool elided = false;
        /** Elided, between its bndclr and its re-sign pacma. */
        bool freeing = false;
    };

    /** The chunk instances seen so far. */
    const analysis::dataflow::ChunkInstances<Payload> &
    instances() const
    {
        return _instances;
    }

  protected:
    void transform(const ir::MicroOp &in) override;

  private:
    /** The payload of @p base's instance if it is elided. */
    Payload *
    elided(Addr base)
    {
        auto *inst = _instances.find(base);
        return inst && inst->payload.elided ? &inst->payload : nullptr;
    }

    /** The payload of @p base's instance if it is being freed. */
    Payload *
    freeing(Addr base)
    {
        auto *inst = _instances.find(base);
        return inst && inst->payload.freeing ? &inst->payload : nullptr;
    }

    pa::PointerLayout _layout;
    const analysis::dataflow::ElisionPlan *_plan;

    analysis::dataflow::ChunkInstances<Payload> _instances;

    BoundsElideStats _stats;
};

} // namespace aos::compiler

#endif // AOS_COMPILER_AOS_BOUNDS_ELIDE_PASS_HH
