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
 * Everything else — other chunks, unsigned accesses, invalid frees —
 * passes through untouched, which is what preserves the detection set:
 * an elided check is one the plan proved could never fire, and even a
 * wrong temporal assumption fails safe (a signed use-after-free access
 * still traps, against a missing record instead of a cleared one).
 * The ObligationChecker validates exactly this claim dynamically.
 */

#ifndef AOS_COMPILER_AOS_BOUNDS_ELIDE_PASS_HH
#define AOS_COMPILER_AOS_BOUNDS_ELIDE_PASS_HH

#include "analysis/dataflow/elision_plan.hh"
#include "common/flat_map.hh"
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

  protected:
    void transform(const ir::MicroOp &in) override;

  private:
    /** What the pass tracks per chunk base. */
    struct BaseState
    {
        /** Allocation ordinal; must mirror DataflowEngine. */
        u32 gen = 0;
        /** The *current* instance is elided. */
        bool elidedOpen = false;
        /** Elided, between its bndclr and its re-sign pacma. */
        bool freeing = false;
    };

    /** The state of @p base if its current instance is elided. */
    BaseState *
    elidedOpen(Addr base)
    {
        BaseState *st = _bases.find(base);
        return st && st->elidedOpen ? st : nullptr;
    }

    /** The state of @p base if it is between bndclr and re-sign. */
    BaseState *
    freeing(Addr base)
    {
        BaseState *st = _bases.find(base);
        return st && st->freeing ? st : nullptr;
    }

    pa::PointerLayout _layout;
    const analysis::dataflow::ElisionPlan *_plan;

    FlatU64Map<BaseState> _bases;

    BoundsElideStats _stats;
};

} // namespace aos::compiler

#endif // AOS_COMPILER_AOS_BOUNDS_ELIDE_PASS_HH
