#include "analysis/dataflow/elision_plan.hh"

#include "common/logging.hh"

namespace aos::analysis::dataflow {

ElisionPlan
planBoundsElision(const DataflowEngine &engine)
{
    ElisionPlan plan;
    PlanStats &st = plan._stats;
    const std::vector<ChunkSummary> &sums = engine.summaries();
    panic_if(sums.size() >= ElisionPlan::kNoObligation,
             "bounds-elision plan: %zu chunk instances overflow its "
             "32-bit index", sums.size());

    // The engine numbers each base's instances 1, 2, ... in allocation
    // order. Walking the summaries newest first, a base's first
    // sighting is its newest instance, whose generation is the base's
    // instance count: give the base that many consecutive slots then.
    std::vector<u32> slot_of(sums.size());
    u32 next_slot = 0;
    for (size_t i = sums.size(); i-- > 0;) {
        const ChunkId id = sums[i].id();
        ElisionPlan::Timeline &t = plan._timelines[id.base];
        if (t.gens == 0) {
            t.first = next_slot;
            t.gens = id.gen;
            next_slot += id.gen;
        }
        slot_of[i] = t.first + (id.gen - 1);
    }
    plan._slots.assign(sums.size(), ElisionPlan::kNoObligation);
    // Untouched capacity costs no memory; growth would copy.
    plan._obligations.reserve(sums.size());

    for (size_t i = 0; i < sums.size(); ++i) {
        const ChunkSummary &sum = sums[i];
        ++st.chunksSeen;

        // Each reject counter names the *first* failed assumption, so
        // the counters partition the rejected set.
        if (sum.size == 0) {
            ++st.rejectZeroSize;
            continue;
        }
        if (sum.escape.escaped()) {
            ++st.rejectEscaped;
            continue;
        }
        if (sum.freeCount > 1 || sum.accessesAfterFree > 0) {
            ++st.rejectTemporal;
            continue;
        }
        if (sum.range.widened()) {
            ++st.rejectWidened;
            continue;
        }
        if (!sum.allInBounds || !sum.range.withinSize(sum.size)) {
            ++st.rejectOutOfBounds;
            continue;
        }

        ProofObligation ob;
        ob.chunk = sum.id();
        ob.size = sum.size;
        ob.assumptions = kNonEscaping | kInBounds | kTemporalSafe;
        ob.firstOp = sum.mallocOp;
        ob.lastOp = sum.lastOp;
        ob.accesses = sum.accesses;
        if (!sum.range.empty()) {
            ob.minOff = sum.range.lo();
            ob.maxOff = sum.range.hi();
        }
        plan._slots[slot_of[i]] =
            static_cast<u32>(plan._obligations.size());
        plan._obligations.push_back(ob);
        ++st.chunksElided;
    }
    return plan;
}

} // namespace aos::analysis::dataflow
