/**
 * @file
 * The chunk-instance rule (DESIGN.md §11.1), kept in one place.
 *
 * A heap base names a timeline of objects: fastbin reuse hands the
 * same base out again after a free. Bounds elision therefore names each
 * object instance as (base, generation), and every stage that reads a
 * stream (the dataflow engine, the bounds-elide pass, the verifier and
 * the obligation checker) must agree on which instance an op belongs
 * to. They all keep their per-base state in a ChunkInstances, which
 * applies the one rule:
 *
 *   - a kMallocMark at a nonzero base bumps that base's generation and
 *     opens the new instance;
 *   - a kFreeMark closes it (a second free finds it closed already);
 *   - the instance stays the attribution target, open or closed, until
 *     the base's next kMallocMark.
 *
 * Only the markers count. The aos_malloc/aos_free intrinsics the AOS
 * optimizer pass inserts always follow their marker, so counting them
 * too would open two instances per allocation.
 *
 * Each client keeps only its own per-instance data in Payload. A
 * lookup is one FlatU64Map probe per op, whatever the payload.
 */

#ifndef AOS_ANALYSIS_DATAFLOW_CHUNK_INSTANCES_HH
#define AOS_ANALYSIS_DATAFLOW_CHUNK_INSTANCES_HH

#include "common/flat_map.hh"
#include "common/types.hh"

namespace aos::analysis::dataflow {

template <typename Payload>
class ChunkInstances
{
  public:
    /** A base's newest instance. */
    struct Instance
    {
        u32 gen = 0;       //!< Its 1-based malloc ordinal at the base.
        bool open = false; //!< Not yet freed.
        Payload payload{}; //!< The client's data for this instance.
    };

    /**
     * kMallocMark at @p base (nonzero): open the base's next
     * generation. The payload still holds the previous instance's data
     * for the caller to read and replace; @p was_open, when given,
     * reports whether that instance was never freed.
     */
    Instance &
    onMalloc(Addr base, bool *was_open = nullptr)
    {
        Instance &inst = _bases[base];
        if (was_open)
            *was_open = inst.open;
        ++inst.gen;
        inst.open = true;
        return inst;
    }

    /**
     * kFreeMark at @p base (nonzero): close its newest instance.
     * Returns that instance, or nullptr when the base was never
     * allocated. @p was_open, when given, reports whether the instance
     * was open; a closed one means a double free.
     */
    Instance *
    onFree(Addr base, bool *was_open = nullptr)
    {
        Instance *inst = _bases.find(base);
        if (was_open)
            *was_open = inst && inst->open;
        if (inst)
            inst->open = false;
        return inst;
    }

    /** The base's newest instance, open or closed, or nullptr. */
    Instance *find(Addr base) { return _bases.find(base); }
    const Instance *find(Addr base) const { return _bases.find(base); }

  private:
    FlatU64Map<Instance> _bases;
};

} // namespace aos::analysis::dataflow

#endif // AOS_ANALYSIS_DATAFLOW_CHUNK_INSTANCES_HH
