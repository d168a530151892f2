/**
 * @file
 * The three composable abstract domains of the dataflow layer
 * (DESIGN.md §11).
 *
 * Each domain is a small value type with the classic abstract-
 * interpretation interface — a partial order induced by join(), a
 * widening operator where the lattice has unbounded height, and
 * transfer functions for the events the micro-op IR can express:
 *
 *   ProvenanceValue  which live chunk an address derives from. A flat
 *                    lattice (bottom < one ChunkId < top): joining two
 *                    different chunks loses the provenance, exactly as
 *                    a phi over two pointers does in an SSA IR.
 *
 *   EscapeState      has a pointer into the chunk escaped the scope the
 *                    analysis can see — stored to memory, loaded back
 *                    as a pointer value, passed through a call, or
 *                    aliased by an access with no provenance. A
 *                    two-point lattice (local < escaped); every
 *                    transfer is monotone towards escaped.
 *
 *   OffsetRange      interval of (addr - chunkBase) over the chunk's
 *                    accesses. Joins take the convex hull; widening
 *                    caps the number of hull extensions so a pointer
 *                    walked in a loop converges to [0, limit) instead
 *                    of growing one lattice step per iteration.
 *
 * The DataflowEngine (engine.hh) instantiates all three per chunk;
 * AosBoundsElidePass consumes the combined result. The domains carry
 * no engine state so they can be unit-tested in isolation
 * (tests/dataflow_analysis_test.cc) and reused by future analyses
 * (the shadow-memory backend's GEP-check insertion).
 */

#ifndef AOS_ANALYSIS_DATAFLOW_DOMAINS_HH
#define AOS_ANALYSIS_DATAFLOW_DOMAINS_HH

#include <algorithm>

#include "common/types.hh"

namespace aos::analysis::dataflow {

/** Identity of one chunk *instance*: allocator bases are reused, so a
 *  base alone names a timeline of objects, not an object. */
struct ChunkId
{
    Addr base = 0;
    u32 gen = 0; //!< 1-based malloc ordinal for this base.

    bool
    operator==(const ChunkId &other) const
    {
        return base == other.base && gen == other.gen;
    }
    bool operator!=(const ChunkId &other) const { return !(*this == other); }
};

/** Flat provenance lattice: bottom < chunk(id) < top. */
class ProvenanceValue
{
  public:
    /** Bottom: no information yet (unreached / undefined value). */
    static ProvenanceValue bottom() { return ProvenanceValue(kBottom, {}); }

    /** A single known chunk instance. */
    static ProvenanceValue
    chunk(ChunkId id)
    {
        return ProvenanceValue(kChunk, id);
    }

    /** Top: derived from more than one chunk, or from outside. */
    static ProvenanceValue unknown() { return ProvenanceValue(kTop, {}); }

    bool isBottom() const { return _state == kBottom; }
    bool isChunk() const { return _state == kChunk; }
    bool isUnknown() const { return _state == kTop; }

    /** The chunk id; only meaningful when isChunk(). */
    const ChunkId &id() const { return _id; }

    /** Least upper bound of the flat lattice. */
    ProvenanceValue
    join(const ProvenanceValue &other) const
    {
        if (isBottom())
            return other;
        if (other.isBottom())
            return *this;
        if (isChunk() && other.isChunk() && _id == other._id)
            return *this;
        return unknown();
    }

    /**
     * Transfer: pointer arithmetic on a value keeps its provenance
     * (an offset off a chunk pointer still points "at" that chunk for
     * the purposes of bounds attribution).
     */
    ProvenanceValue transferArith() const { return *this; }

    /** Transfer: a value loaded from untracked memory is unknown. */
    static ProvenanceValue transferLoadUntracked() { return unknown(); }

    bool
    operator==(const ProvenanceValue &other) const
    {
        return _state == other._state &&
               (_state != kChunk || _id == other._id);
    }

  private:
    enum State : u8 { kBottom, kChunk, kTop };

    ProvenanceValue(State state, ChunkId id) : _state(state), _id(id) {}

    State _state;
    ChunkId _id;
};

/** Two-point escape lattice: local < escaped (monotone). */
class EscapeState
{
  public:
    /** Why a chunk escaped (first cause wins; reporting only). */
    enum class Cause : u8
    {
        kNone,          //!< Still local.
        kPointerLoaded, //!< A pointer value was loaded out of the chunk.
        kStoredToMemory,//!< A pointer into the chunk was stored.
        kCall,          //!< A pointer into the chunk crossed a call.
        kUnknownAlias,  //!< An access with no provenance hit the chunk.
    };

    bool escaped() const { return _cause != Cause::kNone; }
    Cause cause() const { return _cause; }

    /** Join = logical or (keeps the earlier cause). */
    EscapeState
    join(const EscapeState &other) const
    {
        return escaped() ? *this : other;
    }

    // Monotone transfer functions, one per observable escape event.
    void onPointerLoaded() { escape(Cause::kPointerLoaded); }
    void onStoredToMemory() { escape(Cause::kStoredToMemory); }
    void onPassedThroughCall() { escape(Cause::kCall); }
    void onUnknownAlias() { escape(Cause::kUnknownAlias); }

  private:
    void
    escape(Cause cause)
    {
        if (_cause == Cause::kNone)
            _cause = cause;
    }

    Cause _cause = Cause::kNone;
};

/** Interval domain over chunk-relative byte offsets, with widening. */
class OffsetRange
{
  public:
    /** Hull extensions tolerated before widen() fires automatically. */
    static constexpr unsigned kWidenThreshold = 64;

    bool empty() const { return _empty; }
    u64 lo() const { return _lo; }
    u64 hi() const { return _hi; } //!< Inclusive upper offset.
    bool widened() const { return _widened; }

    /**
     * Transfer: observe an access of @p bytes at offset @p offset.
     * @p limit is the chunk extent that automatic widening jumps to.
     */
    void
    observe(u64 offset, u64 bytes, u64 limit)
    {
        const u64 last = offset + (bytes ? bytes - 1 : 0);
        if (_empty) {
            _empty = false;
            _lo = offset;
            _hi = last;
            return;
        }
        if (offset >= _lo && last <= _hi)
            return; // Inside: no lattice step.
        _lo = std::min(_lo, offset);
        _hi = std::max(_hi, last);
        if (++_growths >= kWidenThreshold)
            widen(limit);
    }

    /**
     * Join = convex hull (counts as one growth if it extends). @p limit
     * is the chunk extent that automatic widening jumps to.
     */
    OffsetRange
    join(const OffsetRange &other, u64 limit) const
    {
        if (_empty)
            return other;
        if (other._empty)
            return *this;
        OffsetRange out = *this;
        if (other._lo < out._lo || other._hi > out._hi) {
            out._lo = std::min(out._lo, other._lo);
            out._hi = std::max(out._hi, other._hi);
            if (++out._growths >= kWidenThreshold)
                out.widen(limit);
        }
        out._widened = out._widened || other._widened;
        return out;
    }

    /**
     * Widening: give up on precision and jump to [0, limit). Called
     * automatically after kWidenThreshold hull extensions, or manually
     * by an engine that knows the chunk extent.
     */
    void
    widen(u64 limit)
    {
        _empty = false;
        _widened = true;
        _lo = 0;
        _hi = limit ? limit - 1 : 0;
    }

    bool
    contains(u64 offset) const
    {
        return !_empty && offset >= _lo && offset <= _hi;
    }

    /** True iff every observed offset fits an object of @p size bytes. */
    bool
    withinSize(u64 size) const
    {
        return _empty || _hi < size;
    }

  private:
    u64 _lo = 0;
    u64 _hi = 0;
    u32 _growths = 0;
    bool _empty = true;
    bool _widened = false;
};

} // namespace aos::analysis::dataflow

#endif // AOS_ANALYSIS_DATAFLOW_DOMAINS_HH
