/**
 * @file
 * The bounds way buffer (BWB) of paper SV-C.
 *
 * A small fully-associative LRU tag buffer that remembers which HBT way
 * held the valid bounds for a recently checked pointer, so the next
 * check for the same object starts at the right way instead of way 0.
 *
 * The 32-bit tag (Algorithm 2) concatenates the PAC, a window of
 * pointer address bits chosen by the AHC so that every address inside
 * the same object produces the same tag, and the AHC itself:
 *
 *   AHC = 1 (<=64 B object):  PAC[15:0] | Addr[20:7]  | AHC[1:0]
 *   AHC = 2 (<=256 B object): PAC[15:0] | Addr[23:10] | AHC[1:0]
 *   AHC = 3 (larger):         PAC[15:0] | Addr[25:12] | AHC[1:0]
 *
 * Lookups and updates cost O(1): a chained hash index maps a tag to its
 * entry, and an intrusive doubly-linked list keeps the entries in
 * recency order (most recent at the front). The list order is the
 * order of the per-access LRU stamps a linear-scan buffer would keep,
 * so the victim of a full buffer is the same entry.
 */

#ifndef AOS_BOUNDS_BOUNDS_WAY_BUFFER_HH
#define AOS_BOUNDS_BOUNDS_WAY_BUFFER_HH

#include <vector>

#include "common/types.hh"

namespace aos::bounds {

/** BWB statistics (Fig. 17 reports the hit rate). */
struct BwbStats
{
    u64 hits = 0;
    u64 misses = 0;
    u64 updates = 0;

    double
    hitRate() const
    {
        const u64 total = hits + misses;
        return total ? static_cast<double>(hits) / total : 0.0;
    }
};

class BoundsWayBuffer
{
  public:
    /** @param entries Buffer capacity (Table IV: 64, LRU). */
    explicit BoundsWayBuffer(unsigned entries = 64);

    /** Compute the Algorithm 2 tag. */
    static u32 tagFor(Addr addr, u64 ahc, u64 pac);

    /**
     * Look up the way hint for a pointer. Returns the remembered way,
     * or 0 (start the search at way 0) on a miss.
     */
    unsigned lookup(Addr addr, u64 ahc, u64 pac);

    /** Record the way that held valid bounds after an MCQ retire. */
    void update(Addr addr, u64 ahc, u64 pac, unsigned way);

    /** Drop every entry (e.g. after an HBT resize). */
    void invalidate();

    const BwbStats &stats() const { return _stats; }
    unsigned capacity() const { return _capacity; }

  private:
    /** Null link in the hash chains and the recency list. */
    static constexpr u32 kNil = ~u32{0};

    struct Entry
    {
        u32 tag = 0;
        unsigned way = 0;
        u32 chain = kNil; //!< Next entry in the same hash bucket.
        u32 newer = kNil; //!< Recency list, towards the front.
        u32 older = kNil; //!< Recency list, towards the back.
    };

    /** Entry index holding @p tag, or kNil. */
    u32 find(u32 tag) const;
    /** Index into _buckets of @p tag's hash chain. */
    u32
    bucketOf(u32 tag) const
    {
        // Fibonacci hashing: the PAC sits in the tag's top bits.
        return (tag * 0x9e3779b1u) >> _bucketShift;
    }
    /** Move entry @p idx to the front of the recency list. */
    void touch(u32 idx);
    void unlinkRecency(u32 idx);
    void pushFront(u32 idx);

    unsigned _capacity;
    /** Entries [0, _used) are valid; filled in index order. */
    std::vector<Entry> _entries;
    u32 _used = 0;
    std::vector<u32> _buckets; //!< Power-of-two chain heads.
    unsigned _bucketShift = 0; //!< 32 - log2(bucket count).
    u32 _front = kNil;         //!< Most recently used.
    u32 _back = kNil;          //!< Least recently used: the victim.
    BwbStats _stats;
};

} // namespace aos::bounds

#endif // AOS_BOUNDS_BOUNDS_WAY_BUFFER_HH
