/**
 * @file
 * A glibc-style heap allocator over a simulated address space.
 *
 * The allocator hands out 16-byte-aligned user addresses inside a
 * simulated heap region; no host memory is touched. It reproduces the
 * allocator behaviours the paper depends on:
 *
 *  - 16-byte-aligned user pointers with a 16-byte chunk header in
 *    front (the basis of the bounds-compression format, paper SV-D);
 *  - fastbin-style caching of small chunks without coalescing, and
 *    boundary-tag coalescing of larger chunks (the free() path whose
 *    neighbour-metadata accesses motivate the xpacm strip, SIV-C);
 *  - the size-class bins (~64 B / ~256 B / large) behind the AHC
 *    classification of Algorithm 1;
 *  - the weak free() validation that enables the House-of-Spirit
 *    attack of Fig. 1 (emulated via forgeChunkHeader()).
 *
 * Statistics match the columns of paper Tables II and III: allocation
 * and deallocation call counts and the maximum number of active chunks.
 */

#ifndef AOS_ALLOC_HEAP_ALLOCATOR_HH
#define AOS_ALLOC_HEAP_ALLOCATOR_HH

#include <map>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace aos::alloc {

/** Allocation profile counters (paper Tables II/III columns). */
struct AllocStats
{
    u64 allocCalls = 0;    //!< Total malloc() calls.
    u64 freeCalls = 0;     //!< Total successful free() calls.
    u64 failedFrees = 0;   //!< free() calls rejected as invalid.
    u64 active = 0;        //!< Currently allocated chunks.
    u64 maxActive = 0;     //!< Peak simultaneously active chunks.
    u64 liveBytes = 0;     //!< Currently allocated user bytes.
    u64 peakBytes = 0;     //!< Peak allocated user bytes.
    u64 splits = 0;        //!< Free chunks split to satisfy a request.
    u64 coalesces = 0;     //!< Boundary-tag merges performed.
    u64 fastbinHits = 0;   //!< Requests served from a fastbin.
};

/** Outcome of a free() call. */
enum class FreeResult
{
    kOk,            //!< Chunk released normally.
    kInvalidPtr,    //!< Address is not a known (or forged) chunk.
    kDoubleFree,    //!< Chunk was already free and the check caught it.
    kCorrupting,    //!< Accepted but corrupts allocator state (attack!).
};

/** A bin-based allocator over a simulated heap address range. */
class HeapAllocator
{
  public:
    /**
     * @param heap_base First address of the simulated heap (16-aligned).
     * @param heap_limit Maximum heap size in bytes.
     */
    explicit HeapAllocator(Addr heap_base = 0x20000000ull,
                           u64 heap_limit = u64{8} << 30);

    /**
     * Allocate @p size user bytes; returns the 16-byte-aligned user
     * address or 0 when the heap is exhausted. A size of 0 allocates
     * the minimum chunk, as glibc does.
     */
    Addr malloc(u64 size);

    /** Release a user address obtained from malloc() (or forged). */
    FreeResult free(Addr user_addr);

    /** Usable size of an allocated chunk; 0 if unknown. */
    u64 usableSize(Addr user_addr) const;

    /** True iff @p user_addr is a currently allocated chunk base. */
    bool live(Addr user_addr) const;

    /** True iff @p addr falls inside allocated chunk @p user_addr. */
    bool inBounds(Addr user_addr, Addr addr) const;

    /**
     * Attack-surface hook: the attacker writes a believable chunk
     * header at @p where - 16 claiming @p size bytes, as the House of
     * Spirit exploit does (Fig. 1). A subsequent free(where) passes
     * the emulated glibc fastbin sanity checks and poisons the bin.
     */
    void forgeChunkHeader(Addr where, u64 size);

    /** Pick the @p index-th live chunk base (for workload synthesis). */
    Addr liveChunk(u64 index) const;

    /** Number of live chunks (liveChunk() domain). */
    u64 liveCount() const { return _liveList.size(); }

    const AllocStats &stats() const { return _stats; }

    Addr heapBase() const { return _heapBase; }

    /** Current break: one past the highest chunk ever carved. */
    Addr heapTop() const { return _top; }

    /** Reset to an empty heap (keeps base/limit). */
    void reset();

    /**
     * Size the live-chunk index for @p n concurrent allocations up
     * front (behavior-neutral; avoids rehash storms when a workload
     * declares a large target live set).
     */
    void
    reserveLive(u64 n)
    {
        _liveList.reserve(n);
        _chunks.reserve(n);
    }

  private:
    static constexpr u32 kNotLive = ~u32{0};

    // 20 bytes: the chunk table is the largest per-chunk structure
    // (omnetpp keeps ~700 K chunks live), so the record size directly
    // sets the malloc/free DRAM footprint. u32 sizes are sufficient
    // because the bounds-compression format (SV-D) caps object sizes
    // below 4 GiB; malloc() refuses anything larger.
    struct Chunk
    {
        u32 size = 0;       // user bytes
        u32 chunkSize = 0;  // header + payload, 16-aligned
        u32 prevSize = 0;   // boundary tag: chunkSize of the chunk
                            // ending at this base (0 = heap base or a
                            // forged chunk outside the carve sequence)
        u32 liveSlot = kNotLive; // index in _liveList while live
        bool free = false;
        bool inFastbin = false;
    };

    static constexpr u64 kHeader = 16;
    static constexpr u64 kMinChunk = 32;
    static constexpr u64 kFastbinMax = 128; // user bytes
    static constexpr unsigned kNumFastbins = 8;

    static u64 chunkSizeFor(u64 user_size);
    static unsigned fastbinIndex(u64 chunk_size);

    Addr carveTop(u64 chunk_size);
    void insertFree(Addr base, u64 chunk_size);
    void removeFree(Addr base);
    void addLive(Chunk &chunk, Addr user_addr, u64 user_size);
    void removeLive(Chunk &chunk);
    void setPrevSizeAt(Addr chunk_base, u64 prev_size);

    Addr _heapBase;
    u64 _heapLimit;
    Addr _top;

    // All chunks carved from the heap, keyed by chunk base address.
    // Adjacency for boundary-tag coalescing comes from the sizes: the
    // next chunk lives at base + chunkSize and the previous one at
    // base - prevSize, so the map needs no address ordering and the
    // malloc/free hot paths stay O(1).
    FlatU64Map<Chunk> _chunks;
    // chunkSize of the chunk ending at _top (prevSize for the next
    // carve); 0 while the heap is empty.
    u64 _topPrevSize = 0;
    // Free chunks by size (size -> bases), excluding fastbin chunks.
    std::multimap<u64, Addr> _freeBySize;
    // LIFO fastbins of chunk bases, by size class.
    std::vector<Addr> _fastbins[kNumFastbins];
    // Forged headers planted by forgeChunkHeader (user addr -> size).
    FlatU64Map<u64> _forged;

    // Live user addresses with O(1) random access and removal; each
    // live chunk records its own slot (Chunk::liveSlot).
    std::vector<Addr> _liveList;

    AllocStats _stats;
};

} // namespace aos::alloc

#endif // AOS_ALLOC_HEAP_ALLOCATOR_HH
