#include "alloc/heap_allocator.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace aos::alloc {

HeapAllocator::HeapAllocator(Addr heap_base, u64 heap_limit)
    : _heapBase(roundUp(heap_base, 16)), _heapLimit(heap_limit),
      _top(_heapBase)
{
    // Sized for the workload profiles' typical live-heap population;
    // avoids rehash storms on the malloc/free hot path.
    _chunks.reserve(1u << 14);
    _forged.reserve(1u << 10);
}

void
HeapAllocator::reset()
{
    _top = _heapBase;
    _topPrevSize = 0;
    _chunks.clear();
    _freeBySize.clear();
    for (auto &bin : _fastbins)
        bin.clear();
    _forged.clear();
    _liveList.clear();
    _stats = AllocStats();
}

u64
HeapAllocator::chunkSizeFor(u64 user_size)
{
    return std::max<u64>(kMinChunk, roundUp(user_size + kHeader, 16));
}

unsigned
HeapAllocator::fastbinIndex(u64 chunk_size)
{
    // chunk sizes 32, 48, ..., 32 + 16*(kNumFastbins-1).
    return static_cast<unsigned>((chunk_size - kMinChunk) / 16);
}

Addr
HeapAllocator::carveTop(u64 chunk_size)
{
    if (_top + chunk_size > _heapBase + _heapLimit)
        return 0;
    const Addr base = _top;
    _top += chunk_size;
    return base;
}

void
HeapAllocator::insertFree(Addr base, u64 chunk_size)
{
    _freeBySize.emplace(chunk_size, base);
}

void
HeapAllocator::removeFree(Addr base)
{
    const Chunk *chunk = _chunks.find(base);
    panic_if(!chunk, "removeFree of unknown chunk");
    auto [lo, hi] = _freeBySize.equal_range(chunk->chunkSize);
    for (auto fit = lo; fit != hi; ++fit) {
        if (fit->second == base) {
            _freeBySize.erase(fit);
            return;
        }
    }
    panic("free chunk %#lx missing from size index", base);
}

void
HeapAllocator::setPrevSizeAt(Addr chunk_base, u64 prev_size)
{
    if (chunk_base == _top) {
        _topPrevSize = prev_size;
        return;
    }
    if (Chunk *chunk = _chunks.find(chunk_base))
        chunk->prevSize = static_cast<u32>(prev_size);
}

void
HeapAllocator::addLive(Chunk &chunk, Addr user_addr, u64 user_size)
{
    chunk.liveSlot = static_cast<u32>(_liveList.size());
    _liveList.push_back(user_addr);
    ++_stats.active;
    _stats.maxActive = std::max(_stats.maxActive, _stats.active);
    _stats.liveBytes += user_size;
    _stats.peakBytes = std::max(_stats.peakBytes, _stats.liveBytes);
}

void
HeapAllocator::removeLive(Chunk &chunk)
{
    panic_if(chunk.liveSlot == kNotLive, "removeLive of non-live chunk");
    const u32 idx = chunk.liveSlot;
    const Addr last = _liveList.back();
    _liveList[idx] = last;
    if (Chunk *moved = _chunks.find(last - kHeader))
        moved->liveSlot = idx;
    _liveList.pop_back();
    chunk.liveSlot = kNotLive;
    --_stats.active;
}

Addr
HeapAllocator::liveChunk(u64 index) const
{
    panic_if(index >= _liveList.size(), "liveChunk index out of range");
    return _liveList[index];
}

Addr
HeapAllocator::malloc(u64 size)
{
    ++_stats.allocCalls;
    const u64 need = chunkSizeFor(size);
    // Chunk records hold 32-bit sizes; the bounds-compression format
    // cannot represent objects this large anyway (SV-D), so treat the
    // request as unsatisfiable rather than truncate.
    if (need > 0xffffffffull)
        return 0;

    Addr base = 0;
    // 1. Fastbin LIFO reuse for small chunks.
    if (need <= kFastbinMax + kHeader) {
        auto &bin = _fastbins[fastbinIndex(need)];
        if (!bin.empty()) {
            base = bin.back();
            bin.pop_back();
            ++_stats.fastbinHits;
            Chunk *chunk = _chunks.find(base);
            if (chunk) {
                // A fastbin dup (free a, free b, free a) hands a out
                // again while it is still live: it keeps its one
                // live-list entry and the size of its first malloc.
                if (chunk->liveSlot != kNotLive)
                    return base + kHeader;
                chunk->free = false;
                chunk->inFastbin = false;
                chunk->size = static_cast<u32>(size);
            } else {
                // A forged chunk planted by the House-of-Spirit attack:
                // malloc now returns attacker-controlled memory.
                chunk = &_chunks[base];
                *chunk = Chunk{.size = static_cast<u32>(size),
                               .chunkSize = static_cast<u32>(need)};
            }
            addLive(*chunk, base + kHeader, size);
            return base + kHeader;
        }
    }

    // 2. Best-fit search of the coalesced free list. The empty check
    // matters: a growing heap (warmup) otherwise pays a tree probe on
    // every single carve.
    auto fit = _freeBySize.empty() ? _freeBySize.end()
                                   : _freeBySize.lower_bound(need);
    if (fit != _freeBySize.end()) {
        base = fit->second;
        const u64 have = fit->first;
        _freeBySize.erase(fit);
        const bool split = have >= need + kMinChunk;
        if (split) {
            // Keep the tail as a smaller free chunk. Insert it before
            // finding the head: operator[] may rehash.
            const Addr rest = base + need;
            const u64 rest_size = have - need;
            _chunks[rest] = Chunk{.chunkSize = static_cast<u32>(rest_size),
                                  .prevSize = static_cast<u32>(need),
                                  .free = true};
            insertFree(rest, rest_size);
            ++_stats.splits;
            setPrevSizeAt(rest + rest_size, rest_size);
        }
        Chunk *chunk = _chunks.find(base);
        panic_if(!chunk, "free-list chunk lost");
        if (split)
            chunk->chunkSize = static_cast<u32>(need);
        chunk->free = false;
        chunk->size = static_cast<u32>(size);
        addLive(*chunk, base + kHeader, size);
        return base + kHeader;
    }

    // 3. Extend the top of the heap.
    base = carveTop(need);
    if (base == 0)
        return 0; // out of simulated memory
    Chunk &chunk = _chunks[base];
    chunk = Chunk{.size = static_cast<u32>(size),
                  .chunkSize = static_cast<u32>(need),
                  .prevSize = static_cast<u32>(_topPrevSize)};
    _topPrevSize = need;
    addLive(chunk, base + kHeader, size);
    return base + kHeader;
}

FreeResult
HeapAllocator::free(Addr user_addr)
{
    const Addr base = user_addr - kHeader;
    Chunk *it = _chunks.find(base);

    if (!it) {
        // Unknown chunk: emulate glibc's fastbin sanity checks. An
        // attacker who forged a header with a fastbin-sized size field
        // (House of Spirit) passes them and poisons the bin.
        const u64 *forged = _forged.find(user_addr);
        if (forged) {
            const u64 chunk_size = chunkSizeFor(*forged);
            if (chunk_size <= kFastbinMax + kHeader &&
                (base & 15) == 0) {
                _fastbins[fastbinIndex(chunk_size)].push_back(base);
                ++_stats.freeCalls;
                return FreeResult::kCorrupting;
            }
        }
        ++_stats.failedFrees;
        return FreeResult::kInvalidPtr;
    }

    Chunk &chunk = *it;
    if (chunk.free || chunk.inFastbin) {
        // glibc only catches a double free when the chunk is at the
        // head of its fastbin ("double free or corruption (fasttop)").
        if (chunk.inFastbin) {
            auto &bin = _fastbins[fastbinIndex(chunk.chunkSize)];
            if (!bin.empty() && bin.back() == base) {
                ++_stats.failedFrees;
                return FreeResult::kDoubleFree;
            }
            bin.push_back(base);
            ++_stats.freeCalls;
            return FreeResult::kCorrupting;
        }
        ++_stats.failedFrees;
        return FreeResult::kDoubleFree;
    }

    _stats.liveBytes -= chunk.size;
    removeLive(chunk);
    ++_stats.freeCalls;

    if (chunk.chunkSize <= kFastbinMax + kHeader) {
        chunk.inFastbin = true;
        _fastbins[fastbinIndex(chunk.chunkSize)].push_back(base);
        return FreeResult::kOk;
    }

    // Boundary-tag coalescing with the previous and next chunks. This
    // is the neighbour-metadata walk that makes free() legitimately
    // touch addresses outside the freed object (paper SIV-C). The
    // neighbours come from the size tags: next at base + chunkSize,
    // prev at base - prevSize. A fastbin-sized chunk (which includes
    // every forgeable chunk) never has free && !inFastbin, so forged
    // headers can never act as a coalescing partner.
    chunk.free = true;
    Addr merged_base = base;
    u64 merged_size = chunk.chunkSize;
    const u64 prev_size = chunk.prevSize;

    const Addr next_base = base + chunk.chunkSize;
    const Chunk *next = _chunks.find(next_base);
    if (next && next->free && !next->inFastbin) {
        removeFree(next_base);
        merged_size += next->chunkSize;
        _chunks.erase(next_base); // invalidates chunk/next pointers
        ++_stats.coalesces;
    }
    if (prev_size != 0) {
        const Addr prev_base = base - prev_size;
        const Chunk *prev = _chunks.find(prev_base);
        if (prev && prev->free && !prev->inFastbin &&
            prev->chunkSize == prev_size) {
            removeFree(prev_base);
            merged_base = prev_base;
            merged_size += prev_size;
            _chunks.erase(base);
            ++_stats.coalesces;
        }
    }
    Chunk *merged = _chunks.find(merged_base);
    panic_if(!merged, "coalesce bookkeeping mismatch");
    merged->free = true;
    merged->chunkSize = static_cast<u32>(merged_size);
    merged->size = 0;
    setPrevSizeAt(merged_base + merged_size, merged_size);
    insertFree(merged_base, merged_size);
    return FreeResult::kOk;
}

u64
HeapAllocator::usableSize(Addr user_addr) const
{
    const Chunk *chunk = _chunks.find(user_addr - kHeader);
    if (!chunk || chunk->free || chunk->inFastbin)
        return 0;
    return chunk->size;
}

bool
HeapAllocator::live(Addr user_addr) const
{
    const Chunk *chunk = _chunks.find(user_addr - kHeader);
    return chunk && chunk->liveSlot != kNotLive;
}

bool
HeapAllocator::inBounds(Addr user_addr, Addr addr) const
{
    const u64 size = usableSize(user_addr);
    return size != 0 && addr >= user_addr && addr < user_addr + size;
}

void
HeapAllocator::forgeChunkHeader(Addr where, u64 size)
{
    _forged[where] = size;
}

} // namespace aos::alloc
