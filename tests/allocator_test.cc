/**
 * @file
 * Unit tests for the glibc-style heap allocator model.
 */

#include <set>

#include <gtest/gtest.h>

#include "alloc/heap_allocator.hh"
#include "common/random.hh"

namespace aos::alloc {
namespace {

TEST(Allocator, ReturnsAlignedDistinctChunks)
{
    HeapAllocator heap;
    std::set<Addr> seen;
    for (int i = 0; i < 100; ++i) {
        const Addr p = heap.malloc(24);
        ASSERT_NE(p, 0u);
        EXPECT_EQ(p & 15, 0u) << "malloc must be 16-byte aligned";
        EXPECT_TRUE(seen.insert(p).second) << "chunk overlap";
    }
}

TEST(Allocator, ZeroSizeBehavesLikeGlibc)
{
    HeapAllocator heap;
    const Addr p = heap.malloc(0);
    EXPECT_NE(p, 0u);
    EXPECT_EQ(heap.free(p), FreeResult::kOk);
}

TEST(Allocator, UsableSizeAndBounds)
{
    HeapAllocator heap;
    const Addr p = heap.malloc(100);
    EXPECT_EQ(heap.usableSize(p), 100u);
    EXPECT_TRUE(heap.inBounds(p, p));
    EXPECT_TRUE(heap.inBounds(p, p + 99));
    EXPECT_FALSE(heap.inBounds(p, p + 100));
    EXPECT_FALSE(heap.inBounds(p, p - 1));
}

TEST(Allocator, FreeMakesChunkDead)
{
    HeapAllocator heap;
    const Addr p = heap.malloc(64);
    EXPECT_TRUE(heap.live(p));
    EXPECT_EQ(heap.free(p), FreeResult::kOk);
    EXPECT_FALSE(heap.live(p));
    EXPECT_EQ(heap.usableSize(p), 0u);
}

TEST(Allocator, LiveOnlyAtAllocatedChunkBases)
{
    // live() holds for the exact user address of an allocated chunk:
    // never for a header, an interior or never-carved address, a free
    // chunk (fastbin or coalesced), or the tail split off a free chunk.
    HeapAllocator heap;
    const Addr small = heap.malloc(48);
    const Addr big = heap.malloc(4096);
    const Addr guard = heap.malloc(16);
    EXPECT_TRUE(heap.live(small));
    EXPECT_TRUE(heap.live(big));
    EXPECT_FALSE(heap.live(small - 16));
    EXPECT_FALSE(heap.live(small + 16));
    EXPECT_FALSE(heap.live(0));
    EXPECT_FALSE(heap.live(16));
    EXPECT_FALSE(heap.live(heap.heapTop() + 16));

    EXPECT_EQ(heap.free(small), FreeResult::kOk); // to a fastbin
    EXPECT_FALSE(heap.live(small));
    EXPECT_EQ(heap.free(big), FreeResult::kOk); // to the free list
    EXPECT_FALSE(heap.live(big));
    EXPECT_EQ(heap.free(big), FreeResult::kDoubleFree);
    EXPECT_FALSE(heap.live(big));

    const Addr head = heap.malloc(1024); // split of big's chunk
    ASSERT_EQ(head, big);
    EXPECT_TRUE(heap.live(head));
    EXPECT_FALSE(heap.live(head + 1040)); // the free tail's user address
    EXPECT_TRUE(heap.live(guard));
    EXPECT_EQ(heap.liveCount(), 2u);
}

TEST(Allocator, ForgedChunkLiveOnlyWhileHandedOut)
{
    HeapAllocator heap;
    const Addr fake = 0x00601000;
    heap.forgeChunkHeader(fake, 0x30);
    EXPECT_FALSE(heap.live(fake));
    EXPECT_EQ(heap.free(fake), FreeResult::kCorrupting);
    EXPECT_FALSE(heap.live(fake));
    EXPECT_EQ(heap.malloc(0x30), fake);
    EXPECT_TRUE(heap.live(fake));
    EXPECT_EQ(heap.liveCount(), 1u);
    EXPECT_EQ(heap.free(fake), FreeResult::kOk);
    EXPECT_FALSE(heap.live(fake));
    EXPECT_EQ(heap.liveCount(), 0u);

    const Addr rejected = 0x00602000;
    heap.forgeChunkHeader(rejected, 1 << 20);
    EXPECT_EQ(heap.free(rejected), FreeResult::kInvalidPtr);
    EXPECT_FALSE(heap.live(rejected));
}

TEST(Allocator, FastbinDupHandsOutOneChunkTwice)
{
    // After free(a); free(b); free(a) the bin holds a twice, so two
    // mallocs return a. The live list still holds a once, so one free
    // of a retires it.
    HeapAllocator heap;
    const Addr a = heap.malloc(48);
    const Addr b = heap.malloc(48);
    heap.free(a);
    heap.free(b);
    ASSERT_EQ(heap.free(a), FreeResult::kCorrupting);
    EXPECT_EQ(heap.malloc(48), a);
    EXPECT_EQ(heap.malloc(48), b);
    EXPECT_EQ(heap.malloc(48), a);
    EXPECT_TRUE(heap.live(a));
    EXPECT_EQ(heap.liveCount(), 2u);
    EXPECT_EQ(heap.stats().active, 2u);
    EXPECT_EQ(heap.free(a), FreeResult::kOk);
    EXPECT_FALSE(heap.live(a));
    EXPECT_TRUE(heap.live(b));
    EXPECT_EQ(heap.liveCount(), 1u);
    EXPECT_EQ(heap.stats().active, 1u);
    EXPECT_EQ(heap.liveChunk(0), b);
}

TEST(Allocator, FastbinLifoReuse)
{
    HeapAllocator heap;
    const Addr a = heap.malloc(48);
    heap.malloc(48); // keep the heap from collapsing
    heap.free(a);
    // Same size class comes back LIFO from the fastbin.
    EXPECT_EQ(heap.malloc(48), a);
    EXPECT_GT(heap.stats().fastbinHits, 0u);
}

TEST(Allocator, LargeChunksCoalesce)
{
    HeapAllocator heap;
    const Addr a = heap.malloc(4096);
    const Addr b = heap.malloc(4096);
    const Addr guard = heap.malloc(4096);
    (void)guard;
    heap.free(a);
    heap.free(b); // should merge with a
    EXPECT_GT(heap.stats().coalesces, 0u);
    // A request the size of both should fit in the merged hole.
    const Addr big = heap.malloc(8192);
    EXPECT_EQ(big, a);
}

TEST(Allocator, SplitsLargeFreeChunks)
{
    HeapAllocator heap;
    const Addr a = heap.malloc(8192);
    heap.malloc(16); // guard
    heap.free(a);
    const Addr small = heap.malloc(1024);
    EXPECT_EQ(small, a);
    EXPECT_GT(heap.stats().splits, 0u);
    // The remainder must still be usable.
    const Addr rest = heap.malloc(4096);
    EXPECT_GT(rest, small);
    EXPECT_LT(rest, a + 8192 + 16);
}

TEST(Allocator, InvalidFreeRejected)
{
    HeapAllocator heap;
    heap.malloc(64);
    EXPECT_EQ(heap.free(0x123450), FreeResult::kInvalidPtr);
    EXPECT_EQ(heap.stats().failedFrees, 1u);
}

TEST(Allocator, FastbinHeadDoubleFreeCaught)
{
    HeapAllocator heap;
    const Addr a = heap.malloc(48);
    heap.free(a);
    // a is at the head of its fastbin: glibc's one double-free check.
    EXPECT_EQ(heap.free(a), FreeResult::kDoubleFree);
}

TEST(Allocator, FastbinNonHeadDoubleFreeCorrupts)
{
    // The classic fastbin-dup attack: free(a); free(b); free(a) is NOT
    // caught by glibc, and isn't caught here either — this is the gap
    // AOS closes.
    HeapAllocator heap;
    const Addr a = heap.malloc(48);
    const Addr b = heap.malloc(48);
    heap.free(a);
    heap.free(b);
    EXPECT_EQ(heap.free(a), FreeResult::kCorrupting);
}

TEST(Allocator, LargeChunkDoubleFreeCaught)
{
    HeapAllocator heap;
    const Addr a = heap.malloc(4096);
    heap.malloc(16);
    heap.free(a);
    EXPECT_EQ(heap.free(a), FreeResult::kDoubleFree);
}

TEST(Allocator, HouseOfSpiritForgedChunkPoisonsBin)
{
    // Fig. 1: the attacker crafts a fake fastbin-sized chunk header at
    // an address they control and frees it; the next malloc of that
    // class returns the attacker-controlled memory.
    HeapAllocator heap;
    const Addr fake = 0x00601000; // "stack/global" memory
    heap.forgeChunkHeader(fake, 0x30);
    EXPECT_EQ(heap.free(fake), FreeResult::kCorrupting);
    const Addr victim = heap.malloc(0x30);
    EXPECT_EQ(victim, fake);
}

TEST(Allocator, ForgedNonFastbinSizeRejected)
{
    HeapAllocator heap;
    const Addr fake = 0x00602000;
    heap.forgeChunkHeader(fake, 1 << 20); // too big for a fastbin
    EXPECT_EQ(heap.free(fake), FreeResult::kInvalidPtr);
}

TEST(Allocator, StatsTrackPeakActive)
{
    HeapAllocator heap;
    std::vector<Addr> ptrs;
    for (int i = 0; i < 10; ++i)
        ptrs.push_back(heap.malloc(64));
    for (int i = 0; i < 5; ++i) {
        heap.free(ptrs.back());
        ptrs.pop_back();
    }
    for (int i = 0; i < 3; ++i)
        ptrs.push_back(heap.malloc(64));
    EXPECT_EQ(heap.stats().allocCalls, 13u);
    EXPECT_EQ(heap.stats().freeCalls, 5u);
    EXPECT_EQ(heap.stats().active, 8u);
    EXPECT_EQ(heap.stats().maxActive, 10u);
}

TEST(Allocator, LiveChunkEnumeratesAllLive)
{
    HeapAllocator heap;
    std::set<Addr> expect;
    for (int i = 0; i < 20; ++i)
        expect.insert(heap.malloc(32));
    std::set<Addr> got;
    for (u64 i = 0; i < heap.liveCount(); ++i)
        got.insert(heap.liveChunk(i));
    EXPECT_EQ(got, expect);
}

TEST(Allocator, ResetRestoresEmptyHeap)
{
    HeapAllocator heap;
    heap.malloc(64);
    heap.reset();
    EXPECT_EQ(heap.liveCount(), 0u);
    EXPECT_EQ(heap.stats().allocCalls, 0u);
    EXPECT_EQ(heap.heapTop(), heap.heapBase());
}

TEST(Allocator, ExhaustionReturnsNull)
{
    HeapAllocator heap(0x20000000, 1 << 16); // 64 KB heap
    Addr last = 1;
    int count = 0;
    while ((last = heap.malloc(1024)) != 0)
        ++count;
    EXPECT_GT(count, 30);
    EXPECT_LE(count, 64);
}

TEST(Allocator, RandomChurnInvariants)
{
    // Property test: under heavy random churn, live accounting stays
    // consistent and chunks never overlap.
    HeapAllocator heap;
    Rng rng(99);
    std::vector<std::pair<Addr, u64>> live;
    for (int i = 0; i < 20000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            const u64 size = 16 + rng.below(2048);
            const Addr p = heap.malloc(size);
            ASSERT_NE(p, 0u);
            for (const auto &[base, sz] : live) {
                ASSERT_TRUE(p + size <= base || p >= base + sz)
                    << "overlap with live chunk";
            }
            live.emplace_back(p, size);
        } else {
            const u64 idx = rng.below(live.size());
            ASSERT_EQ(heap.free(live[idx].first), FreeResult::kOk);
            const Addr freed = live[idx].first;
            live[idx] = live.back();
            live.pop_back();
            ASSERT_FALSE(heap.live(freed));
        }
        ASSERT_EQ(heap.liveCount(), live.size());
    }
    for (const auto &[base, sz] : live)
        ASSERT_TRUE(heap.live(base));
    std::set<Addr> listed;
    for (u64 i = 0; i < heap.liveCount(); ++i)
        listed.insert(heap.liveChunk(i));
    EXPECT_EQ(listed.size(), live.size());
    for (const auto &[base, sz] : live)
        EXPECT_TRUE(listed.count(base));
}

} // namespace
} // namespace aos::alloc
