/**
 * @file
 * Unit tests for the bounds way buffer (Algorithm 2, paper SV-C).
 */

#include <gtest/gtest.h>

#include <vector>

#include "bounds/bounds_way_buffer.hh"
#include "common/bitfield.hh"
#include "common/random.hh"

namespace aos::bounds {
namespace {

TEST(BwbTag, WindowSelectionByAhc)
{
    const Addr addr = 0x0000123456789ab0ull;
    const u64 pac = 0xbeef;
    // AHC = 1: Addr[20:7]; AHC = 2: Addr[23:10]; AHC = 3: Addr[25:12].
    EXPECT_EQ(BoundsWayBuffer::tagFor(addr, 1, pac),
              ((pac & mask(16)) << 16) | (bits(addr, 20, 7) << 2) | 1);
    EXPECT_EQ(BoundsWayBuffer::tagFor(addr, 2, pac),
              ((pac & mask(16)) << 16) | (bits(addr, 23, 10) << 2) | 2);
    EXPECT_EQ(BoundsWayBuffer::tagFor(addr, 3, pac),
              ((pac & mask(16)) << 16) | (bits(addr, 25, 12) << 2) | 3);
}

TEST(BwbTag, SameObjectSameTag)
{
    // Addresses within one small object share the AHC-selected window,
    // so they hit the same BWB entry.
    const Addr base = 0x20000080; // 64-byte aligned, AHC 1
    for (unsigned off = 0; off < 64; off += 8) {
        EXPECT_EQ(BoundsWayBuffer::tagFor(base, 1, 7),
                  BoundsWayBuffer::tagFor(base + off, 1, 7));
    }
}

TEST(BwbTag, DifferentObjectsDifferentTags)
{
    EXPECT_NE(BoundsWayBuffer::tagFor(0x20000080, 1, 7),
              BoundsWayBuffer::tagFor(0x20000100, 1, 7));
    EXPECT_NE(BoundsWayBuffer::tagFor(0x20000080, 1, 7),
              BoundsWayBuffer::tagFor(0x20000080, 2, 7));
    EXPECT_NE(BoundsWayBuffer::tagFor(0x20000080, 1, 7),
              BoundsWayBuffer::tagFor(0x20000080, 1, 8));
}

TEST(Bwb, MissReturnsWayZero)
{
    BoundsWayBuffer bwb(4);
    EXPECT_EQ(bwb.lookup(0x20000080, 1, 7), 0u);
    EXPECT_EQ(bwb.stats().misses, 1u);
    EXPECT_EQ(bwb.stats().hits, 0u);
}

TEST(Bwb, UpdateThenHit)
{
    BoundsWayBuffer bwb(4);
    bwb.update(0x20000080, 1, 7, 3);
    EXPECT_EQ(bwb.lookup(0x20000080, 1, 7), 3u);
    EXPECT_EQ(bwb.stats().hits, 1u);
    // Another address inside the same (small) object also hits.
    EXPECT_EQ(bwb.lookup(0x200000a8, 1, 7), 3u);
    EXPECT_EQ(bwb.stats().hits, 2u);
}

TEST(Bwb, UpdateOverwritesExistingEntry)
{
    BoundsWayBuffer bwb(4);
    bwb.update(0x20000080, 1, 7, 1);
    bwb.update(0x20000080, 1, 7, 2);
    EXPECT_EQ(bwb.lookup(0x20000080, 1, 7), 2u);
    // Only one entry was consumed.
    bwb.update(0x30000000, 3, 8, 0);
    bwb.update(0x40000000, 3, 9, 0);
    bwb.update(0x50000000, 3, 10, 0);
    EXPECT_EQ(bwb.lookup(0x20000080, 1, 7), 2u) << "evicted too early";
}

TEST(Bwb, LruEviction)
{
    BoundsWayBuffer bwb(2);
    bwb.update(0x20000080, 1, 1, 1);
    bwb.update(0x20000100, 1, 2, 2);
    // Touch the first so the second becomes LRU.
    EXPECT_EQ(bwb.lookup(0x20000080, 1, 1), 1u);
    bwb.update(0x20000180, 1, 3, 3);
    EXPECT_EQ(bwb.lookup(0x20000080, 1, 1), 1u);   // survived
    EXPECT_EQ(bwb.lookup(0x20000100, 1, 2), 0u);   // evicted -> miss
    EXPECT_EQ(bwb.lookup(0x20000180, 1, 3), 3u);
}

TEST(Bwb, InvalidateDropsEverything)
{
    BoundsWayBuffer bwb(8);
    bwb.update(0x20000080, 1, 7, 3);
    bwb.invalidate();
    EXPECT_EQ(bwb.lookup(0x20000080, 1, 7), 0u);
    EXPECT_EQ(bwb.stats().misses, 1u);
}

TEST(Bwb, HitRateAccounting)
{
    BoundsWayBuffer bwb(8);
    bwb.update(0x20000080, 1, 7, 1);
    for (int i = 0; i < 9; ++i)
        bwb.lookup(0x20000080, 1, 7);
    bwb.lookup(0x90000000, 3, 99); // miss
    EXPECT_NEAR(bwb.stats().hitRate(), 0.9, 1e-9);
}

/**
 * Reference model: the linear-scan buffer with per-access LRU stamps
 * that the indexed BWB replaced. Lookups and updates scan every entry;
 * an update fills the first invalid entry, else evicts the entry with
 * the oldest stamp.
 */
class ScanBwb
{
  public:
    explicit ScanBwb(unsigned entries) : _entries(entries) {}

    unsigned
    lookup(u32 tag)
    {
        for (auto &entry : _entries) {
            if (entry.valid && entry.tag == tag) {
                ++stats.hits;
                entry.lru = ++_stamp;
                return entry.way;
            }
        }
        ++stats.misses;
        return 0;
    }

    void
    update(u32 tag, unsigned way)
    {
        ++stats.updates;
        Entry *victim = &_entries[0];
        for (auto &entry : _entries) {
            if (entry.valid && entry.tag == tag) {
                entry.way = way;
                entry.lru = ++_stamp;
                return;
            }
            if (!entry.valid) {
                victim = &entry;
                break;
            }
            if (entry.lru < victim->lru)
                victim = &entry;
        }
        *victim = Entry{true, tag, way, ++_stamp};
    }

    void
    invalidate()
    {
        for (auto &entry : _entries)
            entry = Entry{};
    }

    BwbStats stats;

  private:
    struct Entry
    {
        bool valid = false;
        u32 tag = 0;
        unsigned way = 0;
        u64 lru = 0;
    };

    std::vector<Entry> _entries;
    u64 _stamp = 0;
};

class BwbReference : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BwbReference, MatchesLinearScanLru)
{
    const unsigned capacity = GetParam();
    BoundsWayBuffer bwb(capacity);
    ScanBwb ref(capacity);

    // A pool of objects about twice the capacity, so both hits and
    // evictions are common; a few share a PAC and differ in address.
    struct Object
    {
        Addr addr;
        u64 ahc;
        u64 pac;
    };
    Rng rng(0xb3b + capacity);
    std::vector<Object> pool;
    for (unsigned i = 0; i < 2 * capacity + 3; ++i) {
        pool.push_back({0x20000000 + rng.below(1u << 20) * 0x80,
                        1 + rng.below(3), rng.below(24)});
    }

    for (int step = 0; step < 20000; ++step) {
        const Object &obj = pool[rng.below(pool.size())];
        const u32 tag = BoundsWayBuffer::tagFor(obj.addr, obj.ahc, obj.pac);
        const u64 roll = rng.below(100);
        if (roll == 0) {
            bwb.invalidate();
            ref.invalidate();
        } else if (roll < 50) {
            ASSERT_EQ(bwb.lookup(obj.addr, obj.ahc, obj.pac),
                      ref.lookup(tag))
                << "step " << step;
        } else {
            const unsigned way = static_cast<unsigned>(rng.below(8));
            bwb.update(obj.addr, obj.ahc, obj.pac, way);
            ref.update(tag, way);
        }
    }
    EXPECT_EQ(bwb.stats().hits, ref.stats.hits);
    EXPECT_EQ(bwb.stats().misses, ref.stats.misses);
    EXPECT_EQ(bwb.stats().updates, ref.stats.updates);
    EXPECT_GT(ref.stats.hits, 0u);
    EXPECT_GT(ref.stats.misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, BwbReference,
                         ::testing::Values(1u, 4u, 64u));

TEST(BwbDeath, RejectsZeroCapacity)
{
    EXPECT_DEATH(BoundsWayBuffer(0), "");
}

} // namespace
} // namespace aos::bounds
