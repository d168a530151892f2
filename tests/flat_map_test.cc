/**
 * @file
 * Tests for FlatU64Map (common/flat_map.hh): a randomized differential
 * against std::unordered_map, the corners of open addressing that
 * random keys rarely reach — key 0's side slot, probe chains of keys
 * that share an ideal index, and backward-shift deletion across the
 * end of the table — and the probe lengths the slot function gives
 * the key shapes the simulator uses.
 */

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_map.hh"
#include "common/random.hh"

namespace aos {
namespace {

/** The ideal slot of @p key in a table of @p cap slots. */
size_t
idealIndex(u64 key, size_t cap)
{
    return FlatU64Map<u64>::idealIndex(key, cap);
}

/** Entries a 16-slot table takes before it grows (3/4 load). */
constexpr size_t kSmallEntries = 12;
constexpr size_t kSmallCap = 16;

/** The first @p n nonzero keys whose ideal slot in @p cap is @p slot. */
std::vector<u64>
keysAt(size_t slot, size_t cap, size_t n, u64 from = 1)
{
    std::vector<u64> keys;
    for (u64 k = from; keys.size() < n; ++k) {
        if (idealIndex(k, cap) == slot)
            keys.push_back(k);
    }
    return keys;
}

/** @p map holds exactly @p ref's entries among @p probe keys. */
void
expectSameEntries(const FlatU64Map<u64> &map,
                  const std::unordered_map<u64, u64> &ref,
                  const std::vector<u64> &probe)
{
    ASSERT_EQ(map.size(), ref.size());
    for (u64 k : probe) {
        const auto it = ref.find(k);
        const u64 *got = map.find(k);
        if (it == ref.end()) {
            EXPECT_EQ(got, nullptr) << "key " << k;
            EXPECT_EQ(map.count(k), 0u) << "key " << k;
        } else {
            ASSERT_NE(got, nullptr) << "key " << k;
            EXPECT_EQ(*got, it->second) << "key " << k;
            EXPECT_EQ(map.count(k), 1u) << "key " << k;
        }
    }
}

TEST(FlatU64Map, KeyZeroLivesInTheSideSlot)
{
    FlatU64Map<u64> map;
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map.count(0), 0u);
    EXPECT_EQ(map[0], 0u); // Default-constructed on first access.
    EXPECT_EQ(map.size(), 1u);
    map[0] = 7;
    map[1] = 8;
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), 7u);
    EXPECT_EQ(map.erase(0), 1u);
    EXPECT_EQ(map.erase(0), 0u);
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map[0], 0u); // Re-inserted fresh, not the old 7.
    EXPECT_EQ(*map.find(1), 8u);
}

TEST(FlatU64Map, CollidingKeysFormAProbeChain)
{
    // Twelve keys with one ideal slot fill a 16-slot table to its 3/4
    // load limit as a single chain; erasing from its head, middle and
    // tail must keep every survivor reachable.
    const std::vector<u64> keys = keysAt(5, kSmallCap, kSmallEntries);
    for (size_t victim = 0; victim < keys.size(); ++victim) {
        FlatU64Map<u64> map(kSmallEntries);
        std::unordered_map<u64, u64> ref;
        for (u64 k : keys)
            ref[k] = map[k] = k * 3;
        EXPECT_EQ(map.erase(keys[victim]), 1u);
        ref.erase(keys[victim]);
        expectSameEntries(map, ref, keys);
        EXPECT_EQ(map.erase(keys[victim]), 0u);
    }
}

TEST(FlatU64Map, BackwardShiftWrapsPastTheEnd)
{
    // Three keys ideal at the last slot and two ideal at slot 0 lay out
    // as [15]=a0 [0]=a1 [1]=a2 [2]=b0 [3]=b1: erasing any of them
    // shifts entries back across the end of the table.
    const std::vector<u64> tail = keysAt(kSmallCap - 1, kSmallCap, 3);
    const std::vector<u64> head = keysAt(0, kSmallCap, 2);
    std::vector<u64> keys = tail;
    keys.insert(keys.end(), head.begin(), head.end());

    for (size_t victim = 0; victim < keys.size(); ++victim) {
        FlatU64Map<u64> map(kSmallEntries);
        std::unordered_map<u64, u64> ref;
        for (u64 k : keys)
            ref[k] = map[k] = k + 1;
        EXPECT_EQ(map.erase(keys[victim]), 1u);
        ref.erase(keys[victim]);
        expectSameEntries(map, ref, keys);

        // Drain the rest in a different order each round.
        std::vector<u64> order = keys;
        std::rotate(order.begin(), order.begin() + victim, order.end());
        for (u64 k : order) {
            EXPECT_EQ(map.erase(k), ref.erase(k));
            expectSameEntries(map, ref, keys);
        }
        EXPECT_TRUE(map.empty());
    }
}

TEST(FlatU64Map, ReserveAndClearKeepTheContents)
{
    FlatU64Map<u64> map;
    std::unordered_map<u64, u64> ref;
    std::vector<u64> keys;
    for (u64 i = 0; i < 3000; ++i)
        keys.push_back(i * 0x1000); // Aligned, includes key 0.

    map.reserve(keys.size());
    for (u64 k : keys)
        ref[k] = map[k] = ~k;
    expectSameEntries(map, ref, keys);
    map.reserve(10); // Never shrinks.
    expectSameEntries(map, ref, keys);

    map.clear();
    ref.clear();
    EXPECT_TRUE(map.empty());
    expectSameEntries(map, ref, keys);
    for (size_t i = 0; i < keys.size(); i += 3)
        ref[keys[i]] = map[keys[i]] = i;
    expectSameEntries(map, ref, keys);
}

/**
 * Slots a successful lookup examines, at most, over @p keys inserted in
 * order into a table of the size FlatU64Map grows to for them (the
 * smallest power of two they fill to at most 3/4).
 */
size_t
longestProbe(const std::vector<u64> &keys)
{
    size_t cap = kSmallCap;
    while (cap * 3 < keys.size() * 4)
        cap *= 2;
    std::vector<bool> used(cap);
    size_t longest = 0;
    for (u64 k : keys) {
        size_t i = idealIndex(k, cap);
        size_t probes = 1;
        for (; used[i]; ++probes)
            i = (i + 1) & (cap - 1);
        used[i] = true;
        longest = std::max(longest, probes);
    }
    return longest;
}

TEST(FlatU64Map, KeyShapesKeepProbesShort)
{
    // The slot function keeps a page's keys in one run of 256 slots;
    // these are the shapes that could crowd a run. No lookup may scan
    // further than one run. Uniform random keys reach 118 slots here
    // at 2/3 load, carved chunk bases 46; dense integers without the
    // low-nibble term would reach 3841.
    constexpr size_t kMaxProbe = 256;
    Rng rng(0x5107);

    // omnetpp's live set: 700k chunks of log-uniform 32-512 B requests,
    // carved back to back; the key is the user address.
    std::vector<u64> carved;
    u64 top = 0x20000000;
    while (carved.size() < 700000) {
        const double req = std::exp(std::log(32.0) +
                                    std::log(16.0) * rng.uniform());
        const u64 size = static_cast<u64>(req) & ~u64{7};
        carved.push_back(top + 16);
        top += std::max<u64>(32, (size + 16 + 15) & ~u64{15});
    }
    EXPECT_LE(longestProbe(carved), kMaxProbe) << "carved chunk bases";

    // Page-aligned keys: every page's run starts at its first slot.
    std::vector<u64> pages;
    for (u64 i = 0; i < 700000; ++i)
        pages.push_back(0x20000000 + (i << 12));
    EXPECT_LE(longestProbe(pages), kMaxProbe) << "page-aligned keys";

    // Dense integers: sixteen share each 16-byte granule, so only the
    // low-nibble term keeps them off one slot.
    std::vector<u64> dense;
    for (u64 i = 1; i <= 200000; ++i)
        dense.push_back(i);
    EXPECT_LE(longestProbe(dense), kMaxProbe) << "dense integers";

    std::vector<u64> random;
    while (random.size() < 700000) {
        if (const u64 k = rng.next())
            random.push_back(k);
    }
    EXPECT_LE(longestProbe(random), kMaxProbe) << "random keys";
}

TEST(FlatU64Map, RandomizedDifferentialAgainstUnorderedMap)
{
    // Keys come from five families: uniform random, aligned addresses
    // (low-entropy, like heap bases), key 0, dense integers, and fully
    // packed pages. A page's keys share one run of slots, so a packed
    // page (all 256 of its 16-byte granules) lays down up to 256
    // adjacent entries: every key whose probe starts inside that run
    // has to cross it, and erasing from it shifts long stretches back.
    // Dense integers stack sixteen keys per granule, spread only by
    // their low nibble.
    Rng rng(0xf1a7);
    std::vector<u64> pool;
    for (int i = 0; i < 20000; ++i)
        pool.push_back(rng.next());
    for (u64 i = 0; i < 20000; ++i)
        pool.push_back(0x20000000 + i * 64);
    pool.push_back(0);
    for (u64 i = 1; i <= 2048; ++i)
        pool.push_back(i);
    for (int f = 0; f < 8; ++f) {
        const u64 page = rng.next() >> 12 << 12;
        for (u64 g = 0; g < 256; ++g)
            pool.push_back(page + (g << 4));
    }

    FlatU64Map<u64> map;
    std::unordered_map<u64, u64> ref;
    constexpr int kOps = 1200000;
    for (int i = 0; i < kOps; ++i) {
        const u64 key = pool[rng.below(pool.size())];
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: { // Insert or overwrite.
            const u64 val = rng.next();
            map[key] = val;
            ref[key] = val;
            break;
          }
          case 3: // Read through operator[] (inserts a default).
            ASSERT_EQ(map[key], ref[key]) << "op " << i;
            break;
          case 4: {
            const u64 *got = map.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << i;
            if (got) {
                ASSERT_EQ(*got, it->second) << "op " << i;
            }
            break;
          }
          case 5:
            ASSERT_EQ(map.count(key), ref.count(key)) << "op " << i;
            break;
          default:
            ASSERT_EQ(map.erase(key), ref.erase(key)) << "op " << i;
            break;
        }
        ASSERT_EQ(map.size(), ref.size()) << "op " << i;
        if (i % 400000 == 399999) {
            // Full sweep, then start over from an emptied table that
            // keeps its allocation.
            expectSameEntries(map, ref, pool);
            map.clear();
            ref.clear();
        }
    }
    expectSameEntries(map, ref, pool);
}

} // namespace
} // namespace aos
