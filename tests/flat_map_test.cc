/**
 * @file
 * Tests for FlatU64Map (common/flat_map.hh): a randomized differential
 * against std::unordered_map, plus the corners of open addressing that
 * random keys rarely reach — key 0's side slot, probe chains of keys
 * that share an ideal index, and backward-shift deletion across the
 * end of the table.
 */

#include <algorithm>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_map.hh"
#include "common/random.hh"

namespace aos {
namespace {

/**
 * The ideal slot of @p key in a table of @p cap slots. Mirrors
 * FlatU64Map's Fibonacci hash, so a test can build probe chains at
 * chosen places in the table.
 */
size_t
idealIndex(u64 key, size_t cap)
{
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) &
           (cap - 1);
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

TEST(FlatU64Map, RandomizedDifferentialAgainstUnorderedMap)
{
    // Keys come from four families: uniform random, aligned addresses
    // (low-entropy, like heap bases), key 0, and keys spaced 2^52
    // apart. Fibonacci hashing takes the slot from bits 32 and up of
    // key * phi; adding a multiple of 2^52 leaves every bit below 52
    // unchanged, so each spaced family shares one ideal slot in every
    // table of up to 2^20 slots and builds long probe chains as the
    // table grows through rehash.
    Rng rng(0xf1a7);
    std::vector<u64> pool;
    for (int i = 0; i < 20000; ++i)
        pool.push_back(rng.next());
    for (u64 i = 0; i < 20000; ++i)
        pool.push_back(0x20000000 + i * 64);
    pool.push_back(0);
    for (int f = 0; f < 8; ++f) {
        const u64 base = rng.next() >> 12;
        for (u64 t = 0; t < 256; ++t)
            pool.push_back(base + (t << 52));
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
