/**
 * @file
 * Tests for gradual HBT resizing and the Fig. 10 access routing.
 */

#include <gtest/gtest.h>

#include <new>

#include "bounds/compression.hh"
#include "bounds/hashed_bounds_table.hh"
#include "common/random.hh"

namespace aos::bounds {
namespace {

constexpr Addr kBase = 0x3000'0000'0000ull;

Compressed
rec(unsigned i)
{
    return compress(0x20000000 + u64{i} * 0x100, 64);
}

TEST(HbtResize, DoublesAssociativity)
{
    HashedBoundsTable hbt(kBase, 8, 1);
    EXPECT_EQ(hbt.ways(), 1u);
    hbt.beginResize();
    EXPECT_TRUE(hbt.resizing());
    EXPECT_EQ(hbt.ways(), 2u);
    hbt.finishResize();
    EXPECT_FALSE(hbt.resizing());
    EXPECT_EQ(hbt.ways(), 2u);
    EXPECT_EQ(hbt.primaryAssoc(), 2u);
    EXPECT_EQ(hbt.stats().resizes, 1u);
}

TEST(HbtResize, OverflowInsertSucceedsDuringResize)
{
    HashedBoundsTable hbt(kBase, 8, 1);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(hbt.insert(7, rec(i)).has_value());
    ASSERT_FALSE(hbt.insert(7, rec(8)).has_value());
    hbt.beginResize();
    // Way 1 is out-of-way for the old table, so the new record lands
    // in the new table even before any row migrates (Fig. 10 case 1).
    const auto way = hbt.insert(7, rec(8));
    ASSERT_TRUE(way.has_value());
    EXPECT_EQ(*way, 1u);
    EXPECT_TRUE(hbt.check(7, 0x20000800 + 10, 0, nullptr).has_value());
}

TEST(HbtResize, InsertOrGrowResizesOnlyAFullRow)
{
    HashedBoundsTable hbt(kBase, 8, 1);
    u64 grows = 0;
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(hbt.insertOrGrow(7, rec(i), &grows), 0u);
    EXPECT_EQ(grows, 0u);
    // The ninth record overflows the one-way row: one grow, completed
    // at once, and the record lands in the new way.
    EXPECT_EQ(hbt.insertOrGrow(7, rec(8), &grows), 1u);
    EXPECT_EQ(grows, 1u);
    EXPECT_EQ(hbt.stats().resizes, 1u);
    EXPECT_FALSE(hbt.resizing());
    EXPECT_EQ(hbt.primaryAssoc(), 2u);
    EXPECT_TRUE(hbt.check(7, 0x20000800 + 10, 0, nullptr).has_value());
    EXPECT_EQ(hbt.rowOccupancy(7), 9u);
}

TEST(HbtResize, RoutingDuringMigration)
{
    HashedBoundsTable hbt(kBase, 8, 1);
    // Populate several rows.
    for (u64 pac = 0; pac < 16; ++pac)
        ASSERT_TRUE(hbt.insert(pac, rec(static_cast<unsigned>(pac)))
                        .has_value());
    hbt.beginResize();
    // Migrate the first 8 rows only.
    for (int i = 0; i < 8; ++i)
        ASSERT_FALSE(hbt.migrateRow());
    // Both migrated (pac < RowPtr) and live (pac >= RowPtr) rows must
    // still check correctly mid-migration.
    for (u64 pac = 0; pac < 16; ++pac) {
        EXPECT_TRUE(hbt.check(pac, 0x20000000 + pac * 0x100 + 8, 0,
                              nullptr)
                        .has_value())
            << "pac " << pac;
    }
    // Migrated rows resolve to the new table's addresses, live rows to
    // the old table's.
    EXPECT_NE(hbt.wayAddr(0, 0), kBase);
    EXPECT_EQ(hbt.wayAddr(8, 0), kBase + (u64{8} << 6));
    hbt.finishResize();
    for (u64 pac = 0; pac < 16; ++pac) {
        EXPECT_TRUE(hbt.check(pac, 0x20000000 + pac * 0x100 + 8, 0,
                              nullptr)
                        .has_value());
    }
}

TEST(HbtResize, ClearWorksAcrossMigrationBoundary)
{
    HashedBoundsTable hbt(kBase, 4, 1);
    for (u64 pac = 0; pac < 8; ++pac)
        hbt.insert(pac, rec(static_cast<unsigned>(pac)));
    hbt.beginResize();
    for (int i = 0; i < 4; ++i)
        hbt.migrateRow();
    // Clear one migrated, one unmigrated.
    EXPECT_TRUE(hbt.clear(1, 0x20000100).has_value());
    EXPECT_TRUE(hbt.clear(6, 0x20000600).has_value());
    hbt.finishResize();
    EXPECT_FALSE(hbt.check(1, 0x20000100, 0, nullptr).has_value());
    EXPECT_FALSE(hbt.check(6, 0x20000600, 0, nullptr).has_value());
}

TEST(HbtResize, RepeatedResizes)
{
    HashedBoundsTable hbt(kBase, 4, 1);
    for (unsigned round = 0; round < 3; ++round) {
        hbt.beginResize();
        hbt.finishResize();
    }
    EXPECT_EQ(hbt.ways(), 8u);
    EXPECT_EQ(hbt.stats().resizes, 3u);
    // Table contents must still be writable and readable.
    ASSERT_TRUE(hbt.insert(3, rec(1)).has_value());
    EXPECT_TRUE(hbt.check(3, 0x20000100 + 8, 0, nullptr).has_value());
}

TEST(HbtResize, SuccessiveTablesGetDisjointAddressRanges)
{
    HashedBoundsTable hbt(kBase, 4, 1);
    const Addr before = hbt.wayAddr(5, 0);
    hbt.beginResize();
    hbt.finishResize();
    const Addr after = hbt.wayAddr(5, 0);
    EXPECT_NE(before, after);
    hbt.beginResize();
    hbt.finishResize();
    EXPECT_NE(hbt.wayAddr(5, 0), after);
}

TEST(HbtResize, StressWithRandomChurnDuringMigration)
{
    // Property: no record is ever lost or duplicated across a
    // migration with interleaved inserts/clears/checks.
    HashedBoundsTable hbt(kBase, 6, 1);
    Rng rng(5);
    std::vector<std::pair<u64, Addr>> live; // (pac, base)
    u64 next_base = 0x20000000;

    auto insert_one = [&]() {
        const u64 pac = rng.below(64);
        const Addr base = next_base;
        next_base += 0x100;
        if (hbt.insert(pac, compress(base, 64)))
            live.emplace_back(pac, base);
    };

    for (int i = 0; i < 200; ++i)
        insert_one();
    hbt.beginResize();

    for (int step = 0; step < 2000; ++step) {
        if (hbt.resizing() && rng.chance(0.05))
            hbt.migrateRow();
        const double roll = rng.uniform();
        if (roll < 0.4) {
            insert_one();
        } else if (roll < 0.6 && !live.empty()) {
            const u64 idx = rng.below(live.size());
            ASSERT_TRUE(
                hbt.clear(live[idx].first, live[idx].second).has_value());
            live[idx] = live.back();
            live.pop_back();
        } else if (!live.empty()) {
            const u64 idx = rng.below(live.size());
            ASSERT_TRUE(hbt.check(live[idx].first, live[idx].second + 32,
                                  0, nullptr)
                            .has_value())
                << "live record lost at step " << step;
        }
    }
    hbt.finishResize();
    for (const auto &[pac, base] : live) {
        ASSERT_TRUE(hbt.check(pac, base + 8, 0, nullptr).has_value());
        ASSERT_TRUE(hbt.clear(pac, base).has_value());
    }
    EXPECT_EQ(hbt.stats().occupied, 0u);
}

TEST(HbtResize, AllocationFailureLeavesTableIntact)
{
    // Strong exception guarantee: when the OS cannot allocate the
    // doubled table, the old table is untouched and fully usable.
    HashedBoundsTable hbt(kBase, 8, 1);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(hbt.insert(7, rec(i)).has_value());

    unsigned attempts = 0;
    hbt.onResizeAlloc = [&](u64 slots) {
        ++attempts;
        EXPECT_GT(slots, 0u);
        throw std::bad_alloc();
    };
    EXPECT_THROW(hbt.beginResize(), std::bad_alloc);
    EXPECT_EQ(attempts, 1u);

    EXPECT_FALSE(hbt.resizing());
    EXPECT_EQ(hbt.ways(), 1u);
    EXPECT_EQ(hbt.stats().resizes, 0u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(hbt.check(7, 0x20000000 + u64(i) * 0x100 + 8, 0,
                              nullptr)
                        .has_value());
    }
    // The full row still fails cleanly instead of corrupting anything.
    EXPECT_FALSE(hbt.insert(7, rec(8)).has_value());

    // Memory pressure clears: the retried resize succeeds.
    hbt.onResizeAlloc = nullptr;
    hbt.beginResize();
    EXPECT_TRUE(hbt.resizing());
    EXPECT_TRUE(hbt.insert(7, rec(8)).has_value());
    hbt.finishResize();
    EXPECT_EQ(hbt.stats().occupied, 9u);
}

TEST(HbtResize, BeginResizeWhileResizingIsNoOp)
{
    HashedBoundsTable hbt(kBase, 8, 1);
    hbt.beginResize();
    EXPECT_EQ(hbt.ways(), 2u);
    // A second request while migration is in flight must not restart
    // or corrupt the resize (the OS may race the table manager).
    hbt.beginResize();
    EXPECT_EQ(hbt.ways(), 2u);
    EXPECT_EQ(hbt.stats().resizes, 1u);
}

} // namespace
} // namespace aos::bounds
