/**
 * @file
 * Tests for the out-of-order core timing model.
 */

#include <gtest/gtest.h>

#include "cpu/ooo_core.hh"

namespace aos::cpu {
namespace {

ir::MicroOp
op(ir::OpKind kind, Addr addr = 0)
{
    ir::MicroOp out;
    out.kind = kind;
    out.addr = addr;
    out.size = 8;
    return out;
}

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest() : layout(16, 46), mem() {}

    CoreStats
    runOps(std::vector<ir::MicroOp> ops, const CoreConfig &config = {},
           mcu::MemoryCheckUnit *mcu_ptr = nullptr)
    {
        OoOCore core(config, layout, &mem, mcu_ptr);
        ir::VectorStream stream(std::move(ops));
        return core.run(stream);
    }

    pa::PointerLayout layout;
    memsim::MemorySystem mem;
};

TEST_F(CoreTest, EmptyStreamTerminates)
{
    const CoreStats stats = runOps({});
    EXPECT_EQ(stats.committed, 0u);
    EXPECT_LT(stats.cycles, 5u);
}

TEST_F(CoreTest, CommitsEveryOp)
{
    std::vector<ir::MicroOp> ops(1000, op(ir::OpKind::kIntAlu));
    const CoreStats stats = runOps(std::move(ops));
    EXPECT_EQ(stats.committed, 1000u);
}

TEST_F(CoreTest, WidthBoundsAluThroughput)
{
    // 8-wide machine: 8000 single-cycle ops need >= 1000 cycles, and
    // with no stalls should be close to that.
    std::vector<ir::MicroOp> ops(8000, op(ir::OpKind::kIntAlu));
    const CoreStats stats = runOps(std::move(ops));
    EXPECT_GE(stats.cycles, 1000u);
    EXPECT_LT(stats.cycles, 1100u);
    EXPECT_GT(stats.ipc(), 7.0);
}

TEST_F(CoreTest, CacheMissStallsCommit)
{
    // A single cold load among ALU ops costs roughly a DRAM round trip.
    std::vector<ir::MicroOp> base(800, op(ir::OpKind::kIntAlu));
    const CoreStats fast = runOps(base);

    std::vector<ir::MicroOp> with_load = base;
    with_load[400] = op(ir::OpKind::kLoad, 0x20000000);
    memsim::MemorySystem fresh;
    OoOCore core(CoreConfig{}, layout, &fresh, nullptr);
    ir::VectorStream stream(std::move(with_load));
    const CoreStats slow = core.run(stream);
    EXPECT_GT(slow.cycles, fast.cycles + 50);
}

TEST_F(CoreTest, LoadsAndStoresCounted)
{
    std::vector<ir::MicroOp> ops;
    for (int i = 0; i < 10; ++i)
        ops.push_back(op(ir::OpKind::kLoad, 0x20000000 + i * 8));
    for (int i = 0; i < 5; ++i)
        ops.push_back(op(ir::OpKind::kStore, 0x20001000 + i * 8));
    const CoreStats stats = runOps(std::move(ops));
    EXPECT_EQ(stats.loads, 10u);
    EXPECT_EQ(stats.stores, 5u);
}

TEST_F(CoreTest, PredictableBranchesAreCheap)
{
    std::vector<ir::MicroOp> ops;
    for (int i = 0; i < 4000; ++i) {
        ir::MicroOp b = op(ir::OpKind::kBranch);
        b.branchId = 1;
        b.taken = true;
        ops.push_back(b);
    }
    const CoreStats stats = runOps(std::move(ops));
    EXPECT_EQ(stats.branches, 4000u);
    EXPECT_LT(stats.mispredicts, 100u);
}

TEST_F(CoreTest, MispredictsCostCycles)
{
    // Alternating hard-random outcomes across many branch ids.
    std::vector<ir::MicroOp> easy, hard;
    for (int i = 0; i < 4000; ++i) {
        ir::MicroOp b = op(ir::OpKind::kBranch);
        b.branchId = static_cast<u32>(i % 64);
        b.taken = true;
        easy.push_back(b);
        b.taken = (i * 2654435761u) & 0x10000; // pseudo-random
        hard.push_back(b);
    }
    const CoreStats easy_stats = runOps(std::move(easy));
    memsim::MemorySystem fresh;
    OoOCore core(CoreConfig{}, layout, &fresh, nullptr);
    ir::VectorStream stream(std::move(hard));
    const CoreStats hard_stats = core.run(stream);
    EXPECT_GT(hard_stats.mispredicts, easy_stats.mispredicts + 100);
    EXPECT_GT(hard_stats.cycles, easy_stats.cycles * 2);
}

TEST_F(CoreTest, PacOpsTakeFourCycles)
{
    // A long dependence-free string of pacma ops is throughput-bound,
    // not latency-bound; but each op's latency shows at the commit
    // point of a single op.
    std::vector<ir::MicroOp> one{op(ir::OpKind::kPacma)};
    const CoreStats stats = runOps(std::move(one));
    EXPECT_GE(stats.cycles, 4u);
}

TEST_F(CoreTest, McuBackPressureStallsIssue)
{
    // With a 2-entry MCQ, a burst of signed loads (cold bounds
    // accesses) must throttle issue via mcqFullStalls.
    bounds::HashedBoundsTable hbt(0x3000'0000'0000ull, 16, 1);
    bounds::BoundsWayBuffer bwb(64);
    for (int i = 0; i < 8; ++i)
        hbt.insert(3, bounds::compress(0x20000000 + i * 0x1000, 256));
    mcu::McuConfig mcfg;
    mcfg.mcqEntries = 2;
    mcu::MemoryCheckUnit unit(mcfg, layout, &hbt, &bwb, &mem);

    std::vector<ir::MicroOp> ops;
    for (int i = 0; i < 64; ++i) {
        ops.push_back(op(ir::OpKind::kLoad,
                         layout.compose(0x20000000 + (i % 8) * 0x1000, 3,
                                        2)));
    }
    const CoreStats stats = runOps(std::move(ops), CoreConfig{}, &unit);
    EXPECT_EQ(stats.committed, 64u);
    EXPECT_GT(stats.mcqFullStalls, 0u);
}

TEST_F(CoreTest, DelayedRetirementWaitsForValidation)
{
    bounds::HashedBoundsTable hbt(0x3000'0000'0000ull, 16, 1);
    bounds::BoundsWayBuffer bwb(64);
    hbt.insert(3, bounds::compress(0x20000000, 256));
    mcu::MemoryCheckUnit unit(mcu::McuConfig{}, layout, &hbt, &bwb, &mem);

    std::vector<ir::MicroOp> ops;
    ops.push_back(op(ir::OpKind::kLoad, layout.compose(0x20000000, 3, 2)));
    const CoreStats stats = runOps(std::move(ops), CoreConfig{}, &unit);
    EXPECT_EQ(stats.committed, 1u);
    // The signed load cannot retire before its (cold, ~DRAM-latency)
    // bounds check completes.
    EXPECT_GT(stats.cycles, 100u);
    EXPECT_GT(stats.retireDelayed, 0u);
}

TEST_F(CoreTest, BndstrRetiresAfterOccupancyCheck)
{
    bounds::HashedBoundsTable hbt(0x3000'0000'0000ull, 16, 1);
    bounds::BoundsWayBuffer bwb(64);
    mcu::MemoryCheckUnit unit(mcu::McuConfig{}, layout, &hbt, &bwb, &mem);

    std::vector<ir::MicroOp> ops;
    ir::MicroOp b = op(ir::OpKind::kBndstr,
                       layout.compose(0x20000000, 3, 2));
    b.size = 128;
    ops.push_back(b);
    ops.push_back(op(ir::OpKind::kIntAlu));
    const CoreStats stats = runOps(std::move(ops), CoreConfig{}, &unit);
    EXPECT_EQ(stats.committed, 2u);
    // The machine drains fully: the post-commit table write happened.
    EXPECT_EQ(hbt.stats().inserts, 1u);
    EXPECT_TRUE(unit.empty());
}

TEST_F(CoreTest, RobLimitRespected)
{
    // A tiny ROB with a long-latency op at the head forces issue
    // stalls.
    CoreConfig config;
    config.robEntries = 4;
    std::vector<ir::MicroOp> ops;
    ops.push_back(op(ir::OpKind::kLoad, 0x20000000)); // cold miss
    for (int i = 0; i < 100; ++i)
        ops.push_back(op(ir::OpKind::kIntAlu));
    const CoreStats stats = runOps(std::move(ops), config);
    EXPECT_GT(stats.robFullStalls, 0u);
}

TEST_F(CoreTest, LsqLimitRespected)
{
    CoreConfig config;
    config.lqEntries = 2;
    std::vector<ir::MicroOp> ops;
    ops.push_back(op(ir::OpKind::kLoad, 0x20000000)); // cold DRAM miss
    for (int i = 0; i < 30; ++i)
        ops.push_back(op(ir::OpKind::kLoad, 0x20000000)); // hits
    const CoreStats stats = runOps(std::move(ops), config);
    EXPECT_EQ(stats.loads, 31u);
    EXPECT_GT(stats.lsqFullStalls, 0u);
}

TEST_F(CoreTest, MaxOpsStopsWithoutOverPulling)
{
    // run() pulls the stream in blocks, but never past max_ops: a
    // second run() picks up exactly where the first stopped.
    OoOCore core(CoreConfig{}, layout, &mem, nullptr);
    ir::VectorStream stream(
        std::vector<ir::MicroOp>(1000, op(ir::OpKind::kIntAlu)));
    EXPECT_EQ(core.run(stream, 100).committed, 100u);
    EXPECT_EQ(core.run(stream, 0).committed, 1000u);
}

TEST_F(CoreTest, MaxOpsCountsOpsIssuedInThisCall)
{
    // max_ops bounds each call, not the core's lifetime: a second
    // run(stream, 100) issues 100 more.
    OoOCore core(CoreConfig{}, layout, &mem, nullptr);
    ir::VectorStream stream(
        std::vector<ir::MicroOp>(1000, op(ir::OpKind::kIntAlu)));
    EXPECT_EQ(core.run(stream, 100).committed, 100u);
    EXPECT_EQ(core.run(stream, 100).committed, 200u);
}

// ---- Frozen stall accounting ------------------------------------------
//
// The core jumps over cycles in which nothing commits, issues or steps
// in the MCU, and credits each skipped cycle with the stall counts of
// the cycle before the jump. These scenarios spend most of their time
// in such stretches. Their counters were frozen from the cycle-by-cycle
// loop, which stepped every cycle, so any drift in the skip shows here.

struct FrozenStalls
{
    u64 cycles;
    u64 retireDelayed;
    u64 robFullStalls;
    u64 lsqFullStalls;
    u64 mcqFullStalls;
};

void
expectStalls(const CoreStats &stats, const FrozenStalls &frozen)
{
    EXPECT_EQ(stats.cycles, frozen.cycles);
    EXPECT_EQ(stats.retireDelayed, frozen.retireDelayed);
    EXPECT_EQ(stats.robFullStalls, frozen.robFullStalls);
    EXPECT_EQ(stats.lsqFullStalls, frozen.lsqFullStalls);
    EXPECT_EQ(stats.mcqFullStalls, frozen.mcqFullStalls);
}

TEST_F(CoreTest, DramMissAtHeadFillsRobThenLoadQueueExactly)
{
    // A cold load holds the ROB head while 200 ALU ops fill the ROB;
    // then a second cold load holds it while 40 hits fill the LQ.
    std::vector<ir::MicroOp> ops;
    ops.push_back(op(ir::OpKind::kLoad, 0x20000000));
    for (int i = 0; i < 200; ++i)
        ops.push_back(op(ir::OpKind::kIntAlu));
    ops.push_back(op(ir::OpKind::kLoad, 0x28000000));
    for (int i = 0; i < 40; ++i)
        ops.push_back(op(ir::OpKind::kLoad, 0x20000000 + (i % 8) * 8));
    const CoreStats stats = runOps(std::move(ops));
    EXPECT_EQ(stats.committed, 242u);
    expectStalls(stats, {225, 0, 85, 105, 0});
}

TEST_F(CoreTest, SignedLoadDelaysRetirementExactly)
{
    // Two signed loads whose cold bounds walks outlast their cached
    // data accesses, with ALU work between them.
    bounds::HashedBoundsTable hbt(0x3000'0000'0000ull, 16, 1);
    bounds::BoundsWayBuffer bwb(64);
    hbt.insert(3, bounds::compress(0x20000000, 256));
    hbt.insert(5, bounds::compress(0x20004000, 256));
    mcu::MemoryCheckUnit unit(mcu::McuConfig{}, layout, &hbt, &bwb, &mem);
    // Warm the data lines: only the bounds walks go to DRAM.
    mem.dataAccess(0x20000010, false);
    mem.dataAccess(0x20004020, false);

    std::vector<ir::MicroOp> ops;
    ops.push_back(op(ir::OpKind::kLoad, layout.compose(0x20000010, 3, 2)));
    for (int i = 0; i < 20; ++i)
        ops.push_back(op(ir::OpKind::kIntAlu));
    ops.push_back(op(ir::OpKind::kLoad, layout.compose(0x20004020, 5, 2)));
    for (int i = 0; i < 20; ++i)
        ops.push_back(op(ir::OpKind::kIntAlu));
    const CoreStats stats = runOps(std::move(ops), CoreConfig{}, &unit);
    EXPECT_EQ(stats.committed, 42u);
    expectStalls(stats, {118, 111, 0, 0, 0});
}

TEST_F(CoreTest, MispredictWhileMcqFullExactly)
{
    // Signed loads back-pressure a 4-entry MCQ; the hard-to-predict
    // branch behind each one issues inside the MCQ-stall cooldown, so
    // its redirect penalty is the halved one.
    bounds::HashedBoundsTable hbt(0x3000'0000'0000ull, 16, 1);
    bounds::BoundsWayBuffer bwb(64);
    for (int i = 0; i < 8; ++i)
        hbt.insert(3, bounds::compress(0x20000000 + i * 0x1000, 256));
    mcu::McuConfig mcfg;
    mcfg.mcqEntries = 4;
    mcu::MemoryCheckUnit unit(mcfg, layout, &hbt, &bwb, &mem);

    std::vector<ir::MicroOp> ops;
    for (int i = 0; i < 64; ++i) {
        ops.push_back(op(ir::OpKind::kLoad,
                         layout.compose(0x20000000 + (i % 8) * 0x1000, 3,
                                        2)));
        ir::MicroOp b = op(ir::OpKind::kBranch);
        b.branchId = static_cast<u32>(i % 16);
        b.taken = (i * 2654435761u) & 0x10000;
        ops.push_back(b);
    }
    const CoreStats stats = runOps(std::move(ops), CoreConfig{}, &unit);
    EXPECT_EQ(stats.committed, 128u);
    EXPECT_EQ(stats.mispredicts, 36u);
    expectStalls(stats, {388, 89, 0, 0, 204});
}

TEST(CoreDeath, McqLargerThanItsRingIsFatal)
{
    // The MCU's slot mask is one u64: a 64-entry MCQ is the largest.
    pa::PointerLayout layout(16, 46);
    memsim::MemorySystem mem;
    bounds::HashedBoundsTable hbt(0x3000'0000'0000ull, 16, 1);
    mcu::McuConfig mcfg;
    mcfg.mcqEntries = 64;
    mcu::MemoryCheckUnit fits(mcfg, layout, &hbt, nullptr, &mem);
    EXPECT_TRUE(fits.empty());
    mcfg.mcqEntries = 65;
    EXPECT_DEATH(mcu::MemoryCheckUnit(mcfg, layout, &hbt, nullptr, &mem),
                 "exceeds");
}

} // namespace
} // namespace aos::cpu
