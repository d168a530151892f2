/**
 * @file
 * Tests for the memory check unit: FSM behaviour (Fig. 8), selective
 * checking, way iteration, BWB interplay, bounds forwarding, replay
 * and fault handling.
 */

#include <gtest/gtest.h>

#include "mcu/memory_check_unit.hh"

namespace aos::mcu {
namespace {

class McuTest : public ::testing::Test
{
  protected:
    McuTest()
        : layout(16, 46), hbt(0x3000'0000'0000ull, 16, 1), bwb(64),
          mcu(McuConfig{}, layout, &hbt, &bwb, &mem)
    {
    }

    /** Run the MCU until @p seq is retirable (bounded). */
    void
    settle(u64 seq, unsigned max_cycles = 1000)
    {
        for (unsigned i = 0; i < max_cycles; ++i) {
            if (mcu.readyToRetire(seq) ||
                mcu.faulted(seq)) {
                return;
            }
            mcu.tick(now++);
        }
        FAIL() << "seq " << seq << " never settled";
    }

    /** Commit + drain an entry through its post-retire work. */
    void
    commitAndDrain(u64 seq)
    {
        mcu.markCommitted(seq);
        for (unsigned i = 0; i < 100 && !mcu.empty(); ++i) {
            mcu.tick(now++);
            mcu.drainRetired();
            if (!mcu.readyToRetire(seq))
                continue;
        }
    }

    Addr
    signedPtr(Addr raw, u64 pac, u64 ahc = 1)
    {
        return layout.compose(raw, pac, ahc);
    }

    pa::PointerLayout layout;
    memsim::MemorySystem mem;
    bounds::HashedBoundsTable hbt;
    bounds::BoundsWayBuffer bwb;
    MemoryCheckUnit mcu;
    Tick now = 0;
    u64 seq = 1;
};

TEST_F(McuTest, UnsignedAccessSkipsChecking)
{
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kLoad, 0x20001000, 8, seq, now));
    settle(seq);
    EXPECT_TRUE(mcu.readyToRetire(seq));
    EXPECT_EQ(mcu.stats().uncheckedOps, 1u);
    EXPECT_EQ(mcu.stats().checkedOps, 0u);
    EXPECT_EQ(mcu.stats().boundsLineLoads, 0u);
}

TEST_F(McuTest, SignedAccessWithValidBoundsPasses)
{
    hbt.insert(7, bounds::compress(0x20001000, 64));
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kLoad,
                            signedPtr(0x20001020, 7), 8, seq, now));
    settle(seq);
    EXPECT_TRUE(mcu.readyToRetire(seq));
    EXPECT_FALSE(mcu.faulted(seq));
    EXPECT_EQ(mcu.stats().checkedOps, 1u);
    EXPECT_GE(mcu.stats().boundsLineLoads, 1u);
}

TEST_F(McuTest, SignedAccessWithoutBoundsFaults)
{
    // The Fail state is serviced at the MCQ head in the same cycle it
    // is observed, so faults are witnessed through the OS hook.
    FaultKind seen = FaultKind::kNone;
    mcu.onFault = [&](FaultKind kind, const McqEntry &entry) {
        seen = kind;
        EXPECT_EQ(entry.seq, 1u);
        return false; // report-and-resume
    };
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kStore,
                            signedPtr(0x20002000, 9), 8, seq, now));
    settle(seq);
    EXPECT_EQ(seen, FaultKind::kBoundsViolation);
    EXPECT_EQ(mcu.stats().boundsFailures, 1u);
}

TEST_F(McuTest, OutOfBoundsAddressFaults)
{
    FaultKind seen = FaultKind::kNone;
    mcu.onFault = [&](FaultKind kind, const McqEntry &) {
        seen = kind;
        return false;
    };
    hbt.insert(7, bounds::compress(0x20001000, 64));
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kLoad,
                            signedPtr(0x20001040, 7), 8, seq, now));
    settle(seq);
    EXPECT_EQ(seen, FaultKind::kBoundsViolation);
}

TEST_F(McuTest, DefaultFaultPolicyResumesAtHead)
{
    // Without an onFault handler a violation is recorded and the
    // instruction completes (report-and-resume). Needs to outlast the
    // cold bounds-line access (~DRAM latency).
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kLoad,
                            signedPtr(0x20002000, 9), 8, seq, now));
    for (unsigned i = 0; i < 500 && !mcu.readyToRetire(seq); ++i)
        mcu.tick(now++);
    EXPECT_TRUE(mcu.readyToRetire(seq));
    EXPECT_EQ(mcu.stats().boundsFailures, 1u);
}

TEST_F(McuTest, BndstrInsertsAfterCommit)
{
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kBndstr,
                            signedPtr(0x20001000, 7), 64, seq, now));
    settle(seq);
    EXPECT_TRUE(mcu.readyToRetire(seq));
    // Not yet in the table: the write is post-commit.
    EXPECT_EQ(hbt.stats().inserts, 0u);
    commitAndDrain(seq);
    EXPECT_EQ(hbt.stats().inserts, 1u);
    EXPECT_TRUE(hbt.check(7, 0x20001010, 0, nullptr).has_value());
    EXPECT_EQ(mcu.stats().boundsStores, 1u);
}

TEST_F(McuTest, BndclrRemovesBounds)
{
    hbt.insert(7, bounds::compress(0x20001000, 64));
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kBndclr,
                            signedPtr(0x20001000, 7), 0, seq, now));
    settle(seq);
    commitAndDrain(seq);
    EXPECT_FALSE(hbt.check(7, 0x20001000, 0, nullptr).has_value());
}

TEST_F(McuTest, BndclrWithoutBoundsFaults)
{
    // Double free / House-of-Spirit detection.
    FaultKind seen = FaultKind::kNone;
    mcu.onFault = [&](FaultKind kind, const McqEntry &) {
        seen = kind;
        return false;
    };
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kBndclr,
                            signedPtr(0x20001000, 7), 0, seq, now));
    settle(seq);
    EXPECT_EQ(seen, FaultKind::kClearFailure);
    EXPECT_EQ(mcu.stats().clearFailures, 1u);
}

TEST_F(McuTest, BndstrOverflowTriggersResizeAndRetries)
{
    for (int i = 0; i < 8; ++i)
        hbt.insert(7, bounds::compress(0x30000000 + i * 0x100, 64));
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kBndstr,
                            signedPtr(0x20001000, 7), 64, seq, now));
    // Let the FSM hit the full row, fault, resize, retry and succeed.
    for (unsigned i = 0; i < 3000 && !mcu.readyToRetire(seq); ++i)
        mcu.tick(now++);
    ASSERT_TRUE(mcu.readyToRetire(seq));
    EXPECT_GE(hbt.stats().resizes, 1u);
    commitAndDrain(seq);
    EXPECT_TRUE(hbt.check(7, 0x20001010, 0, nullptr).has_value());
}

TEST_F(McuTest, WayIterationFindsBoundsInLaterWay)
{
    bounds::HashedBoundsTable wide(0x3000'0000'0000ull, 16, 4);
    MemoryCheckUnit mcu2(McuConfig{}, layout, &wide, &bwb, &mem);
    // Fill way 0 with decoys; the target object lands in way 1.
    for (int i = 0; i < 8; ++i)
        wide.insert(7, bounds::compress(0x30000000 + i * 0x100, 64));
    wide.insert(7, bounds::compress(0x20001000, 64));
    ASSERT_TRUE(mcu2.enqueue(ir::OpKind::kLoad,
                             signedPtr(0x20001010, 7), 8, seq, now));
    for (unsigned i = 0; i < 1000 && !mcu2.readyToRetire(seq); ++i)
        mcu2.tick(now++);
    ASSERT_TRUE(mcu2.readyToRetire(seq));
    EXPECT_FALSE(mcu2.faulted(seq));
    mcu2.markCommitted(seq);
    mcu2.tick(now++);
    mcu2.drainRetired();
    EXPECT_EQ(mcu2.stats().waysTouchedTotal, 2u)
        << "ways 0 (miss) and 1 (hit)";
}

TEST_F(McuTest, BwbHintShortensSecondSearch)
{
    bounds::HashedBoundsTable wide(0x3000'0000'0000ull, 16, 4);
    MemoryCheckUnit mcu2(McuConfig{}, layout, &wide, &bwb, &mem);
    for (int i = 0; i < 8; ++i)
        wide.insert(7, bounds::compress(0x30000000 + i * 0x100, 64));
    wide.insert(7, bounds::compress(0x20001000, 64));

    auto run_check = [&](u64 s) {
        EXPECT_TRUE(mcu2.enqueue(ir::OpKind::kLoad,
                                 signedPtr(0x20001010, 7), 8, s, now));
        for (unsigned i = 0; i < 1000 && !mcu2.readyToRetire(s); ++i)
            mcu2.tick(now++);
        mcu2.markCommitted(s);
        mcu2.tick(now++);
        mcu2.drainRetired();
    };
    run_check(1);
    const u64 after_first = mcu2.stats().boundsLineLoads;
    EXPECT_EQ(after_first, 2u) << "first search: ways 0 then 1";
    run_check(2);
    EXPECT_EQ(mcu2.stats().boundsLineLoads, after_first + 1)
        << "BWB hint should jump straight to way 1";
    EXPECT_EQ(bwb.stats().hits, 1u);
}

TEST_F(McuTest, BoundsForwardingFromInflightBndstr)
{
    // A load right after the bndstr of the same object is satisfied by
    // forwarding, before the bounds ever reach the table (SV-F2).
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kBndstr,
                            signedPtr(0x20001000, 7), 64, 1, now));
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kLoad,
                            signedPtr(0x20001020, 7), 8, 2, now));
    settle(2);
    EXPECT_TRUE(mcu.readyToRetire(2));
    EXPECT_FALSE(mcu.faulted(2));
    EXPECT_EQ(mcu.stats().forwards, 1u);
}

TEST_F(McuTest, ForwardingDisabledGoesToMemory)
{
    McuConfig config;
    config.boundsForwarding = false;
    MemoryCheckUnit mcu2(config, layout, &hbt, &bwb, &mem);
    ASSERT_TRUE(mcu2.enqueue(ir::OpKind::kBndstr,
                             signedPtr(0x20001000, 7), 64, 1, now));
    ASSERT_TRUE(mcu2.enqueue(ir::OpKind::kLoad,
                             signedPtr(0x20001020, 7), 8, 2, now));
    // The load must wait for the bndstr to commit; commit it.
    for (unsigned i = 0; i < 50; ++i)
        mcu2.tick(now++);
    mcu2.markCommitted(1);
    for (unsigned i = 0; i < 200 && !mcu2.readyToRetire(2); ++i) {
        mcu2.tick(now++);
        mcu2.drainRetired();
    }
    EXPECT_TRUE(mcu2.readyToRetire(2));
    EXPECT_FALSE(mcu2.faulted(2));
    EXPECT_EQ(mcu2.stats().forwards, 0u);
    EXPECT_GE(mcu2.stats().replays, 1u) << "commit replays the load";
}

TEST_F(McuTest, StoreLoadReplayOnBndclr)
{
    // A same-PAC load whose way search is still in flight when a
    // bndclr commits must be replayed with a reset Count (SV-E).
    bounds::HashedBoundsTable wide(0x3000'0000'0000ull, 16, 2);
    MemoryCheckUnit mcu2(McuConfig{}, layout, &wide, &bwb, &mem);
    // Way 0: eight decoy objects; way 1: the load's target object.
    for (int i = 0; i < 8; ++i)
        wide.insert(7, bounds::compress(0x30000000 + i * 0x100, 64));
    wide.insert(7, bounds::compress(0x20001000, 64));

    // bndclr of a way-0 decoy resolves after one (slow, cold) way
    // access; the load needs two sequential way accesses, so its
    // search is still outstanding when the clear commits.
    ASSERT_TRUE(mcu2.enqueue(ir::OpKind::kBndclr,
                             signedPtr(0x30000000, 7), 0, 1, now));
    ASSERT_TRUE(mcu2.enqueue(ir::OpKind::kLoad,
                             signedPtr(0x20001020, 7), 8, 2, now));
    for (unsigned i = 0; i < 1000 && !mcu2.readyToRetire(1); ++i)
        mcu2.tick(now++);
    ASSERT_TRUE(mcu2.readyToRetire(1));
    mcu2.markCommitted(1);
    for (unsigned i = 0; i < 1000 && !mcu2.readyToRetire(2); ++i) {
        mcu2.tick(now++);
        mcu2.drainRetired();
    }
    EXPECT_GE(mcu2.stats().replays, 1u);
    // The load's own object was not cleared: after the replay it must
    // complete successfully.
    EXPECT_TRUE(mcu2.readyToRetire(2));
    EXPECT_FALSE(mcu2.faulted(2));
}

TEST_F(McuTest, BackPressureWhenFull)
{
    McuConfig config;
    config.mcqEntries = 4;
    MemoryCheckUnit mcu2(config, layout, &hbt, &bwb, &mem);
    for (u64 s = 1; s <= 4; ++s)
        ASSERT_TRUE(mcu2.enqueue(ir::OpKind::kLoad, 0x20000000 + s * 64,
                                 8, s, now));
    EXPECT_TRUE(mcu2.full());
    EXPECT_FALSE(mcu2.enqueue(ir::OpKind::kLoad, 0x20010000, 8, 5, now));
    // Draining frees space (entries must be committed first).
    for (u64 s = 1; s <= 4; ++s)
        mcu2.markCommitted(s);
    for (unsigned i = 0; i < 10; ++i) {
        mcu2.tick(now++);
        mcu2.drainRetired();
    }
    EXPECT_FALSE(mcu2.full());
}

TEST_F(McuTest, FifoDrainOrder)
{
    hbt.insert(7, bounds::compress(0x20001000, 64));
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kLoad,
                            signedPtr(0x20001000, 7), 8, 1, now));
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kLoad, 0x600000, 8, 2, now));
    settle(2);
    // Only seq 2 committed: nothing drains past the uncommitted head.
    mcu.markCommitted(2);
    mcu.tick(now++);
    mcu.drainRetired();
    EXPECT_EQ(mcu.occupancy(), 2u);
    mcu.markCommitted(1);
    settle(1);
    mcu.tick(now++);
    mcu.drainRetired();
    EXPECT_EQ(mcu.occupancy(), 0u);
}

struct McuSweepCase
{
    unsigned ports;
    bool bwb;
    bool forwarding;
    unsigned assoc;
};

// Print a case by its fields rather than as raw bytes (which include
// uninitialised padding), so the listed test names are the same in
// every build.
void PrintTo(const McuSweepCase &c, std::ostream *os)
{
    *os << "ports " << c.ports << ", bwb " << c.bwb << ", forwarding "
        << c.forwarding << ", assoc " << c.assoc;
}

class McuConfigSweep : public ::testing::TestWithParam<McuSweepCase>
{
};

TEST_P(McuConfigSweep, CorrectnessHoldsUnderEveryConfiguration)
{
    // Whatever the micro-architectural knobs, the architectural
    // contract is fixed: valid accesses retire cleanly, invalid ones
    // fault. Run a mixed scenario under each configuration.
    const McuSweepCase c = GetParam();
    pa::PointerLayout layout(16, 46);
    memsim::MemorySystem mem;
    bounds::HashedBoundsTable hbt(0x3000'0000'0000ull, 16, c.assoc);
    bounds::BoundsWayBuffer bwb(64);
    McuConfig config;
    config.boundsPortsPerCycle = c.ports;
    config.useBwb = c.bwb;
    config.boundsForwarding = c.forwarding;
    MemoryCheckUnit unit(config, layout, &hbt, &bwb, &mem);

    // 16 objects sharing one PAC plus 16 with distinct PACs; resize
    // on row overflow exactly as the OS would (a 1-way row holds 8).
    auto insert = [&](u64 pac, Addr base) {
        while (!hbt.insert(pac, bounds::compress(base, 64))) {
            if (!hbt.resizing())
                hbt.beginResize();
            hbt.finishResize();
        }
    };
    for (int i = 0; i < 16; ++i)
        insert(5, 0x20000000 + i * 0x100);
    for (int i = 0; i < 16; ++i)
        insert(100 + i, 0x30000000 + i * 0x100);

    Tick now = 0;
    u64 seq = 0;
    std::vector<u64> good, bad;
    auto issue = [&](Addr raw, u64 pac, bool valid) {
        // Respect back-pressure like the core does; entries are
        // committed eagerly so the queue can drain as checks finish.
        while (unit.full()) {
            unit.tick(now++);
            unit.drainRetired();
        }
        ++seq;
        ASSERT_TRUE(unit.enqueue(ir::OpKind::kLoad,
                                 layout.compose(raw, pac, 1), 8, seq,
                                 now));
        unit.markCommitted(seq);
        (valid ? good : bad).push_back(seq);
    };

    u64 faults_seen = 0;
    unit.onFault = [&](FaultKind kind, const McqEntry &) {
        EXPECT_EQ(kind, FaultKind::kBoundsViolation);
        ++faults_seen;
        return false;
    };

    for (int i = 0; i < 16; ++i) {
        issue(0x20000000 + i * 0x100 + 16, 5, true);
        issue(0x30000000 + i * 0x100 + 16, 100 + i, true);
        issue(0x20000000 + i * 0x100 + 80, 5, false);  // past object
        issue(0x40000000 + i * 0x100, 200 + i, false); // no bounds
    }

    for (unsigned i = 0; i < 200000 && !unit.empty(); ++i) {
        unit.tick(now++);
        unit.drainRetired();
    }
    ASSERT_TRUE(unit.empty()) << "MCQ failed to drain";
    EXPECT_EQ(faults_seen, bad.size());
    EXPECT_EQ(unit.stats().boundsFailures, bad.size());
    EXPECT_EQ(unit.stats().checkedOps, good.size() + bad.size());
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, McuConfigSweep,
    ::testing::Values(McuSweepCase{1, true, true, 1},
                      McuSweepCase{2, true, true, 1},
                      McuSweepCase{4, true, true, 4},
                      McuSweepCase{1, false, true, 2},
                      McuSweepCase{1, true, false, 2},
                      McuSweepCase{2, false, false, 4},
                      McuSweepCase{8, true, true, 8}),
    [](const ::testing::TestParamInfo<McuSweepCase> &info) {
        const auto &c = info.param;
        return "p" + std::to_string(c.ports) +
               (c.bwb ? "_bwb" : "_nobwb") +
               (c.forwarding ? "_fwd" : "_nofwd") + "_a" +
               std::to_string(c.assoc);
    });

TEST_F(McuTest, EnqueueRejectsNonMemoryOps)
{
    EXPECT_DEATH(mcu.enqueue(ir::OpKind::kIntAlu, 0, 0, seq, now), "");
}

// ---- MCQ saturation ----------------------------------------------------

TEST_F(McuTest, SustainedOverflowStallsWithoutDroppingChecks)
{
    // Drive far more checked accesses at the 48-entry MCQ than it can
    // hold, enqueuing only when full() clears (the issue-stage
    // contract). Every access must still be checked exactly once —
    // back-pressure, not dropped checks — and the queue must drain.
    hbt.insert(7, bounds::compress(0x20001000, 64));
    const unsigned capacity = McuConfig{}.mcqEntries;
    const u64 total = 5 * capacity + 7;

    u64 next_seq = 1;
    u64 stalled_cycles = 0;
    for (unsigned cycle = 0; cycle < 100'000; ++cycle) {
        // 8-wide issue: enqueue as many as back-pressure admits.
        for (unsigned slot = 0; slot < 8 && next_seq <= total; ++slot) {
            if (mcu.full())
                break;
            ASSERT_TRUE(mcu.enqueue(ir::OpKind::kLoad,
                                    signedPtr(0x20001020, 7), 8,
                                    next_seq, now));
            mcu.markCommitted(next_seq);
            ++next_seq;
        }
        if (mcu.full())
            ++stalled_cycles;
        mcu.tick(now++);
        mcu.drainRetired();
        if (next_seq > total && mcu.empty())
            break;
    }
    ASSERT_TRUE(mcu.empty()) << "MCQ deadlocked under saturation";
    EXPECT_EQ(next_seq, total + 1);
    EXPECT_GT(stalled_cycles, 0u) << "48-entry MCQ never saturated";
    EXPECT_EQ(mcu.stats().enqueued, total);
    EXPECT_EQ(mcu.stats().checkedOps, total);
    EXPECT_EQ(mcu.stats().boundsFailures, 0u);
}

// ---- forwarding correctness & MCQ bookkeeping regressions ---------------

TEST_F(McuTest, NoForwardingFromOccupancyFailedBndstr)
{
    // Regression: forwarding must only be satisfied by bndstr entries
    // that passed their occupancy check. Fill the pac-7 row so a
    // bndstr fails occupancy in every way, complete it via the
    // report-and-resume policy (no resize — its bounds never reach the
    // table), then issue a load inside those phantom bounds. The load
    // must walk the table and fault, not forward against bounds that
    // were never stored.
    for (int i = 0; i < 8; ++i)
        hbt.insert(7, bounds::compress(0x30000000 + i * 0x100, 64));
    std::vector<FaultKind> seen;
    mcu.onFault = [&](FaultKind kind, const McqEntry &) {
        seen.push_back(kind);
        return false; // report-and-resume: no resize, no retry
    };
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kBndstr,
                            signedPtr(0x20001000, 7), 64, 1, now));
    for (unsigned i = 0; i < 3000 && !mcu.readyToRetire(1); ++i)
        mcu.tick(now++);
    ASSERT_TRUE(mcu.readyToRetire(1));
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], FaultKind::kStoreOverflow);

    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kLoad,
                            signedPtr(0x20001020, 7), 8, 2, now));
    for (unsigned i = 0;
         i < 3000 && !mcu.faulted(2) && !mcu.readyToRetire(2); ++i) {
        mcu.tick(now++);
    }
    FaultKind kind = FaultKind::kNone;
    EXPECT_TRUE(mcu.faulted(2, &kind))
        << "load passed against bounds that never reached the table";
    EXPECT_EQ(kind, FaultKind::kBoundsViolation);
    EXPECT_EQ(mcu.stats().forwards, 0u);
}

TEST_F(McuTest, ForwardingStillServedFromCommittedDoneBndstr)
{
    // The flip side of the occupancy-failed case: a bndstr that passed
    // occupancy keeps forwarding after it reaches Done (mutation
    // committed) for as long as it sits in the queue.
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kBndstr,
                            signedPtr(0x20001000, 7), 64, 1, now));
    settle(1);
    mcu.markCommitted(1);
    for (unsigned i = 0; i < 100 && hbt.stats().inserts == 0; ++i)
        mcu.tick(now++); // commit the mutation; entry stays queued
    ASSERT_EQ(hbt.stats().inserts, 1u);
    ASSERT_TRUE(mcu.enqueue(ir::OpKind::kLoad,
                            signedPtr(0x20001020, 7), 8, 2, now));
    settle(2);
    EXPECT_TRUE(mcu.readyToRetire(2));
    EXPECT_FALSE(mcu.faulted(2));
    EXPECT_EQ(mcu.stats().forwards, 1u);
}

TEST(McqEntryTest, ResetForRetryClearsExactlyTheWalkProgress)
{
    McqEntry e;
    e.valid = true;
    e.type = McqType::kBndstr;
    e.state = McqState::kFail;
    e.fault = FaultKind::kStoreOverflow;
    e.addr = 0xdead0000;
    e.rawAddr = 0x20001000;
    e.pac = 7;
    e.ahc = 2;
    e.size = 64;
    e.bndData = 12345;
    e.bndAddr = 0x30000040;
    e.way = 3;
    e.count = 4;
    e.committed = true;
    e.signedPtr = true;
    e.forwarded = true;
    e.started = true;
    e.counted = true;
    e.seq = 42;
    e.readyAt = 999;
    e.waysTouched = 5;

    e.resetForRetry(1234);

    // Cleared: exactly the FSM walk progress.
    EXPECT_EQ(e.state, McqState::kInit);
    EXPECT_EQ(e.fault, FaultKind::kNone);
    EXPECT_EQ(e.way, 0u);
    EXPECT_EQ(e.count, 0u);
    EXPECT_FALSE(e.forwarded);
    EXPECT_FALSE(e.started);
    EXPECT_EQ(e.readyAt, Tick{1234});

    // Preserved: identity, operands, commit status, accounting.
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.type, McqType::kBndstr);
    EXPECT_EQ(e.addr, 0xdead0000u);
    EXPECT_EQ(e.rawAddr, 0x20001000u);
    EXPECT_EQ(e.pac, 7u);
    EXPECT_EQ(e.ahc, 2u);
    EXPECT_EQ(e.size, 64u);
    EXPECT_EQ(e.bndData, bounds::Compressed{12345});
    EXPECT_TRUE(e.committed);
    EXPECT_TRUE(e.signedPtr);
    EXPECT_TRUE(e.counted);
    EXPECT_EQ(e.seq, 42u);
    EXPECT_EQ(e.waysTouched, 5u);
}

TEST_F(McuTest, SeqMapSurvivesRingWraparound)
{
    // Stress the O(1) seq->slot map across many wraps of a small ring:
    // every in-flight seq must stay findable (faulted()/readyToRetire()
    // consistent), drained seqs must become trivially retirable, and
    // occupancy must never exceed capacity.
    McuConfig config;
    config.mcqEntries = 8;
    MemoryCheckUnit mcu2(config, layout, &hbt, &bwb, &mem);
    hbt.insert(7, bounds::compress(0x20001000, 64));

    const u64 total = 100; // 12+ wraps of the 8-slot ring
    u64 next_seq = 1;
    u64 drained_below = 1; // all seqs < this have left the queue
    for (unsigned cycle = 0; cycle < 100'000; ++cycle) {
        while (!mcu2.full() && next_seq <= total) {
            // Alternate unsigned (instant) and signed (way walk) loads
            // so entries complete at staggered times.
            const Addr addr = (next_seq & 1)
                                  ? Addr{0x20002000}
                                  : signedPtr(0x20001020, 7);
            ASSERT_TRUE(mcu2.enqueue(ir::OpKind::kLoad, addr, 8,
                                     next_seq, now));
            mcu2.markCommitted(next_seq);
            ++next_seq;
        }
        ASSERT_LE(mcu2.occupancy(), 8u);
        // Map lookups: in-flight entries resolve, drained ones do not.
        if (drained_below > 1) {
            EXPECT_TRUE(mcu2.readyToRetire(drained_below - 1));
            EXPECT_FALSE(mcu2.faulted(drained_below - 1));
        }
        for (u64 s = drained_below; s < next_seq; ++s)
            EXPECT_FALSE(mcu2.faulted(s));
        EXPECT_TRUE(mcu2.readyToRetire(next_seq)) << "future seq";
        mcu2.tick(now++);
        mcu2.drainRetired();
        drained_below = next_seq - mcu2.occupancy();
        if (next_seq > total && mcu2.empty())
            break;
    }
    ASSERT_TRUE(mcu2.empty()) << "ring failed to drain";
    EXPECT_EQ(mcu2.stats().enqueued, total);
    EXPECT_EQ(mcu2.stats().boundsFailures, 0u);
    EXPECT_EQ(mcu2.stats().checkedOps + mcu2.stats().uncheckedOps, total);
}

} // namespace
} // namespace aos::mcu
