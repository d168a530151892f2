/**
 * @file
 * Tests for the deterministic environment-fault engine
 * (common/chaosio.hh) and the shared retry policy (common/backoff.hh):
 * strict AOS_CHAOS spec parsing, schedule purity (same seed ⇒ same
 * decisions), rate and domain/kind masking, per-domain injection caps,
 * thread-local ChaosScope shadowing, probeAlloc semantics, and the
 * backoff delay law (capped exponential growth, bounded jitter,
 * cancel-aware sleeping, attempt budget).
 */

#include <new>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/backoff.hh"
#include "common/cancel.hh"
#include "common/chaosio.hh"

namespace aos::chaos {
namespace {

constexpr u32 kAllKinds = 0;

ChaosConfig
config(u64 seed, u32 rate, u32 domains, u32 kinds = kAllKinds)
{
    ChaosConfig c;
    c.seed = seed;
    c.ratePerMille = rate;
    c.domains = domains;
    c.kinds = kinds;
    return c;
}

// --- spec parsing ----------------------------------------------------

TEST(ChaosSpec, ParsesFullSpelling)
{
    ChaosConfig c;
    std::string error;
    ASSERT_TRUE(parseChaosSpec("42,250,disk+alloc,7", c, error)) << error;
    EXPECT_EQ(c.seed, 42u);
    EXPECT_EQ(c.ratePerMille, 250u);
    EXPECT_EQ(c.domains,
              domainBit(Domain::kDisk) | domainBit(Domain::kAlloc));
    EXPECT_EQ(c.maxPerDomain, 7u);
    EXPECT_TRUE(c.enabled());

    ASSERT_TRUE(parseChaosSpec("1,50,all", c, error)) << error;
    EXPECT_EQ(c.domains,
              domainBit(Domain::kDisk) | domainBit(Domain::kAlloc));
    EXPECT_EQ(c.maxPerDomain, 0u);
}

TEST(ChaosSpec, ClampsRateToOneThousandPerMille)
{
    ChaosConfig c;
    std::string error;
    ASSERT_TRUE(parseChaosSpec("1,5000,disk", c, error)) << error;
    EXPECT_EQ(c.ratePerMille, 1000u);
}

TEST(ChaosSpec, RejectsMalformedSpellingsWithAReason)
{
    ChaosConfig c;
    for (const char *bad :
         {"", "1", "1,2", "x,2,disk", "1,y,disk", "1,2,disk,z",
          "1,2,floppy", "1,2,disk+", "1,2,", "1,2,disk,3,4",
          "1,10,disk+net"}) {
        std::string error;
        EXPECT_FALSE(parseChaosSpec(bad, c, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad; // Always says why.
    }
}

// --- schedule purity -------------------------------------------------

TEST(ChaosPlan, SameSeedSameSchedule)
{
    const ChaosPlan a(config(99, 300, domainBit(Domain::kDisk)));
    const ChaosPlan b(config(99, 300, domainBit(Domain::kDisk)));
    for (u64 op = 0; op < 2000; ++op) {
        const Decision da = a.at(Domain::kDisk, op, ~0u);
        const Decision db = b.at(Domain::kDisk, op, ~0u);
        EXPECT_EQ(da.fire, db.fire);
        if (da.fire) {
            EXPECT_EQ(da.kind, db.kind);
            EXPECT_EQ(da.arg, db.arg);
        }
    }
}

TEST(ChaosPlan, DifferentSeedsDiverge)
{
    const ChaosPlan a(config(1, 300, domainBit(Domain::kDisk)));
    const ChaosPlan b(config(2, 300, domainBit(Domain::kDisk)));
    unsigned differences = 0;
    for (u64 op = 0; op < 2000; ++op) {
        if (a.at(Domain::kDisk, op, ~0u).fire !=
            b.at(Domain::kDisk, op, ~0u).fire)
            ++differences;
    }
    EXPECT_GT(differences, 0u);
}

TEST(ChaosPlan, RateIsApproximatelyHonoured)
{
    const ChaosPlan plan(config(7, 100, domainBit(Domain::kDisk)));
    unsigned fires = 0;
    for (u64 op = 0; op < 10000; ++op)
        fires += plan.at(Domain::kDisk, op, ~0u).fire ? 1 : 0;
    // 100‰ of 10000 = 1000 expected; allow a generous band.
    EXPECT_GT(fires, 700u);
    EXPECT_LT(fires, 1300u);
}

TEST(ChaosPlan, DisabledDomainNeverFires)
{
    const ChaosPlan diskOnly(config(7, 1000, domainBit(Domain::kDisk)));
    const ChaosPlan allocOnly(config(7, 1000, domainBit(Domain::kAlloc)));
    for (u64 op = 0; op < 100; ++op) {
        EXPECT_FALSE(diskOnly.at(Domain::kAlloc, op, ~0u).fire);
        EXPECT_FALSE(allocOnly.at(Domain::kDisk, op, ~0u).fire);
    }
}

TEST(ChaosPlan, KindPickRespectsSiteAndConfigMasks)
{
    // Config allows two kinds; the site only offers one of them.
    const ChaosPlan plan(
        config(3, 1000, domainBit(Domain::kDisk),
               kindBit(FaultKind::kWriteEio) |
                   kindBit(FaultKind::kFsyncEio)));
    for (u64 op = 0; op < 200; ++op) {
        const Decision d =
            plan.at(Domain::kDisk, op,
                    kindBit(FaultKind::kWriteEio) |
                        kindBit(FaultKind::kShortWrite));
        ASSERT_TRUE(d.fire);
        EXPECT_EQ(d.kind, FaultKind::kWriteEio);
    }
    // No overlap between site and config: the op cannot fault.
    const Decision none = plan.at(
        Domain::kDisk, 0, kindBit(FaultKind::kShortWrite));
    EXPECT_FALSE(none.fire);
}

TEST(ChaosPlan, HighRateUsesEveryOfferedKind)
{
    const ChaosPlan plan(config(11, 1000, domainBit(Domain::kDisk)));
    std::set<FaultKind> seen;
    const u32 site = kindBit(FaultKind::kShortWrite) |
                     kindBit(FaultKind::kWriteEio) |
                     kindBit(FaultKind::kFsyncEio);
    for (u64 op = 0; op < 500; ++op) {
        const Decision d = plan.at(Domain::kDisk, op, site);
        ASSERT_TRUE(d.fire);
        seen.insert(d.kind);
    }
    EXPECT_EQ(seen.size(), 3u);
}

// --- engine counters and caps ----------------------------------------

TEST(ChaosEngine, CountsOpsAndInjections)
{
    ChaosEngine eng(config(5, 500, domainBit(Domain::kDisk)));
    u64 fired = 0;
    for (unsigned i = 0; i < 1000; ++i)
        fired += eng.next(Domain::kDisk, ~0u).fire ? 1 : 0;
    EXPECT_EQ(eng.ops(Domain::kDisk), 1000u);
    EXPECT_EQ(eng.injected(Domain::kDisk), fired);
    EXPECT_EQ(eng.injectedTotal(), fired);
    u64 byKind = 0;
    for (unsigned k = 0; k < kFaultKindCount; ++k)
        byKind += eng.injectedKind(static_cast<FaultKind>(k));
    EXPECT_EQ(byKind, fired);
    EXPECT_LE(eng.injectedHard(), fired);
}

TEST(ChaosEngine, PerDomainCapStopsInjection)
{
    ChaosConfig c = config(5, 1000, domainBit(Domain::kDisk));
    c.maxPerDomain = 3;
    ChaosEngine eng(c);
    for (unsigned i = 0; i < 100; ++i)
        eng.next(Domain::kDisk, ~0u);
    EXPECT_EQ(eng.injected(Domain::kDisk), 3u);
    EXPECT_EQ(eng.ops(Domain::kDisk), 100u);
}

// --- installation scopes ---------------------------------------------

TEST(ChaosScope, ShadowsAndRestores)
{
    EXPECT_EQ(engine(), nullptr);
    ChaosEngine outer(config(1, 10, domainBit(Domain::kDisk)));
    ChaosEngine inner(config(2, 10, domainBit(Domain::kDisk)));
    {
        ChaosScope a(&outer);
        EXPECT_EQ(engine(), &outer);
        {
            ChaosScope b(&inner);
            EXPECT_EQ(engine(), &inner);
        }
        EXPECT_EQ(engine(), &outer);
    }
    EXPECT_EQ(engine(), nullptr);
}

TEST(ChaosScope, IsThreadLocal)
{
    ChaosEngine eng(config(1, 10, domainBit(Domain::kDisk)));
    ChaosScope scope(&eng);
    ChaosEngine *seenByOtherThread = &eng;
    std::thread([&] { seenByOtherThread = engine(); }).join();
    EXPECT_EQ(seenByOtherThread, nullptr);
    EXPECT_EQ(engine(), &eng);
}

TEST(ChaosProbe, ProbeAllocThrowsOnSchedule)
{
    ChaosEngine eng(config(9, 1000, domainBit(Domain::kAlloc)));
    ChaosScope scope(&eng);
    EXPECT_THROW(probeAlloc(), std::bad_alloc);
    EXPECT_EQ(eng.injectedKind(FaultKind::kBadAlloc), 1u);
}

TEST(ChaosProbe, ProbeAllocIsFreeWithoutAnEngine)
{
    EXPECT_NO_THROW(probeAlloc());
}

// --- backoff ---------------------------------------------------------

TEST(Backoff, DelaysGrowAndCap)
{
    BackoffPolicy policy;
    policy.initialMs = 10;
    policy.maxMs = 100;
    policy.multiplier = 2;
    policy.maxAttempts = 100;
    policy.jitter = 0; // Exact delays for this test.
    Backoff backoff(policy);
    EXPECT_DOUBLE_EQ(backoff.nextDelayMs(), 10);
    EXPECT_DOUBLE_EQ(backoff.nextDelayMs(), 20);
    EXPECT_DOUBLE_EQ(backoff.nextDelayMs(), 40);
    EXPECT_DOUBLE_EQ(backoff.nextDelayMs(), 80);
    EXPECT_DOUBLE_EQ(backoff.nextDelayMs(), 100); // Capped.
    EXPECT_DOUBLE_EQ(backoff.nextDelayMs(), 100);
    backoff.reset();
    EXPECT_DOUBLE_EQ(backoff.nextDelayMs(), 10);
}

TEST(Backoff, JitterStaysWithinTheConfiguredBand)
{
    BackoffPolicy policy;
    policy.initialMs = 100;
    policy.maxMs = 100;
    policy.jitter = 0.25;
    policy.maxAttempts = 1000;
    policy.seed = 42;
    Backoff backoff(policy);
    for (int i = 0; i < 1000; ++i) {
        const double d = backoff.nextDelayMs();
        EXPECT_GE(d, 75.0);
        EXPECT_LE(d, 125.0);
    }
}

TEST(Backoff, SameSeedSameDelays)
{
    BackoffPolicy policy;
    policy.seed = 7;
    policy.maxAttempts = 100;
    Backoff a(policy);
    Backoff b(policy);
    for (int i = 0; i < 50; ++i)
        EXPECT_DOUBLE_EQ(a.nextDelayMs(), b.nextDelayMs());
}

TEST(Backoff, AttemptBudgetStopsSleeping)
{
    BackoffPolicy policy;
    policy.initialMs = 0;
    policy.maxMs = 0;
    policy.maxAttempts = 2;
    Backoff backoff(policy);
    EXPECT_TRUE(backoff.sleep());
    EXPECT_TRUE(backoff.sleep());
    EXPECT_FALSE(backoff.sleep()); // Budget exhausted.
    backoff.reset();
    EXPECT_TRUE(backoff.sleep());
}

TEST(Backoff, CancelledTokenRefusesToSleep)
{
    CancelToken cancel;
    cancel.requestCancel();
    BackoffPolicy policy;
    policy.initialMs = 10'000; // Would hang the test if slept.
    Backoff backoff(policy, &cancel);
    EXPECT_FALSE(backoff.sleep());
    EXPECT_EQ(backoff.attempts(), 0u);
}

} // namespace
} // namespace aos::chaos
