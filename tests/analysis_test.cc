/**
 * @file
 * Tests for the PAC security/capacity analysis, cross-validated
 * against the paper's cited numbers and against the real HBT.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "analysis/pac_analysis.hh"
#include "bounds/compression.hh"
#include "bounds/hashed_bounds_table.hh"
#include "common/random.hh"

namespace aos::analysis {
namespace {

TEST(PacAnalysis, GuessProbability)
{
    EXPECT_DOUBLE_EQ(pacGuessProb(16), 1.0 / 65536.0);
    EXPECT_DOUBLE_EQ(pacGuessProb(11), 1.0 / 2048.0);
    EXPECT_DOUBLE_EQ(pacGuessProb(32), 1.0 / 4294967296.0);
}

TEST(PacAnalysis, PaperFortyFiveThousandAttempts)
{
    // SVII-E: "with a 16-bit PAC ... an attacker would require 45425
    // attempts to achieve a 50% likelihood for a correct guess".
    EXPECT_EQ(attemptsForGuessProbability(16, 0.5), 45425u);
}

TEST(PacAnalysis, AttemptsScaleWithPacWidth)
{
    // Each extra bit doubles the required attempts.
    const u64 b16 = attemptsForGuessProbability(16, 0.5);
    const u64 b17 = attemptsForGuessProbability(17, 0.5);
    EXPECT_NEAR(static_cast<double>(b17) / b16, 2.0, 0.01);
    // The architected extremes.
    EXPECT_NEAR(attemptsForGuessProbability(11, 0.5), 1419.0, 2.0);
    EXPECT_GT(attemptsForGuessProbability(32, 0.5), u64{2} << 30);
}

TEST(PacAnalysis, PoissonBasics)
{
    EXPECT_DOUBLE_EQ(poissonPmf(0.0, 0), 1.0);
    EXPECT_DOUBLE_EQ(poissonPmf(0.0, 3), 0.0);
    EXPECT_NEAR(poissonPmf(1.0, 0), std::exp(-1.0), 1e-12);
    EXPECT_NEAR(poissonPmf(1.0, 1), std::exp(-1.0), 1e-12);
    // PMF sums to ~1.
    double sum = 0;
    for (unsigned k = 0; k < 100; ++k)
        sum += poissonPmf(16.0, k);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Tail is the complement of the CDF.
    EXPECT_NEAR(poissonTail(16.0, 99), 0.0, 1e-9);
    EXPECT_NEAR(poissonTail(16.0, 0), 1.0 - std::exp(-16.0), 1e-9);
}

TEST(PacAnalysis, ResizePredictionsMatchPaperObservations)
{
    // SIX-A.1: the initial 1-way table (8 records/row, 64K rows,
    // 512K capacity) covered everything except sphinx3 (1 resize) and
    // omnetpp (2 resizes, ~2M live objects).
    // Small live sets: essentially no overflowing rows.
    EXPECT_LT(expectedOverflowingRows(81825, 16, 8), 0.5);   // gcc
    // sphinx3's 200686 live objects: a handful of rows overflow ->
    // one resize.
    const double sphinx = expectedOverflowingRows(200686, 16, 8);
    EXPECT_GT(sphinx, 0.5);
    EXPECT_EQ(predictedAssociativity(200686, 16, 8), 2u);
    // astar's *peak* of 190984 would also trip a resize (and does in
    // our timing runs); the paper's no-resize observation implies its
    // within-window live set sat below the peak.
    EXPECT_GT(expectedOverflowingRows(190984, 16, 8), 1.0);
    // The paper's 2 omnetpp resizes (-> 4 ways) are consistent with a
    // ~700K-object within-window live set (which is exactly what our
    // scaled omnetpp profile uses, and it reproduces the 2 resizes);
    // the full-run 2M peak would demand 8 ways.
    EXPECT_EQ(predictedAssociativity(700'000, 16, 8), 4u);
    EXPECT_EQ(predictedAssociativity(1993737, 16, 8), 8u);
}

TEST(PacAnalysis, PredictionMatchesRealTableBehaviour)
{
    // Monte-Carlo cross-check: insert n random-PAC records into a real
    // (small) HBT and compare the resize count against the prediction.
    constexpr unsigned kPacBits = 10; // 1K rows for test speed
    constexpr u64 kLive = 9000;       // lambda ~ 8.8
    const unsigned predicted = predictedAssociativity(kLive, kPacBits, 8);

    bounds::HashedBoundsTable hbt(0x3000'0000'0000ull, kPacBits, 1);
    Rng rng(0xca11);
    Addr next = 0x20000000;
    for (u64 i = 0; i < kLive; ++i) {
        const u64 pac = rng.below(u64{1} << kPacBits);
        hbt.insertOrGrow(pac, bounds::compress(next, 64));
        next += 0x100;
    }
    EXPECT_EQ(hbt.ways(), predicted);
}

TEST(PacAnalysis, WildPointerEscapeIsNegligible)
{
    // A wild pointer against a typical process (10K live objects of
    // ~1KB) passes with probability ~1.8e-8 per record set.
    const double p = wildPointerEscapeProb(10000, 16, 1024.0);
    EXPECT_LT(p, 1e-6);
    EXPECT_GT(p, 0.0);
    // Monotone in live objects and object size; falls with PAC width.
    EXPECT_GT(wildPointerEscapeProb(100000, 16, 1024.0), p);
    EXPECT_GT(wildPointerEscapeProb(10000, 16, 65536.0), p);
    EXPECT_LT(wildPointerEscapeProb(10000, 24, 1024.0), p);
}

TEST(PacAnalysisDeath, RejectsDegenerateTargets)
{
    EXPECT_DEATH(attemptsForGuessProbability(16, 0.0), "");
    EXPECT_DEATH(attemptsForGuessProbability(16, 1.0), "");
}

} // namespace
} // namespace aos::analysis
