/**
 * @file
 * Tests for the TAGE branch predictor.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "cpu/tage.hh"

namespace aos::cpu {
namespace {

/**
 * The bit-at-a-time fold FoldedHistory replaces: the newest @p length
 * bits of @p history (newest first) XORed together in @p width-bit
 * chunks, the last partial chunk right-aligned.
 */
u64
bitLoopFold(const std::vector<bool> &history, unsigned length,
            unsigned width)
{
    u64 folded = 0;
    u64 chunk = 0;
    unsigned filled = 0;
    for (unsigned i = 0; i < length; ++i) {
        chunk = (chunk << 1) | (history[i] ? 1 : 0);
        if (++filled == width) {
            folded ^= chunk;
            chunk = 0;
            filled = 0;
        }
    }
    return (folded ^ chunk) & mask(width);
}

double
trainAndMeasure(Tage &tage, const std::vector<std::pair<Addr, bool>> &trace,
                size_t warmup)
{
    u64 wrong = 0, measured = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        const bool pred = tage.resolve(trace[i].first, trace[i].second);
        if (i >= warmup) {
            ++measured;
            wrong += pred != trace[i].second;
        }
    }
    return measured ? static_cast<double>(wrong) / measured : 0.0;
}

TEST(Tage, FoldedHistoryMatchesBitLoop)
{
    // Every (history length, fold width) pair the predictor uses,
    // including q = 0 (length 5) and r = 0 (130 folded to 10).
    struct Shape
    {
        unsigned length;
        unsigned width;
    };
    std::vector<Shape> shapes;
    std::vector<FoldedHistory> folds;
    for (unsigned length : {5u, 15u, 44u, 130u}) {
        for (unsigned width : {10u, 9u, 8u}) {
            shapes.push_back({length, width});
            folds.emplace_back(length, width);
        }
    }

    GlobalHistory history;
    std::vector<bool> reference(GlobalHistory::kBits, false);
    Rng rng(4);
    for (unsigned step = 0; step < 1'000'000; ++step) {
        const bool taken = rng.next() & 1;
        for (FoldedHistory &fold : folds)
            fold.update(history, taken);
        history.push(taken);
        reference.insert(reference.begin(), taken);
        reference.pop_back();

        for (unsigned i = 0; i < GlobalHistory::kBits; ++i) {
            if (history.bit(i) != reference[i])
                FAIL() << "history bit " << i << " after step " << step;
        }
        for (size_t k = 0; k < folds.size(); ++k) {
            const u64 want =
                bitLoopFold(reference, shapes[k].length, shapes[k].width);
            if (folds[k].value() != want) {
                FAIL() << "length " << shapes[k].length << " width "
                       << shapes[k].width << " after step " << step
                       << ": " << folds[k].value() << " != " << want;
            }
        }
    }
}

TEST(Tage, LearnsAlwaysTaken)
{
    Tage tage;
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 2000; ++i)
        trace.emplace_back(0x400100, true);
    EXPECT_LT(trainAndMeasure(tage, trace, 100), 0.01);
}

TEST(Tage, LearnsAlwaysNotTaken)
{
    Tage tage;
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 2000; ++i)
        trace.emplace_back(0x400200, false);
    EXPECT_LT(trainAndMeasure(tage, trace, 100), 0.01);
}

TEST(Tage, LearnsShortAlternation)
{
    // T N T N ... needs one bit of history; the bimodal alone cannot
    // learn it, the tagged tables must.
    Tage tage;
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 4000; ++i)
        trace.emplace_back(0x400300, (i & 1) == 0);
    EXPECT_LT(trainAndMeasure(tage, trace, 1000), 0.05);
    EXPECT_GT(tage.stats().providerTagged, 0u);
}

TEST(Tage, LearnsLongerPeriodicPattern)
{
    // Period-7 pattern: requires several history bits.
    Tage tage;
    const bool pattern[7] = {true, true, false, true, false, false, true};
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 20000; ++i)
        trace.emplace_back(0x400400, pattern[i % 7]);
    EXPECT_LT(trainAndMeasure(tage, trace, 6000), 0.10);
}

TEST(Tage, BiasedRandomApproachesBias)
{
    // A 90%-taken branch with no pattern: ~10% mispredictions is the
    // information-theoretic floor.
    Tage tage;
    Rng rng(1);
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 20000; ++i)
        trace.emplace_back(0x400500, rng.chance(0.9));
    const double mr = trainAndMeasure(tage, trace, 2000);
    EXPECT_LT(mr, 0.16);
    EXPECT_GT(mr, 0.04);
}

TEST(Tage, ManyIndependentBranches)
{
    // Hundreds of static branches with distinct biases must not
    // destructively alias.
    Tage tage;
    Rng rng(2);
    std::vector<bool> bias;
    for (int b = 0; b < 512; ++b)
        bias.push_back(rng.chance(0.5));
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 60000; ++i) {
        const u64 b = rng.below(512);
        trace.emplace_back(0x400000 + b * 4, bias[b]);
    }
    EXPECT_LT(trainAndMeasure(tage, trace, 10000), 0.03);
}

TEST(Tage, HistoryCorrelatedBranches)
{
    // Branch B repeats the outcome of branch A: pure history
    // correlation, invisible to a bimodal predictor.
    Tage tage;
    Rng rng(3);
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 30000; ++i) {
        const bool a = rng.chance(0.5);
        trace.emplace_back(0x400600, a);
        trace.emplace_back(0x400700, a);
    }
    // Overall mispredict rate: branch A is unpredictable (~50%),
    // branch B should approach 0% -> combined ~25%.
    const double mr = trainAndMeasure(tage, trace, 10000);
    EXPECT_LT(mr, 0.35);
}

TEST(Tage, StatsAccumulate)
{
    Tage tage;
    const bool pred = tage.resolve(0x400100, true);
    EXPECT_EQ(tage.stats().lookups, 1u);
    EXPECT_EQ(tage.stats().mispredicts, pred ? 0u : 1u);
}

} // namespace
} // namespace aos::cpu
