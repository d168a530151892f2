/**
 * @file
 * Unit tests for the statistics package.
 */

#include <cmath>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace aos {
namespace {

TEST(Scalar, IncrementAndAssign)
{
    Scalar s("test");
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    ++s;
    EXPECT_EQ(s.value(), 2.0);
    s += 3.5;
    EXPECT_EQ(s.value(), 5.5);
    s = 1.0;
    EXPECT_EQ(s.value(), 1.0);
}

TEST(Distribution, Empty)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.stdev(), 0.0);
}

TEST(Distribution, MeanMinMax)
{
    Distribution d;
    for (double v : {4.0, 8.0, 6.0, 2.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 8.0);
}

TEST(Distribution, StdevMatchesClosedForm)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    // Known population stdev of this classic data set is 2.
    EXPECT_NEAR(d.stdev(), 2.0, 1e-9);
}

TEST(Distribution, WeightedSamples)
{
    Distribution a;
    Distribution b;
    a.sample(3.0, 5);
    for (int i = 0; i < 5; ++i)
        b.sample(3.0);
    EXPECT_EQ(a.count(), b.count());
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
}

TEST(Histogram, CountsAndOccupancy)
{
    Histogram h;
    h.add(1);
    h.add(1);
    h.add(7, 3);
    EXPECT_EQ(h.get(1), 2u);
    EXPECT_EQ(h.get(7), 3u);
    EXPECT_EQ(h.get(42), 0u);

    // Occupancy over a keyspace of 4: buckets {2, 3, 0, 0}.
    const Distribution occ = h.occupancy(4);
    EXPECT_EQ(occ.count(), 4u);
    EXPECT_DOUBLE_EQ(occ.mean(), 1.25);
    EXPECT_DOUBLE_EQ(occ.max(), 3.0);
    EXPECT_DOUBLE_EQ(occ.min(), 0.0);
}

TEST(StatSet, NamedScalarsAndDump)
{
    StatSet set("core");
    set.scalar("cycles") += 100;
    set.scalar("insts") += 250;
    EXPECT_TRUE(set.has("cycles"));
    EXPECT_FALSE(set.has("nope"));
    EXPECT_EQ(set.value("insts"), 250.0);
    EXPECT_EQ(set.value("nope"), 0.0);

    std::ostringstream os;
    set.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("core.cycles 100"), std::string::npos);
    EXPECT_NE(out.find("core.insts 250"), std::string::npos);
}

TEST(Geomean, MatchesClosedForm)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 8.0, 4.0}), 4.0, 1e-12);
}

TEST(Geomean, SkipsNonPositiveValues)
{
    // log(0) = -inf and log(<0) = NaN used to poison the whole mean;
    // such values are skipped (with a warning) instead.
    EXPECT_NEAR(geomean({0.0, 1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({-3.0, 2.0, 8.0, 4.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({0.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({-1.0, 0.0}), 0.0);
}

TEST(Geomean, SkipsNonFiniteValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NEAR(geomean({inf, 1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({nan, 4.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({inf, nan}), 0.0);
}

} // namespace
} // namespace aos
