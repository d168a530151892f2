/**
 * @file
 * Tests for the CACTI-style SRAM cost model (Table I).
 */

#include <gtest/gtest.h>

#include <ostream>

#include "hwcost/sram_model.hh"

namespace aos::hwcost {

// Print a Table I row by structure name rather than as raw bytes (which
// hold a heap pointer), so the listed test names are the same in every
// build.
void PrintTo(const TableOneRow &row, std::ostream *os)
{
    *os << row.spec.name;
}

namespace {

TEST(SramModel, TableOneRowsPresent)
{
    const auto &rows = tableOneRows();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].spec.name, "MCQ");
    EXPECT_EQ(rows[1].spec.name, "BWB");
    EXPECT_EQ(rows[2].spec.name, "L1-B Cache");
    EXPECT_EQ(rows[3].spec.name, "L1-D Cache");
}

TEST(SramModel, PublishedValuesPreserved)
{
    const auto &rows = tableOneRows();
    EXPECT_DOUBLE_EQ(rows[0].paper.areaMm2, 0.0096);
    EXPECT_DOUBLE_EQ(rows[1].paper.leakagePowerMw, 1.10712);
    EXPECT_DOUBLE_EQ(rows[2].paper.accessTimeNs, 0.2984);
    EXPECT_DOUBLE_EQ(rows[3].paper.dynamicEnergyPj, 0.0436);
}

TEST(SramModel, MonotoneInSize)
{
    const SramCost small = estimate({"a", 1024});
    const SramCost large = estimate({"b", 64 * 1024});
    EXPECT_LT(small.areaMm2, large.areaMm2);
    EXPECT_LT(small.accessTimeNs, large.accessTimeNs);
    EXPECT_LT(small.dynamicEnergyPj, large.dynamicEnergyPj);
    EXPECT_LT(small.leakagePowerMw, large.leakagePowerMw);
}

TEST(SramModel, SublinearAreaScaling)
{
    // Doubling capacity should less-than-double area (periphery
    // amortization), as in CACTI.
    const SramCost a = estimate({"a", 32 * 1024});
    const SramCost b = estimate({"b", 64 * 1024});
    EXPECT_LT(b.areaMm2 / a.areaMm2, 2.0);
    EXPECT_GT(b.areaMm2 / a.areaMm2, 1.5);
}

class CalibrationTest : public ::testing::TestWithParam<TableOneRow>
{
};

TEST_P(CalibrationTest, EstimateWithinModelTolerance)
{
    // The analytical fit should land within ~35% of every published
    // CACTI point (it is a 2-coefficient fit per metric across a
    // 170x capacity range).
    const TableOneRow &row = GetParam();
    const SramCost est = estimate(row.spec);
    EXPECT_NEAR(est.areaMm2, row.paper.areaMm2,
                row.paper.areaMm2 * 0.35)
        << row.spec.name;
    EXPECT_NEAR(est.accessTimeNs, row.paper.accessTimeNs,
                row.paper.accessTimeNs * 0.35)
        << row.spec.name;
    EXPECT_NEAR(est.dynamicEnergyPj, row.paper.dynamicEnergyPj,
                row.paper.dynamicEnergyPj * 0.45)
        << row.spec.name;
    EXPECT_NEAR(est.leakagePowerMw, row.paper.leakagePowerMw,
                row.paper.leakagePowerMw * 0.45)
        << row.spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, CalibrationTest, ::testing::ValuesIn(tableOneRows()),
    [](const ::testing::TestParamInfo<TableOneRow> &info) {
        std::string name = info.param.spec.name;
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(SramModel, AosStructuresAreSmallVsL1D)
{
    // The paper's takeaway: the AOS additions are modest next to an
    // existing L1-D.
    const SramCost mcq = estimate({"MCQ", 1331});
    const SramCost bwb = estimate({"BWB", 384});
    const SramCost l1d = estimate({"L1-D", 65536});
    EXPECT_LT(mcq.areaMm2 + bwb.areaMm2, l1d.areaMm2 * 0.1);
    EXPECT_LT(mcq.leakagePowerMw + bwb.leakagePowerMw,
              l1d.leakagePowerMw * 0.1);
}

} // namespace
} // namespace aos::hwcost
