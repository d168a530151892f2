/**
 * @file
 * Tests for the OS model: HBT lifecycle, fault handling, policies.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "os/os_model.hh"

namespace aos::os {
namespace {

mcu::McqEntry
entryAt(Addr addr, u64 pac = 7, u64 seq = 1)
{
    mcu::McqEntry entry;
    entry.addr = addr;
    entry.pac = pac;
    entry.seq = seq;
    return entry;
}

TEST(OsModel, MapsInitialTablePerTableIV)
{
    OsModel os;
    EXPECT_EQ(os.hbt().rows(), u64{1} << 16);
    EXPECT_EQ(os.hbt().ways(), 1u);
}

TEST(OsModel, StoreOverflowResizesAndRetries)
{
    OsModel os(8, 1);
    const bool handled =
        os.handleFault(mcu::FaultKind::kStoreOverflow, entryAt(0x1000));
    EXPECT_TRUE(handled) << "bndstr must retry after the resize";
    EXPECT_TRUE(os.hbt().resizing());
    EXPECT_EQ(os.resizesServiced(), 1u);
    EXPECT_TRUE(os.violations().empty()) << "a resize is not a violation";
}

TEST(OsModel, OverflowDuringResizeDoesNotDoubleResize)
{
    OsModel os(8, 1);
    os.handleFault(mcu::FaultKind::kStoreOverflow, entryAt(0x1000));
    os.handleFault(mcu::FaultKind::kStoreOverflow, entryAt(0x2000));
    EXPECT_EQ(os.hbt().ways(), 2u);
    EXPECT_EQ(os.resizesServiced(), 1u);
}

TEST(OsModel, ReportPolicyLogsAndResumes)
{
    OsModel os(16, 1, bounds::kSlotsPerWay, FaultPolicy::kReport);
    const bool handled = os.handleFault(
        mcu::FaultKind::kBoundsViolation, entryAt(0xdead, 42, 9));
    EXPECT_FALSE(handled) << "report-and-resume, not retry";
    ASSERT_EQ(os.violations().size(), 1u);
    EXPECT_EQ(os.violations()[0].addr, 0xdeadu);
    EXPECT_EQ(os.violations()[0].pac, 42u);
    EXPECT_EQ(os.violations()[0].seq, 9u);
}

TEST(OsModel, ClearFailureLoggedAsViolation)
{
    OsModel os;
    os.handleFault(mcu::FaultKind::kClearFailure, entryAt(0x2000));
    ASSERT_EQ(os.violations().size(), 1u);
    EXPECT_EQ(os.violations()[0].kind, mcu::FaultKind::kClearFailure);
}

TEST(OsModel, TerminatePolicyThrows)
{
    OsModel os(16, 1, bounds::kSlotsPerWay, FaultPolicy::kTerminate);
    EXPECT_THROW(
        os.handleFault(mcu::FaultKind::kBoundsViolation, entryAt(0x1)),
        ProcessTerminated);
    // The violation is still logged before the throw.
    EXPECT_EQ(os.violations().size(), 1u);
}

TEST(OsModel, TerminateExceptionCarriesRecord)
{
    OsModel os(16, 1, bounds::kSlotsPerWay, FaultPolicy::kTerminate);
    try {
        os.handleFault(mcu::FaultKind::kBoundsViolation,
                       entryAt(0xabc, 3, 77));
        FAIL() << "expected ProcessTerminated";
    } catch (const ProcessTerminated &e) {
        EXPECT_EQ(e.record().addr, 0xabcu);
        EXPECT_EQ(e.record().seq, 77u);
    }
}

TEST(OsModel, PolicySwitchableAtRuntime)
{
    OsModel os;
    os.handleFault(mcu::FaultKind::kBoundsViolation, entryAt(0x1));
    os.setPolicy(FaultPolicy::kTerminate);
    EXPECT_THROW(
        os.handleFault(mcu::FaultKind::kBoundsViolation, entryAt(0x2)),
        ProcessTerminated);
}

TEST(OsModel, ViolationLogIsBoundedRing)
{
    OsModel os;
    const u64 logged = OsModel::kDefaultViolationCap + 6;
    for (u64 i = 0; i < logged; ++i)
        os.handleFault(mcu::FaultKind::kBoundsViolation,
                       entryAt(0x1000 + i, 7, i + 1));

    EXPECT_EQ(os.violationCount(), logged) << "true total survives the cap";
    ASSERT_EQ(os.violations().size(), OsModel::kDefaultViolationCap)
        << "footprint stays bounded";
    EXPECT_EQ(os.violationsDropped(), 6u);
    EXPECT_EQ(os.violationCount(),
              os.violations().size() + os.violationsDropped())
        << "every record is either retained or counted as dropped";
    // The retained records are the newest ones (oldest dropped first).
    u64 oldest_seen = logged, newest_seen = 0;
    for (const auto &record : os.violations()) {
        oldest_seen = std::min(oldest_seen, record.seq);
        newest_seen = std::max(newest_seen, record.seq);
    }
    EXPECT_EQ(oldest_seen, 7u);
    EXPECT_EQ(newest_seen, logged) << "the newest record is retained";
}

TEST(OsModel, DefaultCapKeepsEveryEarlyRecord)
{
    OsModel os;
    for (u64 i = 0; i < 100; ++i)
        os.handleFault(mcu::FaultKind::kBoundsViolation, entryAt(i));
    EXPECT_EQ(os.violations().size(), 100u);
    EXPECT_EQ(os.violationsDropped(), 0u);
}

} // namespace
} // namespace aos::os
