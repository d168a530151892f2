/**
 * @file
 * End-to-end sweeps: every SPEC profile under every mechanism, small
 * windows, asserting the invariants that must hold regardless of
 * profile or configuration.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "common/logging.hh"
#include "core/aos_system.hh"

namespace aos::workloads {

// Print a profile parameter by name rather than by address, so the
// test names gtest lists (and ctest registers) are the same in every
// build.
void PrintTo(const WorkloadProfile *profile, std::ostream *os)
{
    *os << profile->name;
}

} // namespace aos::workloads

namespace aos::core {
namespace {

using baselines::Mechanism;
using baselines::SystemOptions;

class ProfileSweep
    : public ::testing::TestWithParam<const workloads::WorkloadProfile *>
{
  protected:
    static void SetUpTestSuite() { setQuiet(true); }
};

TEST_P(ProfileSweep, AosRunIsCleanAndAccounted)
{
    const auto &profile = *GetParam();
    SystemOptions options;
    options.mech = Mechanism::kAos;
    options.measureOps = 15000;
    AosSystem system(profile, options);
    const RunResult r = system.run();

    // Invariant 1: benign workloads never trip the checker.
    EXPECT_EQ(r.violations, 0u) << profile.name;
    EXPECT_EQ(r.mcuStats.boundsFailures, 0u) << profile.name;

    // Invariant 2: all work committed, cycles advanced.
    EXPECT_GE(r.mix.total, options.measureOps) << profile.name;
    EXPECT_GT(r.core.cycles, 0u) << profile.name;
    EXPECT_GT(r.core.ipc(), 0.05) << profile.name;
    EXPECT_LT(r.core.ipc(), 8.01) << profile.name;

    // Invariant 3: the live set's bounds are resident in the HBT.
    EXPECT_GE(r.hbt.occupied, profile.targetActive * 95 / 100)
        << profile.name;

    // Invariant 4: checked + unchecked covers every load/store the
    // core committed.
    EXPECT_EQ(r.mcuStats.checkedOps + r.mcuStats.uncheckedOps,
              r.core.loads + r.core.stores)
        << profile.name;

    // Invariant 5: signedness accounting is consistent between the
    // instrumented stream and the MCU's view.
    EXPECT_EQ(r.mix.signedLoads + r.mix.signedStores,
              r.mcuStats.checkedOps)
        << profile.name;
}

TEST_P(ProfileSweep, MechanismsPreserveProgramWork)
{
    // The source-op bound guarantees every mechanism runs the same
    // program; committed micro-ops may only grow with instrumentation.
    const auto &profile = *GetParam();
    SystemOptions options;
    options.measureOps = 10000;

    u64 baseline_committed = 0;
    for (Mechanism mech :
         {Mechanism::kBaseline, Mechanism::kPa, Mechanism::kAos,
          Mechanism::kPaAos, Mechanism::kWatchdog, Mechanism::kAsan}) {
        options.mech = mech;
        AosSystem system(profile, options);
        const RunResult r = system.run();
        if (mech == Mechanism::kBaseline) {
            baseline_committed = r.core.committed;
        } else {
            EXPECT_GE(r.core.committed, baseline_committed)
                << profile.name << "/" << baselines::mechanismName(mech);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecProfiles, ProfileSweep,
    ::testing::ValuesIn([] {
        std::vector<const workloads::WorkloadProfile *> ptrs;
        for (const auto &p : workloads::specProfiles())
            ptrs.push_back(&p);
        return ptrs;
    }()),
    [](const ::testing::TestParamInfo<
        const workloads::WorkloadProfile *> &info) {
        return info.param->name;
    });

} // namespace
} // namespace aos::core
