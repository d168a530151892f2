/**
 * @file
 * Process-isolation properties of the key management (threat model,
 * SIII-D): PA keys are per-process and invisible to user space, so
 * pointers signed in one process are meaningless in another, and
 * leaked signed pointers provide no signing oracle.
 */

#include <gtest/gtest.h>

#include "core/aos_runtime.hh"
#include "core/aos_system.hh"

namespace aos::core {
namespace {

TEST(Isolation, ProcessesGetDistinctKeys)
{
    RuntimeConfig a_config;
    a_config.keySeed = 0x1111;
    RuntimeConfig b_config;
    b_config.keySeed = 0x2222;
    AosRuntime a(a_config), b(b_config);

    const Addr pa_ = a.malloc(64);
    const Addr pb = b.malloc(64);
    // Same allocator layout -> same raw address, different PACs.
    ASSERT_EQ(a.strip(pa_), b.strip(pb));
    EXPECT_NE(pa_, pb) << "keys must differ across processes";
}

TEST(Isolation, ForeignSignedPointerFailsLocally)
{
    RuntimeConfig a_config;
    a_config.keySeed = 0x1111;
    RuntimeConfig b_config;
    b_config.keySeed = 0x2222;
    AosRuntime a(a_config), b(b_config);

    const Addr pa_ = a.malloc(64);
    const Addr pb = b.malloc(64);
    if (a.paContext().layout().pac(pa_) !=
        b.paContext().layout().pac(pb)) {
        // b's pointer injected into a (e.g. via shared memory) indexes
        // the wrong row of a's HBT.
        EXPECT_EQ(a.load(pb), Status::kBoundsViolation);
    }
}

TEST(Isolation, ReturnAddressKeysAreProcessLocal)
{
    pa::PaContext proc_a(pa::PointerLayout(), 0xaaaa);
    pa::PaContext proc_b(pa::PointerLayout(), 0xbbbb);
    const Addr lr = 0x00400c00;
    const Addr signed_a = proc_a.pacia(lr, 0x7ffff000);
    EXPECT_EQ(proc_b.autia(signed_a, 0x7ffff000, nullptr),
              pa::AuthResult::kFail)
        << "a's signature must not verify under b's keys";
    EXPECT_EQ(proc_a.autia(signed_a, 0x7ffff000, nullptr),
              pa::AuthResult::kPass);
}

TEST(Isolation, SignedPointersLeakNoKeyMaterial)
{
    // Observing many (address, PAC) pairs must not let an attacker
    // predict the PAC of an unseen address: check that PACs of
    // adjacent addresses are uncorrelated (any fixed XOR relation
    // would break this distribution test).
    AosRuntime rt;
    const auto &layout = rt.paContext().layout();
    std::vector<u64> diffs;
    Addr prev_ptr = rt.malloc(32);
    u64 repeats = 0;
    for (int i = 0; i < 512; ++i) {
        const Addr ptr = rt.malloc(32);
        const u64 diff = layout.pac(ptr) ^ layout.pac(prev_ptr);
        if (!diffs.empty() && diff == diffs.back())
            ++repeats;
        diffs.push_back(diff);
        prev_ptr = ptr;
    }
    EXPECT_LT(repeats, 4u) << "PAC deltas look predictable";
}

TEST(Isolation, TimingRunsWithDifferentProcessesAreIndependent)
{
    // Two AosSystems (separate processes) must not share HBT or cache
    // state: identical configurations produce identical, reproducible
    // results regardless of interleaving.
    baselines::SystemOptions options;
    options.mech = baselines::Mechanism::kAos;
    options.measureOps = 20000;

    AosSystem first(workloads::profileByName("namd"), options);
    AosSystem interleaved(workloads::profileByName("sjeng"), options);
    const RunResult r1 = first.run();
    const RunResult other = interleaved.run();
    (void)other;
    AosSystem second(workloads::profileByName("namd"), options);
    const RunResult r2 = second.run();
    EXPECT_EQ(r1.core.cycles, r2.core.cycles);
    EXPECT_EQ(r1.hbt.inserts, r2.hbt.inserts);
}

TEST(Isolation, StatsDumpIsComplete)
{
    baselines::SystemOptions options;
    options.mech = baselines::Mechanism::kAos;
    options.measureOps = 20000;
    AosSystem system(workloads::profileByName("namd"), options);
    const RunResult r = system.run();

    std::ostringstream os;
    r.toStatSet().dump(os);
    const std::string out = os.str();
    for (const char *stat :
         {"cycles", "ipc", "mcu_checked_ops", "bwb_hit_rate",
          "hbt_occupied", "network_traffic_bytes", "violations"}) {
        EXPECT_NE(out.find(stat), std::string::npos) << stat;
    }
    EXPECT_NE(out.find("namd.AOS."), std::string::npos);
}

} // namespace
} // namespace aos::core
