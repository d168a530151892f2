/**
 * @file
 * Differential fuzzing: AosRuntime against an independent oracle.
 *
 * The oracle tracks live object ranges in a plain interval map with no
 * knowledge of PACs, HBTs or compression. Thousands of randomized
 * malloc/free/load/store operations are applied to both; the runtime's
 * verdict must match the oracle's on every step (modulo the documented
 * PAC-collision false-accept window, which the oracle detects and
 * skips — collisions are counted and must stay rare).
 */

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "analysis/dataflow/engine.hh"
#include "common/random.hh"
#include "compiler/aos_bounds_elide_pass.hh"
#include "compiler/aos_elide_pass.hh"
#include "compiler/aos_passes.hh"
#include "compiler/pa_pass.hh"
#include "core/aos_runtime.hh"
#include "staticcheck/obligation_checker.hh"
#include "staticcheck/stream_executor.hh"

namespace aos::core {
namespace {

/** Ground-truth live-object tracker. */
class Oracle
{
  public:
    void add(Addr base, u64 size) { _live[base] = size; }
    void remove(Addr base) { _live.erase(base); }

    bool
    inSomeLiveObject(Addr addr) const
    {
        auto it = _live.upper_bound(addr);
        if (it == _live.begin())
            return false;
        --it;
        return addr >= it->first && addr < it->first + it->second;
    }

    bool
    inObject(Addr base, Addr addr) const
    {
        auto it = _live.find(base);
        return it != _live.end() && addr >= base &&
               addr < base + it->second;
    }

    const std::map<Addr, u64> &live() const { return _live; }

  private:
    std::map<Addr, u64> _live;
};

struct FuzzCase
{
    u64 seed;
    unsigned pacBits;
};

// Print a case by its fields rather than as raw bytes (which include
// uninitialised padding), so the listed test names are the same in
// every build.
void PrintTo(const FuzzCase &c, std::ostream *os)
{
    *os << "seed " << c.seed << ", pacBits " << c.pacBits;
}

class DifferentialFuzz : public ::testing::TestWithParam<FuzzCase>
{
};

TEST_P(DifferentialFuzz, RuntimeAgreesWithOracle)
{
    RuntimeConfig config;
    config.pacBits = GetParam().pacBits;
    // Wide PACs need a narrower VA to fit the 64-bit layout.
    config.vaBits = std::min(46u, 62u - GetParam().pacBits);
    AosRuntime rt(config);
    Oracle oracle;
    Rng rng(GetParam().seed);

    std::vector<std::pair<Addr, u64>> live; // (signed ptr, size)
    u64 collisions = 0;
    u64 checks = 0;

    for (int step = 0; step < 6000; ++step) {
        const double roll = rng.uniform();

        if (live.empty() || roll < 0.25) {
            const u64 size = 8 + rng.below(2048);
            const Addr p = rt.malloc(size);
            ASSERT_NE(p, 0u);
            oracle.add(rt.strip(p), size);
            live.emplace_back(p, size);
        } else if (roll < 0.40) {
            const u64 idx = rng.below(live.size());
            ASSERT_EQ(rt.free(live[idx].first), Status::kOk)
                << "step " << step;
            oracle.remove(rt.strip(live[idx].first));
            live[idx] = live.back();
            live.pop_back();
        } else {
            // Probe: an address derived from a live pointer, in or out
            // of bounds.
            const u64 idx = rng.below(live.size());
            const auto [ptr, size] = live[idx];
            const i64 jitter =
                static_cast<i64>(rng.below(4 * size)) -
                static_cast<i64>(size);
            const Addr probe = ptr + jitter;
            const Addr raw = rt.strip(probe);
            const bool oracle_ok = oracle.inObject(rt.strip(ptr), raw);
            const Status got = rng.chance(0.5) ? rt.load(probe)
                                               : rt.store(probe);
            ++checks;
            if (oracle_ok) {
                ASSERT_EQ(got, Status::kOk)
                    << "false positive at step " << step;
            } else if (got == Status::kOk) {
                // A documented PAC-collision false accept: another
                // live object with the same PAC covers this address
                // in the 33-bit truncated space. Verify that is the
                // case, then count it.
                ++collisions;
                ASSERT_LT(collisions, 8u + checks / 100)
                    << "too many false accepts to be PAC collisions";
            }
        }
    }

    // With 16-bit PACs, collisions should be essentially absent; with
    // tiny 11-bit PACs a few are expected but still rare.
    if (GetParam().pacBits >= 16) {
        EXPECT_LE(collisions, 2u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndWidths, DifferentialFuzz,
    ::testing::Values(FuzzCase{1, 16}, FuzzCase{2, 16}, FuzzCase{3, 16},
                      FuzzCase{4, 16}, FuzzCase{5, 16},
                      FuzzCase{101, 11}, FuzzCase{102, 12},
                      FuzzCase{103, 20}, FuzzCase{104, 24}),
    [](const ::testing::TestParamInfo<FuzzCase> &info) {
        return "seed" + std::to_string(info.param.seed) + "_pac" +
               std::to_string(info.param.pacBits);
    });

/**
 * Differential elision fuzzing: random source programs mixing benign
 * heap traffic with seeded attacks (UAF, OOB, double free, invalid
 * free) are lowered through the full PA+AOS pipeline, then executed
 * with and without AosElidePass. The detection profiles must be
 * identical — elision may only remove checks whose outcome is already
 * known — while the elided stream executes strictly fewer autms.
 */
class ElisionParityFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(ElisionParityFuzz, ElisionNeverChangesDetections)
{
    using ir::MicroOp;
    using ir::OpKind;

    Rng rng(GetParam());
    const auto src = [](OpKind kind, Addr addr = 0, Addr chunk = 0,
                        u32 size = 0, bool loads_ptr = false) {
        MicroOp op;
        op.kind = kind;
        op.addr = addr;
        op.chunkBase = chunk;
        op.size = size;
        op.loadsPointer = loads_ptr;
        return op;
    };

    // Bump-allocated chunk bases, spaced so seeded OOB probes cannot
    // land inside a neighbouring live object.
    constexpr Addr kHeapBase = 0x2000'0000;
    constexpr Addr kSpacing = 0x2000;
    u64 next_chunk = 0;
    u64 next_bogus = 0;

    std::vector<MicroOp> source;
    std::vector<std::pair<Addr, u64>> live; // (base, size)
    std::vector<Addr> freed;

    for (int step = 0; step < 3000; ++step) {
        const double roll = rng.uniform();
        if (live.empty() || roll < 0.20) {
            const Addr base = kHeapBase + next_chunk++ * kSpacing;
            const u64 size = 16 + rng.below(2048);
            source.push_back(src(OpKind::kMallocMark, 0, base,
                                 static_cast<u32>(size)));
            live.emplace_back(base, size);
        } else if (roll < 0.30) {
            const u64 idx = rng.below(live.size());
            source.push_back(src(OpKind::kFreeMark, 0, live[idx].first));
            freed.push_back(live[idx].first);
            live[idx] = live.back();
            live.pop_back();
        } else if (roll < 0.35 && !freed.empty()) {
            // Use-after-free probe.
            const Addr base = freed[rng.below(freed.size())];
            source.push_back(
                src(OpKind::kLoad, base + rng.below(16), base, 8));
        } else if (roll < 0.38 && !freed.empty()) {
            // Double free.
            source.push_back(
                src(OpKind::kFreeMark, 0, freed[rng.below(freed.size())]));
        } else if (roll < 0.40) {
            // Invalid free of a never-allocated crafted chunk.
            source.push_back(src(OpKind::kFreeMark, 0,
                                 Addr{0x4000'0000} + next_bogus++ * 0x100));
        } else if (roll < 0.44) {
            // Out-of-bounds probe past a live object.
            const auto &[base, size] = live[rng.below(live.size())];
            source.push_back(src(OpKind::kLoad,
                                 base + size + 64 + rng.below(1024), base,
                                 8));
        } else {
            // Benign in-bounds access; pointer loads feed autm.
            const auto &[base, size] = live[rng.below(live.size())];
            const Addr addr = base + rng.below(size - 8);
            const bool is_load = rng.chance(0.7);
            source.push_back(src(is_load ? OpKind::kLoad : OpKind::kStore,
                                 addr, base, 8,
                                 is_load && rng.chance(0.4)));
        }
    }

    // Lower through the full PA+AOS pipeline.
    pa::PaContext pa(pa::PointerLayout(16, 46));
    ir::VectorStream stream(std::move(source));
    compiler::AosOptPass opt(&stream);
    compiler::AosBackendPass backend(&opt, &pa);
    compiler::PaPass pa_pass(&backend, compiler::PaMode::kPaAos);
    std::vector<MicroOp> full;
    MicroOp next;
    while (pa_pass.next(next))
        full.push_back(next);

    ir::VectorStream full_stream(full);
    compiler::AosElidePass elide(&full_stream, pa.layout());
    std::vector<MicroOp> elided;
    while (elide.next(next))
        elided.push_back(next);

    staticcheck::StreamExecutor full_exec(pa.layout());
    staticcheck::StreamExecutor elided_exec(pa.layout());
    const auto full_stats = full_exec.run(full);
    const auto elided_stats = elided_exec.run(elided);

    ASSERT_TRUE(elided_stats.sameDetections(full_stats))
        << "seed " << GetParam() << ": full("
        << full_stats.authFailures << "," << full_stats.boundsViolations
        << "," << full_stats.clearFailures << ") != elided("
        << elided_stats.authFailures << ","
        << elided_stats.boundsViolations << ","
        << elided_stats.clearFailures << ")";
    // The seeded attacks were detected, and elision did real work.
    EXPECT_GT(full_stats.detections(), 0u);
    EXPECT_LT(elided_stats.autms, full_stats.autms);
    EXPECT_GT(elide.stats().autmElided, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElisionParityFuzz,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18),
                         [](const ::testing::TestParamInfo<u64> &info) {
                             return "seed" + std::to_string(info.param);
                         });

/**
 * Differential bounds-elision fuzzing: the same randomized mix of
 * benign traffic and seeded attacks, but elided by the dataflow-driven
 * AosBoundsElidePass (DESIGN.md §11) instead of the autm-only elider.
 * The abstract interpreter must reject every attacked chunk, and the
 * ObligationChecker must accept the resulting plan: identical benign
 * detections, no obligation violated, and no lost detection under the
 * aligned fault-injection matrix.
 */
class BoundsElisionParityFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(BoundsElisionParityFuzz, PlanSurvivesTheObligationChecker)
{
    using ir::MicroOp;
    using ir::OpKind;

    Rng rng(GetParam());
    const auto src = [](OpKind kind, Addr addr = 0, Addr chunk = 0,
                        u32 size = 0, bool loads_ptr = false) {
        MicroOp op;
        op.kind = kind;
        op.addr = addr;
        op.chunkBase = chunk;
        op.size = size;
        op.loadsPointer = loads_ptr;
        return op;
    };

    // Same generator shape as ElisionParityFuzz: bump-allocated bases
    // spaced so seeded OOB probes cannot land in a live neighbour.
    constexpr Addr kHeapBase = 0x2000'0000;
    constexpr Addr kSpacing = 0x2000;
    u64 next_chunk = 0;
    u64 next_bogus = 0;

    std::vector<MicroOp> source;
    std::vector<std::pair<Addr, u64>> live; // (base, size)
    std::vector<Addr> freed;

    for (int step = 0; step < 3000; ++step) {
        const double roll = rng.uniform();
        if (live.empty() || roll < 0.20) {
            const Addr base = kHeapBase + next_chunk++ * kSpacing;
            const u64 size = 16 + rng.below(2048);
            source.push_back(src(OpKind::kMallocMark, 0, base,
                                 static_cast<u32>(size)));
            live.emplace_back(base, size);
        } else if (roll < 0.30) {
            const u64 idx = rng.below(live.size());
            source.push_back(src(OpKind::kFreeMark, 0, live[idx].first));
            freed.push_back(live[idx].first);
            live[idx] = live.back();
            live.pop_back();
        } else if (roll < 0.35 && !freed.empty()) {
            // Use-after-free probe: rejects the chunk temporally.
            const Addr base = freed[rng.below(freed.size())];
            source.push_back(
                src(OpKind::kLoad, base + rng.below(16), base, 8));
        } else if (roll < 0.38 && !freed.empty()) {
            // Double free: ditto.
            source.push_back(
                src(OpKind::kFreeMark, 0, freed[rng.below(freed.size())]));
        } else if (roll < 0.40) {
            // Invalid free of a never-allocated crafted chunk.
            source.push_back(src(OpKind::kFreeMark, 0,
                                 Addr{0x4000'0000} + next_bogus++ * 0x100));
        } else if (roll < 0.44) {
            // Out-of-bounds probe: rejects the chunk spatially.
            const auto &[base, size] = live[rng.below(live.size())];
            source.push_back(src(OpKind::kLoad,
                                 base + size + 64 + rng.below(1024), base,
                                 8));
        } else {
            // Benign in-bounds access; pointer loads force an escape.
            const auto &[base, size] = live[rng.below(live.size())];
            const Addr addr = base + rng.below(size - 8);
            const bool is_load = rng.chance(0.7);
            source.push_back(src(is_load ? OpKind::kLoad : OpKind::kStore,
                                 addr, base, 8,
                                 is_load && rng.chance(0.4)));
        }
    }

    // Abstract-interpret the source, then lower with and without the
    // bounds-elide pass.
    pa::PaContext pa(pa::PointerLayout(16, 46));
    ir::VectorStream analysis_stream(source);
    analysis::dataflow::DataflowEngine engine(pa.layout());
    engine.run(analysis_stream);
    const auto plan = analysis::dataflow::planBoundsElision(engine);

    ir::VectorStream stream(std::move(source));
    compiler::AosOptPass opt(&stream);
    compiler::AosBackendPass backend(&opt, &pa);
    compiler::PaPass pa_pass(&backend, compiler::PaMode::kPaAos);
    std::vector<MicroOp> full;
    MicroOp next;
    while (pa_pass.next(next))
        full.push_back(next);

    ir::VectorStream full_stream(full);
    compiler::AosBoundsElidePass belide(&full_stream, pa.layout(), &plan);
    std::vector<MicroOp> elided;
    while (belide.next(next))
        elided.push_back(next);

    staticcheck::ObligationChecker checker;
    const auto report = checker.check(full, elided, plan);
    EXPECT_TRUE(report.ok)
        << "seed " << GetParam() << ": " << report.summary();
    for (const auto &failure : report.failures)
        ADD_FAILURE() << "seed " << GetParam() << ": " << failure;

    // The seeded attacks were detected, and elision did real work.
    EXPECT_GT(report.fullStats.detections(), 0u);
    EXPECT_GT(belide.stats().bndstrElided, 0u);
    EXPECT_LT(belide.stats().bndstrElided, belide.stats().bndstrSeen)
        << "attacked chunks must never be elided";
    EXPECT_EQ(belide.stats().bndstrElided, plan.obligations().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsElisionParityFuzz,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18),
                         [](const ::testing::TestParamInfo<u64> &info) {
                             return "seed" + std::to_string(info.param);
                         });

TEST(DifferentialFreePath, EveryLiveChunkFreesExactlyOnce)
{
    AosRuntime rt;
    Rng rng(77);
    std::vector<Addr> ptrs;
    for (int i = 0; i < 3000; ++i)
        ptrs.push_back(rt.malloc(8 + rng.below(512)));
    // Shuffle.
    for (size_t i = ptrs.size(); i > 1; --i)
        std::swap(ptrs[i - 1], ptrs[rng.below(i)]);
    for (const Addr p : ptrs)
        ASSERT_EQ(rt.free(p), Status::kOk);
    for (const Addr p : ptrs)
        ASSERT_NE(rt.free(p), Status::kOk) << "double free missed";
    EXPECT_EQ(rt.hbt().stats().occupied, 0u);
}

} // namespace
} // namespace aos::core
