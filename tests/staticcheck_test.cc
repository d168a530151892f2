/**
 * @file
 * Tests for the static-analysis layer (src/staticcheck): every
 * StreamVerifier rule fires on a seeded violation, corrupted real
 * pipeline output is flagged, the StreamExecutor implements the
 * architectural detection semantics, and the verify/elide modes of
 * AosSystem work end to end.
 */

#include <vector>

#include <gtest/gtest.h>

#include "analysis/dataflow/engine.hh"
#include "analysis/dataflow/elision_plan.hh"
#include "common/logging.hh"
#include "compiler/aos_elide_pass.hh"
#include "compiler/aos_passes.hh"
#include "compiler/pa_pass.hh"
#include "core/aos_system.hh"
#include "pa/pa_context.hh"
#include "staticcheck/stream_executor.hh"
#include "staticcheck/stream_verifier.hh"

namespace aos::staticcheck {
namespace {

using ir::MicroOp;
using ir::OpKind;

MicroOp
op(OpKind kind, Addr addr = 0, Addr chunk = 0, u32 size = 0)
{
    MicroOp out;
    out.kind = kind;
    out.addr = addr;
    out.chunkBase = chunk;
    out.size = size;
    return out;
}

bool
hasRule(const std::vector<Diagnostic> &diags, RuleId rule)
{
    for (const auto &d : diags)
        if (d.rule == rule)
            return true;
    return false;
}

VerifierOptions
aosOptions()
{
    VerifierOptions options;
    options.requireAosLowering = true;
    return options;
}

/** Layout shared by the seeded streams (the Table IV default). */
const pa::PointerLayout kLayout(16, 46);

constexpr Addr kChunk = 0x20001000;
constexpr u64 kPac = 5;

/** The chunk's signed pointer (arbitrary but consistent PAC). */
Addr
signedPtr(Addr raw = kChunk, u64 pac = kPac, u64 ahc = 1)
{
    return kLayout.compose(raw, pac, ahc);
}

TEST(Diagnostics, RuleMetadataIsStableAndUnique)
{
    std::vector<std::string> ids;
    std::vector<std::string> names;
    for (unsigned i = 0; i < kNumRules; ++i) {
        const auto rule = static_cast<RuleId>(i);
        ids.emplace_back(ruleId(rule));
        names.emplace_back(ruleName(rule));
    }
    for (unsigned i = 0; i < kNumRules; ++i) {
        EXPECT_EQ(ids[i].substr(0, 2), "SC");
        for (unsigned j = i + 1; j < kNumRules; ++j) {
            EXPECT_NE(ids[i], ids[j]);
            EXPECT_NE(names[i], names[j]);
        }
    }
    const Diagnostic diag{42, RuleId::kUnpairedBndclr, "no live bounds"};
    const std::string line = toString(diag);
    EXPECT_NE(line.find("SC05"), std::string::npos);
    EXPECT_NE(line.find("@op 42"), std::string::npos);
}

// --- One seeded violation per rule (SC01..SC14). ---

TEST(StreamVerifierRules, Sc01IntrinsicSurvivedBackend)
{
    const auto diags = StreamVerifier::verify(
        std::vector<MicroOp>{op(OpKind::kAosMallocIntr, 0, kChunk, 64)});
    EXPECT_TRUE(hasRule(diags, RuleId::kIntrinsicSurvived));
}

TEST(StreamVerifierRules, Sc02MallocNotLowered)
{
    const auto diags = StreamVerifier::verify(
        std::vector<MicroOp>{op(OpKind::kMallocMark, 0, kChunk, 64)},
        aosOptions());
    EXPECT_TRUE(hasRule(diags, RuleId::kMallocNotLowered));
}

TEST(StreamVerifierRules, Sc03FreeNotLowered)
{
    // bndclr alone is not the full Fig. 7b sequence.
    const auto diags = StreamVerifier::verify(
        std::vector<MicroOp>{
            op(OpKind::kPacma, signedPtr(), kChunk),
            op(OpKind::kBndstr, signedPtr(), kChunk, 64),
            op(OpKind::kFreeMark, 0, kChunk),
            op(OpKind::kBndclr, signedPtr(), kChunk)},
        aosOptions());
    EXPECT_TRUE(hasRule(diags, RuleId::kFreeNotLowered));
}

TEST(StreamVerifierRules, Sc04DuplicateBndstr)
{
    const auto diags = StreamVerifier::verify(std::vector<MicroOp>{
        op(OpKind::kPacma, signedPtr(), kChunk),
        op(OpKind::kBndstr, signedPtr(), kChunk, 64),
        op(OpKind::kBndstr, signedPtr(), kChunk, 64)});
    EXPECT_TRUE(hasRule(diags, RuleId::kDuplicateBndstr));
}

TEST(StreamVerifierRules, Sc05UnpairedBndclr)
{
    const auto diags = StreamVerifier::verify(
        std::vector<MicroOp>{op(OpKind::kBndclr, signedPtr(), kChunk)});
    EXPECT_TRUE(hasRule(diags, RuleId::kUnpairedBndclr));
}

TEST(StreamVerifierRules, Sc06SignedAccessBeforeSigning)
{
    const auto diags = StreamVerifier::verify(std::vector<MicroOp>{
        op(OpKind::kLoad, signedPtr(kChunk + 16), kChunk, 8)});
    EXPECT_TRUE(hasRule(diags, RuleId::kSignedBeforeSign));
}

TEST(StreamVerifierRules, Sc06SignedAccessWithoutProvenance)
{
    const auto diags = StreamVerifier::verify(std::vector<MicroOp>{
        op(OpKind::kLoad, signedPtr(kChunk + 16), 0, 8)});
    EXPECT_TRUE(hasRule(diags, RuleId::kSignedBeforeSign));
}

TEST(StreamVerifierRules, Sc07SignedAccessAfterClear)
{
    const auto diags = StreamVerifier::verify(std::vector<MicroOp>{
        op(OpKind::kPacma, signedPtr(), kChunk),
        op(OpKind::kBndstr, signedPtr(), kChunk, 64),
        op(OpKind::kBndclr, signedPtr(), kChunk),
        op(OpKind::kLoad, signedPtr(kChunk + 16), kChunk, 8)});
    EXPECT_TRUE(hasRule(diags, RuleId::kSignedAfterClear));
}

TEST(StreamVerifierRules, Sc08PacMismatch)
{
    const auto diags = StreamVerifier::verify(std::vector<MicroOp>{
        op(OpKind::kPacma, signedPtr(), kChunk),
        op(OpKind::kBndstr, signedPtr(), kChunk, 64),
        op(OpKind::kLoad, signedPtr(kChunk + 16, kPac + 1), kChunk, 8)});
    EXPECT_TRUE(hasRule(diags, RuleId::kPacMismatch));
}

TEST(StreamVerifierRules, Sc09PhaseImbalance)
{
    const auto diags = StreamVerifier::verify(std::vector<MicroOp>{
        op(OpKind::kPhaseMark), op(OpKind::kPhaseMark)});
    EXPECT_TRUE(hasRule(diags, RuleId::kPhaseImbalance));
}

TEST(StreamVerifierRules, Sc10MemOpWithoutAddress)
{
    const auto diags = StreamVerifier::verify(
        std::vector<MicroOp>{op(OpKind::kLoad, 0, 0, 8)});
    EXPECT_TRUE(hasRule(diags, RuleId::kMemMissingAddr));
}

TEST(StreamVerifierRules, Sc11MemOpWithoutSize)
{
    const auto diags = StreamVerifier::verify(
        std::vector<MicroOp>{op(OpKind::kLoad, 0x00601000, 0, 0)});
    EXPECT_TRUE(hasRule(diags, RuleId::kMemMissingSize));
}

TEST(StreamVerifierRules, Sc12MarkerWithoutChunkBase)
{
    const auto malloc_diags = StreamVerifier::verify(
        std::vector<MicroOp>{op(OpKind::kMallocMark, 0, 0, 64)});
    EXPECT_TRUE(hasRule(malloc_diags, RuleId::kAllocMarkMissingFields));
    const auto free_diags = StreamVerifier::verify(
        std::vector<MicroOp>{op(OpKind::kFreeMark, 0, 0)});
    EXPECT_TRUE(hasRule(free_diags, RuleId::kAllocMarkMissingFields));
}

TEST(StreamVerifierRules, Sc13BoundsOpOnUnsignedPointer)
{
    const auto diags = StreamVerifier::verify(
        std::vector<MicroOp>{op(OpKind::kBndstr, kChunk, kChunk, 64)});
    EXPECT_TRUE(hasRule(diags, RuleId::kBoundsOpUnsigned));
}

TEST(StreamVerifierRules, Sc14AutmNotAfterItsLoad)
{
    const auto diags = StreamVerifier::verify(std::vector<MicroOp>{
        op(OpKind::kIntAlu), op(OpKind::kAutm, signedPtr(), kChunk)});
    EXPECT_TRUE(hasRule(diags, RuleId::kAutmOrphan));
}

// --- SC15..SC18: elided-region contracts. ---

/** Dataflow plan for a benign single-chunk source program; the chunk
 *  (gen 1) is provably elidable. */
analysis::dataflow::ElisionPlan
singleChunkPlan()
{
    analysis::dataflow::DataflowEngine engine(kLayout);
    ir::VectorStream source(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunk, 64),
        op(OpKind::kLoad, kChunk + 16, kChunk, 8),
        op(OpKind::kStore, kChunk + 24, kChunk, 8),
        op(OpKind::kFreeMark, 0, kChunk)});
    engine.run(source);
    return analysis::dataflow::planBoundsElision(engine);
}

class ElidedRegionRules : public ::testing::Test
{
  protected:
    ElidedRegionRules() : plan(singleChunkPlan())
    {
        EXPECT_TRUE(plan.elided(kChunk, 1));
        options.layout = kLayout;
        options.elisionPlan = &plan;
    }

    std::vector<Diagnostic>
    verify(const std::vector<MicroOp> &ops)
    {
        return StreamVerifier::verify(ops, options);
    }

    analysis::dataflow::ElisionPlan plan;
    VerifierOptions options;
};

TEST_F(ElidedRegionRules, Sc15ResidualInstrumentation)
{
    const auto diags = verify(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunk, 64),
        op(OpKind::kBndstr, signedPtr(), kChunk, 64)});
    EXPECT_TRUE(hasRule(diags, RuleId::kElidedResidualInstr))
        << toString(diags);
}

TEST_F(ElidedRegionRules, Sc16AccessStillSigned)
{
    const auto diags = verify(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunk, 64),
        op(OpKind::kLoad, signedPtr(kChunk + 16), kChunk, 8)});
    EXPECT_TRUE(hasRule(diags, RuleId::kElidedSignedAccess))
        << toString(diags);
}

TEST_F(ElidedRegionRules, Sc17AccessOutsideProvenExtent)
{
    const auto diags = verify(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunk, 64),
        op(OpKind::kLoad, kChunk + 4096, kChunk, 8)});
    EXPECT_TRUE(hasRule(diags, RuleId::kElidedAccessOutOfPlan))
        << toString(diags);
}

TEST_F(ElidedRegionRules, Sc18PointerLoadContradictsEscapeProof)
{
    MicroOp load = op(OpKind::kLoad, kChunk + 16, kChunk, 8);
    load.loadsPointer = true;
    const auto diags = verify(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunk, 64), load});
    EXPECT_TRUE(hasRule(diags, RuleId::kElidedEscape)) << toString(diags);
}

TEST_F(ElidedRegionRules, ProperlyElidedStreamStaysClean)
{
    // What AosBoundsElidePass actually emits for the elided chunk: bare
    // marks and stripped in-extent accesses — no Fig. 7 sequences, and
    // no SC02/SC03 even though requireAosLowering is on.
    options.requireAosLowering = true;
    const auto diags = verify(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunk, 64),
        op(OpKind::kLoad, kChunk + 16, kChunk, 8),
        op(OpKind::kStore, kChunk + 24, kChunk, 8),
        op(OpKind::kFreeMark, 0, kChunk)});
    EXPECT_TRUE(diags.empty()) << toString(diags);
}

TEST(StreamVerifier, CleanSeededStreamStaysClean)
{
    // The benign malloc -> access -> free lifecycle trips nothing.
    const Addr ptr = signedPtr();
    const auto diags = StreamVerifier::verify(
        std::vector<MicroOp>{
            op(OpKind::kMallocMark, 0, kChunk, 64),
            op(OpKind::kPacma, ptr, kChunk),
            op(OpKind::kBndstr, ptr, kChunk, 64),
            op(OpKind::kLoad, signedPtr(kChunk + 16), kChunk, 8),
            op(OpKind::kStore, signedPtr(kChunk + 24), kChunk, 8),
            op(OpKind::kFreeMark, 0, kChunk),
            op(OpKind::kBndclr, ptr, kChunk),
            op(OpKind::kXpacm, kChunk, kChunk),
            op(OpKind::kPacma, signedPtr(kChunk, kPac, 1))},
        aosOptions());
    EXPECT_TRUE(diags.empty()) << toString(diags);
}

TEST(StreamVerifier, RepeatedSitesAreDedupedButStillCounted)
{
    StreamVerifier verifier{VerifierOptions{}};
    for (int i = 0; i < 10; ++i)
        verifier.observe(op(OpKind::kLoad, 0, 0, 0)); // SC10 + SC11 each
    verifier.finish();

    // One stored diagnostic per (rule, site) plus one suppressed-count
    // summary line per rule; the counters keep the full totals.
    EXPECT_EQ(verifier.diagnostics().size(), 4u)
        << toString(verifier.diagnostics());
    EXPECT_EQ(verifier.totalDiagnostics(), 20u);
    EXPECT_EQ(verifier.suppressedDiagnostics(), 18u);
    EXPECT_EQ(verifier.ruleCounts().at(RuleId::kMemMissingAddr), 10u);
    bool summarized = false;
    for (const auto &d : verifier.diagnostics())
        if (d.message.find("suppressed 9") != std::string::npos)
            summarized = true;
    EXPECT_TRUE(summarized) << toString(verifier.diagnostics());

    // A verified run exports the counters under verify_* names.
    core::RunResult run;
    run.verified = true;
    run.verifyDiagnostics = verifier.totalDiagnostics();
    run.verifySuppressed = verifier.suppressedDiagnostics();
    run.verifyRuleCounts = verifier.ruleCounts();
    const StatSet set = run.toStatSet();
    EXPECT_EQ(set.value("verify_total"), 20.0);
    EXPECT_EQ(set.value("verify_suppressed"), 18.0);
    EXPECT_EQ(set.value("verify_SC10_mem-missing-addr"), 10.0);
}

TEST(StreamVerifier, PerRuleSiteCapBoundsTheFlood)
{
    constexpr size_t kCap = StreamVerifier::kMaxPerRuleSites;
    constexpr size_t kSites = 2 * kCap;
    StreamVerifier verifier{VerifierOptions{}};
    // kSites distinct sites firing SC11 (distinct addrs, missing size).
    for (size_t i = 0; i < kSites; ++i)
        verifier.observe(op(OpKind::kLoad, 0x00601000 + 8 * i, 0, 0));
    verifier.finish();

    size_t stored = 0;
    for (const auto &d : verifier.diagnostics())
        if (d.rule == RuleId::kMemMissingSize &&
            d.message.find("suppressed") == std::string::npos)
            ++stored;
    EXPECT_EQ(stored, kCap);
    EXPECT_EQ(verifier.totalDiagnostics(), kSites);
    EXPECT_EQ(verifier.suppressedDiagnostics(), kSites - kCap);
}

// --- Corrupted real-pipeline output is flagged. ---

class CorruptedPipelineTest : public ::testing::Test
{
  protected:
    CorruptedPipelineTest() : pa(pa::PointerLayout(16, 46)) {}

    std::vector<MicroOp>
    lowerAos(std::vector<MicroOp> input)
    {
        ir::VectorStream source(std::move(input));
        compiler::AosOptPass opt(&source);
        compiler::AosBackendPass backend(&opt, &pa);
        std::vector<MicroOp> out;
        MicroOp next;
        while (backend.next(next))
            out.push_back(next);
        return out;
    }

    std::vector<Diagnostic>
    verify(const std::vector<MicroOp> &ops)
    {
        VerifierOptions options;
        options.layout = pa.layout();
        options.requireAosLowering = true;
        return StreamVerifier::verify(ops, options);
    }

    pa::PaContext pa;
};

TEST_F(CorruptedPipelineTest, StaticUseAfterFreeIsFlagged)
{
    // The pipeline output of a UAF program is itself statically
    // suspicious: the signed access follows its chunk's bndclr.
    const auto ops = lowerAos(
        {op(OpKind::kMallocMark, 0, kChunk, 64),
         op(OpKind::kFreeMark, 0, kChunk),
         op(OpKind::kLoad, kChunk + 16, kChunk, 8)});
    EXPECT_TRUE(hasRule(verify(ops), RuleId::kSignedAfterClear));
}

TEST_F(CorruptedPipelineTest, PacBitFlipIsFlagged)
{
    auto ops = lowerAos({op(OpKind::kMallocMark, 0, kChunk, 64),
                         op(OpKind::kLoad, kChunk + 16, kChunk, 8)});
    // Corrupt one PAC bit of the signed load (a forged pointer).
    bool corrupted = false;
    for (auto &o : ops) {
        if (o.kind == OpKind::kLoad && pa.layout().signed_(o.addr)) {
            o.addr ^= u64{1} << 50; // inside the PAC field (61..46)
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted);
    EXPECT_TRUE(hasRule(verify(ops), RuleId::kPacMismatch));
}

TEST_F(CorruptedPipelineTest, DroppedLoweringIsFlagged)
{
    auto ops = lowerAos({op(OpKind::kMallocMark, 0, kChunk, 64)});
    // Simulate a buggy backend that lost the bndstr.
    std::vector<MicroOp> broken;
    for (const auto &o : ops)
        if (o.kind != OpKind::kBndstr)
            broken.push_back(o);
    EXPECT_TRUE(hasRule(verify(broken), RuleId::kMallocNotLowered));
}

// --- StreamExecutor: architectural detection semantics. ---

TEST(StreamExecutor, BenignLifecycleHasNoDetections)
{
    StreamExecutor exec(kLayout);
    const auto stats = exec.run(std::vector<MicroOp>{
        op(OpKind::kBndstr, signedPtr(), kChunk, 64),
        op(OpKind::kLoad, signedPtr(kChunk + 16), kChunk, 8),
        op(OpKind::kStore, signedPtr(kChunk + 24), kChunk, 8),
        op(OpKind::kBndclr, signedPtr(), kChunk)});
    EXPECT_EQ(stats.detections(), 0u);
    EXPECT_EQ(stats.checkedAccesses, 2u);
    EXPECT_EQ(stats.bndstrs, 1u);
    EXPECT_EQ(stats.bndclrs, 1u);
}

TEST(StreamExecutor, OutOfBoundsAccessDetected)
{
    StreamExecutor exec(kLayout);
    const auto stats = exec.run(std::vector<MicroOp>{
        op(OpKind::kBndstr, signedPtr(), kChunk, 64),
        op(OpKind::kLoad, signedPtr(kChunk + 4096), kChunk, 8)});
    EXPECT_EQ(stats.boundsViolations, 1u);
}

TEST(StreamExecutor, UseAfterFreeDetected)
{
    StreamExecutor exec(kLayout);
    const auto stats = exec.run(std::vector<MicroOp>{
        op(OpKind::kBndstr, signedPtr(), kChunk, 64),
        op(OpKind::kBndclr, signedPtr(), kChunk),
        op(OpKind::kLoad, signedPtr(kChunk + 16), kChunk, 8)});
    EXPECT_EQ(stats.boundsViolations, 1u);
}

TEST(StreamExecutor, DoubleFreeDetected)
{
    StreamExecutor exec(kLayout);
    const auto stats = exec.run(std::vector<MicroOp>{
        op(OpKind::kBndstr, signedPtr(), kChunk, 64),
        op(OpKind::kBndclr, signedPtr(), kChunk),
        op(OpKind::kBndclr, signedPtr(), kChunk)});
    EXPECT_EQ(stats.clearFailures, 1u);
}

TEST(StreamExecutor, InvalidFreeOfUnsignedPointerDetected)
{
    StreamExecutor exec(kLayout);
    const auto stats = exec.run(
        std::vector<MicroOp>{op(OpKind::kBndclr, kChunk, kChunk)});
    EXPECT_EQ(stats.clearFailures, 1u);
}

TEST(StreamExecutor, StrippedAhcFailsAuthentication)
{
    StreamExecutor exec(kLayout);
    const auto stats = exec.run(
        std::vector<MicroOp>{op(OpKind::kAutm, kChunk, kChunk)});
    EXPECT_EQ(stats.authFailures, 1u);
}

TEST(StreamExecutor, ElisionPreservesTheDetectionProfile)
{
    // A stream with redundant autms plus one real AHC-strip attack.
    MicroOp load = op(OpKind::kLoad, signedPtr(kChunk + 16), kChunk, 8);
    load.loadsPointer = true;
    const std::vector<MicroOp> stream{
        op(OpKind::kBndstr, signedPtr(), kChunk, 64),
        load, op(OpKind::kAutm, signedPtr(kChunk + 16), kChunk),
        load, op(OpKind::kAutm, signedPtr(kChunk + 16), kChunk),
        load, op(OpKind::kAutm, signedPtr(kChunk + 16), kChunk),
        // Attack: the value's AHC was stripped; this autm must stay.
        op(OpKind::kLoad, kChunk + 32, kChunk, 8),
        op(OpKind::kAutm, kChunk + 32, kChunk)};

    ir::VectorStream source(stream);
    compiler::AosElidePass elide(&source, kLayout);
    std::vector<MicroOp> elided;
    MicroOp next;
    while (elide.next(next))
        elided.push_back(next);
    ASSERT_GT(elide.stats().autmElided, 0u);

    StreamExecutor full(kLayout);
    StreamExecutor reduced(kLayout);
    const auto full_stats = full.run(stream);
    const auto reduced_stats = reduced.run(elided);
    EXPECT_TRUE(reduced_stats.sameDetections(full_stats));
    EXPECT_EQ(full_stats.authFailures, 1u);
    EXPECT_LT(reduced_stats.autms, full_stats.autms);
}

// --- AosSystem integration: verify-after-instrument + elision. ---

class SystemStaticcheckTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite() { setQuiet(true); }

    core::RunResult
    runOne(baselines::SystemOptions options,
           const std::string &workload = "mcf")
    {
        core::AosSystem system(workloads::profileByName(workload), options);
        return system.run();
    }
};

TEST_F(SystemStaticcheckTest, VerifiedRunsAreCleanForEveryMechanism)
{
    for (baselines::Mechanism mech :
         {baselines::Mechanism::kWatchdog, baselines::Mechanism::kPa,
          baselines::Mechanism::kAos, baselines::Mechanism::kPaAos,
          baselines::Mechanism::kAsan}) {
        baselines::SystemOptions options;
        options.mech = mech;
        options.measureOps = 20000;
        options.verifyStream = true;
        const auto r = runOne(options);
        EXPECT_TRUE(r.verified);
        EXPECT_EQ(r.verifyDiagnostics, 0u)
            << baselines::mechanismName(mech) << ":\n"
            << toString(r.verifyFindings);
        EXPECT_TRUE(r.toStatSet().has("verify_total"));
    }
}

TEST_F(SystemStaticcheckTest, ElisionReducesDynamicAutms)
{
    baselines::SystemOptions options;
    options.mech = baselines::Mechanism::kPaAos;
    options.measureOps = 40000;
    const auto base = runOne(options);

    options.aosElision = true;
    options.verifyStream = true;
    const auto elided = runOne(options);

    ASSERT_GT(base.mix.autms, 0u);
    EXPECT_LT(elided.mix.autms, base.mix.autms);
    EXPECT_GT(elided.elide.autmElided, 0u);
    EXPECT_EQ(elided.elide.autmSeen,
              elided.elide.autmElided + elided.elide.autmKept);
    // Elision must not corrupt the stream or flag violations.
    EXPECT_EQ(elided.verifyDiagnostics, 0u)
        << toString(elided.verifyFindings);
    EXPECT_EQ(elided.violations, base.violations);
    // The elision stats surface in the flattened dump.
    const auto set = elided.toStatSet();
    EXPECT_TRUE(set.has("elide_rate"));
    EXPECT_GT(set.value("elide_autm_elided"), 0.0);
}

} // namespace
} // namespace aos::staticcheck
