/**
 * @file
 * Tests for the instrumentation pipeline: the AOS two-phase passes
 * (Fig. 7), the PA pass (Figs. 3/13), the Watchdog pass (Fig. 5a) and
 * the per-mechanism chains core::instrument() builds from them.
 */

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dataflow/engine.hh"
#include "compiler/aos_elide_pass.hh"
#include "compiler/aos_passes.hh"
#include "compiler/asan_pass.hh"
#include "compiler/op_counter.hh"
#include "compiler/pa_pass.hh"
#include "compiler/watchdog_pass.hh"
#include "core/aos_system.hh"
#include "pa/pa_context.hh"
#include "staticcheck/stream_verifier.hh"
#include "workloads/synthetic_workload.hh"

namespace aos::compiler {
namespace {

using baselines::Mechanism;
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

std::vector<MicroOp>
drain(ir::InstStream &stream)
{
    std::vector<MicroOp> out;
    MicroOp next;
    while (stream.next(next))
        out.push_back(next);
    return out;
}

std::vector<OpKind>
kinds(const std::vector<MicroOp> &ops)
{
    std::vector<OpKind> out;
    for (const auto &o : ops)
        out.push_back(o.kind);
    return out;
}

TEST(AosOptPass, InsertsIntrinsics)
{
    ir::VectorStream source({op(OpKind::kMallocMark, 0, 0x20001000, 64),
                             op(OpKind::kIntAlu),
                             op(OpKind::kFreeMark, 0, 0x20001000)});
    AosOptPass pass(&source);
    const auto out = kinds(drain(pass));
    const std::vector<OpKind> expect{
        OpKind::kMallocMark, OpKind::kAosMallocIntr, OpKind::kIntAlu,
        OpKind::kFreeMark, OpKind::kAosFreeIntr};
    EXPECT_EQ(out, expect);
}

class AosPipelineTest : public ::testing::Test
{
  protected:
    AosPipelineTest() : pa(pa::PointerLayout(16, 46)) {}

    std::vector<MicroOp>
    lower(std::vector<MicroOp> input)
    {
        ir::VectorStream source(std::move(input));
        return drain(*core::instrument(&source, Mechanism::kAos, &pa).passes);
    }

    pa::PaContext pa;
};

TEST_F(AosPipelineTest, MallocLoweredPerFig7a)
{
    const auto out =
        lower({op(OpKind::kMallocMark, 0, 0x20001000, 64)});
    // malloc marker ; pacma ; bndstr
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].kind, OpKind::kMallocMark);
    EXPECT_EQ(out[1].kind, OpKind::kPacma);
    EXPECT_EQ(out[2].kind, OpKind::kBndstr);
    // The bndstr carries the signed pointer and the size.
    EXPECT_TRUE(pa.layout().signed_(out[2].addr));
    EXPECT_EQ(pa.layout().strip(out[2].addr), 0x20001000u);
    EXPECT_EQ(out[2].size, 64u);
}

TEST_F(AosPipelineTest, FreeLoweredPerFig7b)
{
    const auto out = lower({op(OpKind::kMallocMark, 0, 0x20001000, 64),
                            op(OpKind::kFreeMark, 0, 0x20001000)});
    // ... free marker ; bndclr ; xpacm ; pacma(re-sign)
    const std::vector<OpKind> expect{
        OpKind::kMallocMark, OpKind::kPacma, OpKind::kBndstr,
        OpKind::kFreeMark, OpKind::kBndclr, OpKind::kXpacm,
        OpKind::kPacma};
    EXPECT_EQ(kinds(out), expect);
    // bndclr targets the same signed pointer pacma produced.
    EXPECT_EQ(out[4].addr, out[2].addr);
}

TEST_F(AosPipelineTest, HeapAccessesGetSigned)
{
    const auto out = lower({op(OpKind::kMallocMark, 0, 0x20001000, 64),
                            op(OpKind::kLoad, 0x20001010, 0x20001000),
                            op(OpKind::kStore, 0x20001020, 0x20001000)});
    const auto &load = out[3];
    const auto &store = out[4];
    ASSERT_EQ(load.kind, OpKind::kLoad);
    EXPECT_TRUE(pa.layout().signed_(load.addr));
    EXPECT_EQ(pa.layout().strip(load.addr), 0x20001010u);
    EXPECT_TRUE(pa.layout().signed_(store.addr));
    // PAC of interior pointers equals the chunk's PAC (propagation by
    // pointer arithmetic).
    EXPECT_EQ(pa.layout().pac(load.addr), pa.layout().pac(store.addr));
}

TEST_F(AosPipelineTest, NonHeapAccessesStayUnsigned)
{
    const auto out = lower({op(OpKind::kLoad, 0x00601000)});
    EXPECT_FALSE(pa.layout().signed_(out[0].addr));
}

TEST_F(AosPipelineTest, AccessAfterFreeStillSigned)
{
    // After free, the program's pointer is re-signed (locked): a UAF
    // access still carries a PAC so the MCU will check (and fail) it.
    const auto out = lower({op(OpKind::kMallocMark, 0, 0x20001000, 64),
                            op(OpKind::kFreeMark, 0, 0x20001000),
                            op(OpKind::kLoad, 0x20001010, 0x20001000)});
    const auto &uaf = out.back();
    ASSERT_EQ(uaf.kind, OpKind::kLoad);
    EXPECT_TRUE(pa.layout().signed_(uaf.addr));
}

TEST_F(AosPipelineTest, ReuseOfChunkGetsFreshSigning)
{
    const auto out = lower({op(OpKind::kMallocMark, 0, 0x20001000, 64),
                            op(OpKind::kFreeMark, 0, 0x20001000),
                            op(OpKind::kMallocMark, 0, 0x20001000, 32),
                            op(OpKind::kLoad, 0x20001008, 0x20001000)});
    const auto &load = out.back();
    EXPECT_TRUE(pa.layout().signed_(load.addr));
    // Same base and modifier -> same PAC, but AHC reflects new size.
    EXPECT_EQ(pa.layout().ahc(load.addr),
              pa.layout().computeAhc(0x20001000, 32));
}

TEST(PaPass, SignsCallsAndAuthenticatesReturns)
{
    ir::VectorStream source({op(OpKind::kCall), op(OpKind::kIntAlu),
                             op(OpKind::kRet)});
    PaPass pass(&source, PaMode::kPaOnly);
    const auto out = kinds(drain(pass));
    const std::vector<OpKind> expect{OpKind::kCall, OpKind::kPacia,
                                     OpKind::kIntAlu, OpKind::kAutia,
                                     OpKind::kRet};
    EXPECT_EQ(out, expect);
}

TEST(PaPass, OnLoadAuthForPointerLoads)
{
    MicroOp ptr_load = op(OpKind::kLoad, 0x20001000);
    ptr_load.loadsPointer = true;
    ir::VectorStream source({ptr_load, op(OpKind::kLoad, 0x20002000)});
    PaPass pass(&source, PaMode::kPaOnly);
    const auto out = kinds(drain(pass));
    const std::vector<OpKind> expect{OpKind::kLoad, OpKind::kAutia,
                                     OpKind::kLoad};
    EXPECT_EQ(out, expect);
}

TEST(PaPass, PaAosUsesCheapAutm)
{
    // Fig. 13: AOS pointers are authenticated with autm, not autia.
    MicroOp ptr_load = op(OpKind::kLoad, 0x20001000);
    ptr_load.loadsPointer = true;
    ir::VectorStream source({ptr_load});
    PaPass pass(&source, PaMode::kPaAos);
    const auto out = kinds(drain(pass));
    const std::vector<OpKind> expect{OpKind::kLoad, OpKind::kAutm};
    EXPECT_EQ(out, expect);
}

TEST(WatchdogPass, ChecksEveryMemoryAccess)
{
    ir::VectorStream source({op(OpKind::kLoad, 0x00601000),
                             op(OpKind::kStore, 0x00602000)});
    WatchdogPass pass(&source);
    const auto out = kinds(drain(pass));
    const std::vector<OpKind> expect{OpKind::kWdCheck, OpKind::kLoad,
                                     OpKind::kWdCheck, OpKind::kStore};
    EXPECT_EQ(out, expect);
}

TEST(WatchdogPass, HeapAccessLoadsLockLocation)
{
    ir::VectorStream source({op(OpKind::kLoad, 0x20001010, 0x20001000)});
    WatchdogPass pass(&source);
    const auto out = drain(pass);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].kind, OpKind::kWdCheck);
    EXPECT_EQ(out[1].kind, OpKind::kWdMetaLoad);
    EXPECT_GE(out[1].addr, 0x5000'0000'0000ull);
    EXPECT_EQ(out[2].kind, OpKind::kLoad);
}

TEST(WatchdogPass, LockCacheFiltersRepeatedChecks)
{
    std::vector<MicroOp> input;
    for (int i = 0; i < 10; ++i)
        input.push_back(op(OpKind::kLoad, 0x20001010, 0x20001000));
    ir::VectorStream source(std::move(input));
    WatchdogPass pass(&source);
    unsigned meta_loads = 0;
    for (const auto &o : drain(pass))
        meta_loads += o.kind == OpKind::kWdMetaLoad;
    EXPECT_EQ(meta_loads, 1u) << "only the first check misses the cache";
}

TEST(WatchdogPass, MallocFreeManageMetadata)
{
    ir::VectorStream source({op(OpKind::kMallocMark, 0, 0x20001000, 64),
                             op(OpKind::kFreeMark, 0, 0x20001000)});
    WatchdogPass pass(&source);
    unsigned meta_stores = 0;
    for (const auto &o : drain(pass))
        meta_stores += o.kind == OpKind::kWdMetaStore;
    EXPECT_EQ(meta_stores, 3u) << "setid (2) + lock invalidation (1)";
}

TEST(WatchdogPass, PropagatesPointerArithmetic)
{
    MicroOp arith = op(OpKind::kIntAlu);
    arith.isPtrArith = true;
    ir::VectorStream source({arith, op(OpKind::kIntAlu)});
    WatchdogPass pass(&source);
    const auto out = kinds(drain(pass));
    const std::vector<OpKind> expect{OpKind::kIntAlu, OpKind::kWdPropagate,
                                     OpKind::kIntAlu};
    EXPECT_EQ(out, expect);
}

TEST(OpCounter, CountsFig16Categories)
{
    pa::PointerLayout layout(16, 46);
    const Addr signed_addr = layout.compose(0x20001000, 5, 1);
    ir::VectorStream source(
        {op(OpKind::kLoad, 0x00601000), op(OpKind::kLoad, signed_addr),
         op(OpKind::kStore, signed_addr), op(OpKind::kBndstr, signed_addr),
         op(OpKind::kPacma, signed_addr), op(OpKind::kXpacm, signed_addr),
         op(OpKind::kBranch), op(OpKind::kWdCheck)});
    OpCounter counter(&source, layout);
    drain(counter);
    const auto &mix = counter.mix();
    EXPECT_EQ(mix.total, 8u);
    EXPECT_EQ(mix.unsignedLoads, 1u);
    EXPECT_EQ(mix.signedLoads, 1u);
    EXPECT_EQ(mix.signedStores, 1u);
    EXPECT_EQ(mix.boundsOps, 1u);
    EXPECT_EQ(mix.pacOps, 2u);
    EXPECT_EQ(mix.branches, 1u);
    EXPECT_EQ(mix.wdOps, 1u);
}

TEST(AsanPass, InstrumentsEveryMemoryAccess)
{
    ir::VectorStream source({op(OpKind::kLoad, 0x20001000),
                             op(OpKind::kIntAlu),
                             op(OpKind::kStore, 0x20002000)});
    AsanPass pass(&source);
    const auto out = kinds(drain(pass));
    const std::vector<OpKind> expect{
        OpKind::kLoad, OpKind::kBranch, OpKind::kLoad,  // shadow+cmp+ld
        OpKind::kIntAlu,
        OpKind::kLoad, OpKind::kBranch, OpKind::kStore};
    EXPECT_EQ(out, expect);
}

TEST(AsanPass, ShadowAddressIsOneEighthScale)
{
    ir::VectorStream source({op(OpKind::kLoad, 0x20001000),
                             op(OpKind::kLoad, 0x20001007)});
    AsanPass pass(&source);
    const auto out = drain(pass);
    ASSERT_EQ(out.size(), 6u);
    // Addresses within the same 8-byte granule share one shadow byte.
    EXPECT_EQ(out[0].addr, out[3].addr);
    EXPECT_GE(out[0].addr, 0x1000'0000'0000ull);
    // The next granule gets the next shadow byte.
    ir::VectorStream source2({op(OpKind::kLoad, 0x20001008)});
    AsanPass pass2(&source2);
    const auto out2 = drain(pass2);
    EXPECT_EQ(out2[0].addr, out[0].addr + 1);
}

TEST(AsanPass, MallocPoisonsRedzones)
{
    ir::VectorStream source({op(OpKind::kMallocMark, 0, 0x20001000, 64),
                             op(OpKind::kFreeMark, 0, 0x20001000)});
    AsanPass pass(&source);
    unsigned shadow_stores = 0;
    for (const auto &o : drain(pass))
        shadow_stores += o.kind == OpKind::kStore;
    EXPECT_GE(shadow_stores, 6u) << "redzone poison + unpoison + free";
}

TEST(Instrument, PassOrderPerMechanism)
{
    using Names = std::vector<std::string>;
    pa::PaContext pa(pa::PointerLayout(16, 46));
    const analysis::dataflow::ElisionPlan plan;
    const auto names = [&](Mechanism mech, core::InstrumentOptions options =
                                               {}) {
        ir::VectorStream source(std::vector<MicroOp>{});
        const auto chain = core::instrument(&source, mech, &pa, options);
        // The handles point at passes of the chain, and only when run.
        const Names got = chain.passes->passNames();
        const auto has = [&](const char *name) {
            return std::find(got.begin(), got.end(), name) != got.end();
        };
        EXPECT_EQ(chain.belide != nullptr, has("aos-bounds-elide-pass"));
        EXPECT_EQ(chain.elide != nullptr, has("aos-elide-pass"));
        return got;
    };

    EXPECT_EQ(names(Mechanism::kBaseline), Names{});
    EXPECT_EQ(names(Mechanism::kWatchdog), Names{"watchdog-pass"});
    EXPECT_EQ(names(Mechanism::kPa), Names{"pa-pass"});
    EXPECT_EQ(names(Mechanism::kAos),
              (Names{"aos-opt-pass", "aos-backend-pass"}));
    EXPECT_EQ(names(Mechanism::kPaAos),
              (Names{"aos-opt-pass", "aos-backend-pass", "pa-pass"}));
    EXPECT_EQ(names(Mechanism::kAsan), Names{"asan-pass"});

    // Bounds elision follows the lowering (after PaPass under PA+AOS);
    // autm elision comes last, and only PA+AOS runs it.
    EXPECT_EQ(names(Mechanism::kAos, {.boundsPlan = &plan}),
              (Names{"aos-opt-pass", "aos-backend-pass",
                     "aos-bounds-elide-pass"}));
    EXPECT_EQ(names(Mechanism::kAos, {.autmElision = true}),
              (Names{"aos-opt-pass", "aos-backend-pass"}));
    EXPECT_EQ(names(Mechanism::kPaAos, {.boundsPlan = &plan}),
              (Names{"aos-opt-pass", "aos-backend-pass", "pa-pass",
                     "aos-bounds-elide-pass"}));
    EXPECT_EQ(names(Mechanism::kPaAos, {.autmElision = true}),
              (Names{"aos-opt-pass", "aos-backend-pass", "pa-pass",
                     "aos-elide-pass"}));
    EXPECT_EQ(names(Mechanism::kPaAos,
                    {.boundsPlan = &plan, .autmElision = true}),
              (Names{"aos-opt-pass", "aos-backend-pass", "pa-pass",
                     "aos-bounds-elide-pass", "aos-elide-pass"}));
}

/**
 * Every production pipeline must verify clean: the StreamVerifier is
 * the machine-checked contract the figure harnesses rely on. Each test
 * drains a real 20k-window SyntheticWorkload through one mechanism's
 * instrument() chain and expects zero diagnostics (see
 * staticcheck_test.cc for the rules firing on deliberately corrupted
 * streams).
 */
class PipelineVerifyTest : public ::testing::Test
{
  protected:
    enum class Elision { kNone, kAutm, kBounds };

    /**
     * Under Elision::kBounds the plan comes from a dataflow pass over
     * a second copy of the stream, and the verifier checks the
     * SC15-SC18 contracts against it, as for the pa_aos_belide cells.
     */
    std::vector<staticcheck::Diagnostic>
    verify(Mechanism mech, const std::string &profile = "mcf",
           Elision elision = Elision::kNone)
    {
        constexpr u64 kOps = 20000;
        pa::PaContext pa(pa::PointerLayout(16, 46));
        const auto &workload_profile = workloads::profileByName(profile);
        std::optional<analysis::dataflow::ElisionPlan> plan;
        if (elision == Elision::kBounds) {
            workloads::SyntheticWorkload analysed(workload_profile, kOps);
            analysis::dataflow::DataflowEngine engine(pa.layout());
            engine.run(analysed);
            plan = analysis::dataflow::planBoundsElision(engine);
        }
        const analysis::dataflow::ElisionPlan *plan_ptr =
            plan ? &*plan : nullptr;

        workloads::SyntheticWorkload workload(workload_profile, kOps);
        const auto chain = core::instrument(
            &workload, mech, &pa,
            {.boundsPlan = plan_ptr,
             .autmElision = elision == Elision::kAutm});
        staticcheck::VerifierOptions options;
        options.layout = pa.layout();
        options.requireAosLowering =
            mech == Mechanism::kAos || mech == Mechanism::kPaAos;
        options.elisionPlan = plan_ptr;
        auto diags = staticcheck::StreamVerifier::verify(*chain.passes,
                                                         options);
        if (chain.belide) {
            belided = chain.belide->stats().bndstrElided;
            planned = plan->stats().chunksElided;
        }
        return diags;
    }

    u64 belided = 0; //!< bndstrs the last bounds-elided chain dropped.
    u64 planned = 0; //!< Chunks its plan elided.
};

TEST_F(PipelineVerifyTest, AosPipelineIsClean)
{
    const auto diags = verify(Mechanism::kAos);
    EXPECT_TRUE(diags.empty()) << staticcheck::toString(diags);
}

TEST_F(PipelineVerifyTest, PaAosPipelineIsClean)
{
    const auto diags = verify(Mechanism::kPaAos);
    EXPECT_TRUE(diags.empty()) << staticcheck::toString(diags);
}

TEST_F(PipelineVerifyTest, ElidedPaAosPipelineIsClean)
{
    // Elision removes autm ops but must not break any other invariant.
    const auto diags = verify(Mechanism::kPaAos, "mcf", Elision::kAutm);
    EXPECT_TRUE(diags.empty()) << staticcheck::toString(diags);
}

TEST_F(PipelineVerifyTest, BoundsElidedPaAosPipelineIsCleanUnderItsPlan)
{
    // gcc, unlike mcf, has chunks the plan elides (~99% at 20k).
    const auto diags = verify(Mechanism::kPaAos, "gcc", Elision::kBounds);
    EXPECT_TRUE(diags.empty()) << staticcheck::toString(diags);
    EXPECT_GT(planned, 0u);
    EXPECT_EQ(belided, planned);
}

TEST_F(PipelineVerifyTest, PaPipelineIsClean)
{
    const auto diags = verify(Mechanism::kPa);
    EXPECT_TRUE(diags.empty()) << staticcheck::toString(diags);
}

TEST_F(PipelineVerifyTest, WatchdogPipelineIsClean)
{
    const auto diags = verify(Mechanism::kWatchdog);
    EXPECT_TRUE(diags.empty()) << staticcheck::toString(diags);
}

TEST_F(PipelineVerifyTest, AsanRedzonePipelineIsClean)
{
    const auto diags = verify(Mechanism::kAsan);
    EXPECT_TRUE(diags.empty()) << staticcheck::toString(diags);
}

TEST_F(PipelineVerifyTest, CleanAcrossHeapHeavyProfiles)
{
    for (const char *profile : {"omnetpp", "gcc", "astar"}) {
        const auto diags = verify(Mechanism::kPaAos, profile);
        EXPECT_TRUE(diags.empty())
            << profile << ":\n" << staticcheck::toString(diags);
    }
}

TEST(AosElidePass, ElidesRepeatedSameChunkAuthentications)
{
    pa::PointerLayout layout(16, 46);
    const Addr chunk = 0x20001000;
    const Addr ptr = layout.compose(chunk, 7, 1);
    MicroOp auth = op(OpKind::kAutm, ptr, chunk);
    MicroOp load = op(OpKind::kLoad, ptr, chunk, 8);
    load.loadsPointer = true;
    ir::VectorStream source({load, auth, load, auth, load, auth});
    AosElidePass pass(&source, layout);
    const auto out = drain(pass);
    unsigned autms = 0;
    for (const auto &o : out)
        autms += o.kind == OpKind::kAutm;
    EXPECT_EQ(autms, 1u) << "only the first authentication executes";
    EXPECT_EQ(pass.stats().autmSeen, 3u);
    EXPECT_EQ(pass.stats().autmElided, 2u);
    EXPECT_EQ(pass.stats().autmKept, 1u);
}

TEST(AosElidePass, NeverElidesUnsignedOperands)
{
    // An unsigned operand means the AHC was stripped: its autm failure
    // IS the detection, so the pass must keep every one.
    pa::PointerLayout layout(16, 46);
    MicroOp auth = op(OpKind::kAutm, 0x20001010, 0x20001000);
    ir::VectorStream source({auth, auth, auth});
    AosElidePass pass(&source, layout);
    const auto out = drain(pass);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_EQ(pass.stats().autmElided, 0u);
}

TEST(AosElidePass, BndclrInvalidatesTheProof)
{
    pa::PointerLayout layout(16, 46);
    const Addr chunk = 0x20001000;
    const Addr ptr = layout.compose(chunk, 7, 1);
    MicroOp auth = op(OpKind::kAutm, ptr, chunk);
    ir::VectorStream source(
        {auth, op(OpKind::kBndclr, ptr, chunk), auth});
    AosElidePass pass(&source, layout);
    const auto out = drain(pass);
    unsigned autms = 0;
    for (const auto &o : out)
        autms += o.kind == OpKind::kAutm;
    EXPECT_EQ(autms, 2u) << "the post-free authentication must execute";
    EXPECT_EQ(pass.stats().invalidations, 1u);
}

TEST(AosElidePass, PacmaInvalidatesTheProof)
{
    pa::PointerLayout layout(16, 46);
    const Addr chunk = 0x20001000;
    const Addr ptr = layout.compose(chunk, 7, 1);
    MicroOp auth = op(OpKind::kAutm, ptr, chunk);
    MicroOp resign = op(OpKind::kPacma, ptr, chunk);
    ir::VectorStream source({auth, auth, resign, auth});
    AosElidePass pass(&source, layout);
    const auto out = drain(pass);
    unsigned autms = 0;
    for (const auto &o : out)
        autms += o.kind == OpKind::kAutm;
    EXPECT_EQ(autms, 2u) << "first auth + first auth after the re-sign";
}

TEST(AosElidePass, MetadataChangeDefeatsTheCachedProof)
{
    // Same chunk, different AHC (e.g. attacker-forged bits): the cached
    // proof does not match, so the authentication executes.
    pa::PointerLayout layout(16, 46);
    const Addr chunk = 0x20001000;
    MicroOp auth1 = op(OpKind::kAutm, layout.compose(chunk, 7, 1), chunk);
    MicroOp auth2 = op(OpKind::kAutm, layout.compose(chunk, 7, 2), chunk);
    ir::VectorStream source({auth1, auth2});
    AosElidePass pass(&source, layout);
    const auto out = drain(pass);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(pass.stats().autmElided, 0u);
}

TEST(PassManager, ChainsPassesInOrder)
{
    ir::VectorStream source({op(OpKind::kMallocMark, 0, 0x20001000, 64)});
    PassManager manager(&source);
    manager.add<AosOptPass>();
    pa::PaContext pa(pa::PointerLayout(16, 46));
    manager.add<AosBackendPass>(&pa);
    auto *counter =
        manager.add<OpCounter>(pa::PointerLayout(16, 46));
    MicroOp next;
    unsigned count = 0;
    while (manager.next(next))
        ++count;
    EXPECT_EQ(count, 3u); // marker + pacma + bndstr
    EXPECT_EQ(counter->mix().boundsOps, 1u);
    EXPECT_EQ(counter->mix().pacOps, 1u);
}

} // namespace
} // namespace aos::compiler
