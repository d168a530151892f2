/**
 * @file
 * Tests for the dataflow static-analysis stack (DESIGN.md §11): the
 * abstract domains in isolation, the forward engine's chunk summaries,
 * bounds-elision planning, the AosBoundsElidePass rewrite, and the
 * ObligationChecker's dynamic validation of the emitted proofs, and
 * the one chunk-instance rule all of them share. Also pins the
 * opKindName table exhaustively, since the diagnostics of every layer
 * above lean on it.
 */

#include <functional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dataflow/chunk_instances.hh"
#include "analysis/dataflow/domains.hh"
#include "analysis/dataflow/elision_plan.hh"
#include "analysis/dataflow/engine.hh"
#include "compiler/aos_bounds_elide_pass.hh"
#include "compiler/aos_passes.hh"
#include "compiler/pa_pass.hh"
#include "ir/micro_op.hh"
#include "pa/pa_context.hh"
#include "staticcheck/obligation_checker.hh"
#include "staticcheck/stream_executor.hh"
#include "staticcheck/stream_verifier.hh"
#include "workloads/synthetic_workload.hh"

namespace aos::analysis::dataflow {
namespace {

using ir::MicroOp;
using ir::OpKind;

const pa::PointerLayout kLayout(16, 46);

constexpr Addr kChunkA = 0x20001000;
constexpr Addr kChunkB = 0x20003000;

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

MicroOp
ptrLoad(Addr addr, Addr chunk, u32 size = 8)
{
    MicroOp out = op(OpKind::kLoad, addr, chunk, size);
    out.loadsPointer = true;
    return out;
}

// --- opKindName: exhaustive round-trip over every OpKind. ---

TEST(OpKindName, EveryKindHasAUniqueNonFallbackName)
{
    std::set<std::string> names;
    for (u8 raw = 0; raw <= static_cast<u8>(OpKind::kPhaseMark); ++raw) {
        const char *name = ir::opKindName(static_cast<OpKind>(raw));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "");
        EXPECT_STRNE(name, "unknown") << "kind " << unsigned(raw);
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate name '" << name << "' for kind " << unsigned(raw);
    }
    EXPECT_EQ(names.size(),
              static_cast<size_t>(OpKind::kPhaseMark) + 1);
    // Out-of-range values fall back instead of reading garbage.
    EXPECT_STREQ(ir::opKindName(static_cast<OpKind>(
                     static_cast<u8>(OpKind::kPhaseMark) + 1)),
                 "unknown");
}

// --- ProvenanceValue: flat lattice. ---

TEST(ProvenanceValue, JoinFollowsTheFlatLattice)
{
    const ChunkId a{kChunkA, 1};
    const ChunkId b{kChunkB, 1};
    const auto bot = ProvenanceValue::bottom();
    const auto va = ProvenanceValue::chunk(a);
    const auto vb = ProvenanceValue::chunk(b);
    const auto top = ProvenanceValue::unknown();

    EXPECT_TRUE(bot.join(va) == va);       // bottom is the identity
    EXPECT_TRUE(va.join(bot) == va);
    EXPECT_TRUE(va.join(va) == va);        // idempotent
    EXPECT_TRUE(va.join(vb).isUnknown());  // different chunks -> top
    EXPECT_TRUE(va.join(top).isUnknown()); // top absorbs
    EXPECT_TRUE(bot.join(bot).isBottom());
}

TEST(ProvenanceValue, GenerationsAreDistinctChunks)
{
    const auto gen1 = ProvenanceValue::chunk(ChunkId{kChunkA, 1});
    const auto gen2 = ProvenanceValue::chunk(ChunkId{kChunkA, 2});
    EXPECT_TRUE(gen1.join(gen2).isUnknown());
}

TEST(ProvenanceValue, TransfersPreserveAndForget)
{
    const auto va = ProvenanceValue::chunk(ChunkId{kChunkA, 1});
    EXPECT_TRUE(va.transferArith() == va);
    EXPECT_TRUE(ProvenanceValue::transferLoadUntracked().isUnknown());
}

// --- EscapeState: monotone two-point lattice. ---

TEST(EscapeState, TransfersAreMonotoneAndFirstCauseWins)
{
    EscapeState state;
    EXPECT_FALSE(state.escaped());
    state.onPointerLoaded();
    EXPECT_TRUE(state.escaped());
    EXPECT_EQ(state.cause(), EscapeState::Cause::kPointerLoaded);
    state.onUnknownAlias(); // later causes do not overwrite the first
    EXPECT_EQ(state.cause(), EscapeState::Cause::kPointerLoaded);
}

TEST(EscapeState, JoinIsLogicalOr)
{
    EscapeState local;
    EscapeState escaped;
    escaped.onStoredToMemory();
    EXPECT_TRUE(local.join(escaped).escaped());
    EXPECT_TRUE(escaped.join(local).escaped());
    EXPECT_FALSE(local.join(local).escaped());
    EXPECT_EQ(local.join(escaped).cause(),
              EscapeState::Cause::kStoredToMemory);
}

// --- OffsetRange: interval with widening. ---

TEST(OffsetRange, ObserveAndContains)
{
    OffsetRange range;
    EXPECT_TRUE(range.empty());
    EXPECT_TRUE(range.withinSize(0));
    range.observe(16, 8, 64);
    EXPECT_EQ(range.lo(), 16u);
    EXPECT_EQ(range.hi(), 23u);
    EXPECT_TRUE(range.contains(20));
    EXPECT_FALSE(range.contains(24));
    EXPECT_TRUE(range.withinSize(24));
    EXPECT_FALSE(range.withinSize(23));
    range.observe(0, 8, 64); // extends the hull downwards
    EXPECT_EQ(range.lo(), 0u);
    EXPECT_FALSE(range.widened());
}

TEST(OffsetRange, JoinTakesTheConvexHull)
{
    OffsetRange a;
    a.observe(0, 8, 64);
    OffsetRange b;
    b.observe(32, 8, 64);
    const OffsetRange hull = a.join(b, 64);
    EXPECT_EQ(hull.lo(), 0u);
    EXPECT_EQ(hull.hi(), 39u);
    EXPECT_TRUE(a.join(OffsetRange(), 64).contains(0)); // empty is identity
}

TEST(OffsetRange, RepeatedGrowthWidensToTheLimit)
{
    OffsetRange range;
    for (unsigned i = 0; i <= OffsetRange::kWidenThreshold + 1; ++i)
        range.observe(8 * i, 8, 1024); // every observe extends the hull
    EXPECT_TRUE(range.widened());
    EXPECT_EQ(range.lo(), 0u);
    EXPECT_EQ(range.hi(), 1023u);
    // In-range re-observations are not lattice steps.
    OffsetRange stable;
    stable.observe(0, 64, 64);
    for (unsigned i = 0; i < 4 * OffsetRange::kWidenThreshold; ++i)
        stable.observe(8, 8, 64);
    EXPECT_FALSE(stable.widened());
}

// --- ChunkInstances: the one chunk-instance rule. ---

TEST(ChunkInstances, ReuseDoubleFreeAndUseAfterFree)
{
    ChunkInstances<int> instances;
    bool was_open = true;

    // A never-allocated base has no instance, and freeing it finds
    // none (an invalid free).
    EXPECT_EQ(instances.find(kChunkA), nullptr);
    EXPECT_EQ(instances.onFree(kChunkA, &was_open), nullptr);
    EXPECT_FALSE(was_open);

    auto &first = instances.onMalloc(kChunkA, &was_open);
    EXPECT_FALSE(was_open);
    EXPECT_EQ(first.gen, 1u);
    EXPECT_TRUE(first.open);
    first.payload = 7;

    // Free closes the instance; a use after free still finds it.
    ASSERT_NE(instances.onFree(kChunkA, &was_open), nullptr);
    EXPECT_TRUE(was_open);
    const auto *uaf = instances.find(kChunkA);
    ASSERT_NE(uaf, nullptr);
    EXPECT_EQ(uaf->gen, 1u);
    EXPECT_FALSE(uaf->open);
    EXPECT_EQ(uaf->payload, 7);

    // A double free finds the same, already closed instance.
    const auto *twice = instances.onFree(kChunkA, &was_open);
    ASSERT_NE(twice, nullptr);
    EXPECT_FALSE(was_open);
    EXPECT_EQ(twice->gen, 1u);

    // Reuse opens the next generation; the old payload waits for the
    // caller to replace it.
    auto &second = instances.onMalloc(kChunkA, &was_open);
    EXPECT_FALSE(was_open);
    EXPECT_EQ(second.gen, 2u);
    EXPECT_TRUE(second.open);
    EXPECT_EQ(second.payload, 7);

    // A malloc at a still-open base reports the stale instance.
    EXPECT_EQ(instances.onMalloc(kChunkA, &was_open).gen, 3u);
    EXPECT_TRUE(was_open);
    EXPECT_EQ(instances.find(kChunkB), nullptr);
}

TEST(ChunkInstances, EngineAndPlanReadersApplyTheSameRule)
{
    // Per op: the instance the base names afterwards (gen 0 = none).
    struct Step
    {
        MicroOp op;
        Addr base;
        u32 gen;
        bool open;
    };
    const std::vector<Step> steps = {
        {op(OpKind::kMallocMark, 0, kChunkA, 64), kChunkA, 1, true},
        {op(OpKind::kLoad, kChunkA + 8, kChunkA, 8), kChunkA, 1, true},
        {op(OpKind::kFreeMark, 0, kChunkA), kChunkA, 1, false},
        // Use after free and double free stay with generation 1.
        {op(OpKind::kLoad, kChunkA + 8, kChunkA, 8), kChunkA, 1, false},
        {op(OpKind::kFreeMark, 0, kChunkA), kChunkA, 1, false},
        // Reuse; the intrinsic twin of the marker opens nothing.
        {op(OpKind::kMallocMark, 0, kChunkA, 32), kChunkA, 2, true},
        {op(OpKind::kAosMallocIntr, 0, kChunkA, 32), kChunkA, 2, true},
        {op(OpKind::kFreeMark, 0, kChunkB), kChunkB, 0, false},
        {op(OpKind::kMallocMark, 0, kChunkB, 16), kChunkB, 1, true},
    };
    std::vector<MicroOp> stream;
    for (const Step &step : steps)
        stream.push_back(step.op);

    DataflowEngine engine(kLayout);
    ir::VectorStream source(stream);
    engine.run(source);
    ASSERT_EQ(engine.summaries().size(), 3u);
    const ChunkSummary &a1 = engine.summaries()[0];
    EXPECT_EQ(a1.id(), (ChunkId{kChunkA, 1}));
    EXPECT_EQ(a1.freeCount, 2u);
    EXPECT_EQ(a1.accessesAfterFree, 1u);
    EXPECT_EQ(engine.summaries()[1].id(), (ChunkId{kChunkA, 2}));
    EXPECT_EQ(engine.summaries()[2].id(), (ChunkId{kChunkB, 1}));
    EXPECT_EQ(engine.invalidFrees(), 1u);

    // The verifier's and the checker's reader follows the same rule
    // and tags each instance with the plan's verdict.
    const ElisionPlan plan = planBoundsElision(engine);
    ElisionPlan::Instances instances;
    for (const Step &step : steps) {
        plan.track(instances, step.op);
        SCOPED_TRACE(ir::opKindName(step.op.kind));
        const auto *inst = instances.find(step.base);
        if (step.gen == 0) {
            EXPECT_EQ(inst, nullptr);
            continue;
        }
        ASSERT_NE(inst, nullptr);
        EXPECT_EQ(inst->gen, step.gen);
        EXPECT_EQ(inst->open, step.open);
        EXPECT_EQ(inst->payload.elided, plan.elided(step.base, step.gen));
    }
    EXPECT_FALSE(plan.elided(kChunkA, 1)); // temporally unsafe
    EXPECT_TRUE(instances.find(kChunkB)->payload.elided);
    EXPECT_EQ(instances.find(kChunkB)->payload.size, 16u);
}

/**
 * Hands its source on one op per batch and shows each op to a
 * callback, so a pass pulling from it has consumed exactly the ops up
 * to the one it emitted last.
 */
class OpByOpStream : public ir::InstStream
{
  public:
    OpByOpStream(ir::InstStream *source,
                 std::function<void(const MicroOp &)> on_op)
        : _source(source), _onOp(std::move(on_op))
    {
    }

    bool
    next(MicroOp &op) override
    {
        if (!_source->next(op))
            return false;
        _onOp(op);
        return true;
    }

    size_t
    nextBatch(MicroOp *out, size_t max) override
    {
        return max != 0 && next(*out) ? 1 : 0;
    }

  private:
    ir::InstStream *_source;
    std::function<void(const MicroOp &)> _onOp;
};

TEST(ChunkInstances, EveryStageSeesTheEnginesInstancesOnOmnetpp)
{
    // omnetpp reuses bases heavily across its ~700k warm-up chunks.
    // The engine summarizes the source stream; the pass rewrites the
    // PA+AOS lowering of the same stream; the verifier reads the pass's
    // output; the checker replays both streams. At every kMallocMark
    // each must name the instance the engine's next summary names.
    const auto &profile = workloads::profileByName("omnetpp");
    constexpr u64 kWindow = 2'000;

    DataflowEngine engine(kLayout);
    workloads::SyntheticWorkload analysis_copy(profile, kWindow);
    engine.run(analysis_copy);
    const ElisionPlan plan = planBoundsElision(engine);
    const std::vector<ChunkSummary> &sums = engine.summaries();
    ASSERT_GT(sums.size(), 100'000u);
    ASSERT_GT(plan.stats().chunksElided, 0u);

    pa::PaContext pa(kLayout);
    workloads::SyntheticWorkload source(profile, kWindow);
    compiler::AosOptPass opt(&source);
    compiler::AosBackendPass backend(&opt, &pa);
    compiler::PaPass papass(&backend, compiler::PaMode::kPaAos);

    // The checker's replay of the full stream: the pass's input.
    ElisionPlan::Instances full_replay;
    size_t full_marks = 0;
    u64 mismatches = 0;
    auto expect_instance = [&](const char *stage, size_t mark, Addr base,
                               const auto &instances) {
        const auto *inst = instances.find(base);
        const u32 gen = inst ? inst->gen : 0;
        if (mark < sums.size() && sums[mark].id() == ChunkId{base, gen})
            return;
        if (++mismatches <= 4)
            ADD_FAILURE() << stage << " at malloc " << mark << ": base 0x"
                          << std::hex << base << std::dec << " gen "
                          << gen;
    };
    OpByOpStream full(&papass, [&](const MicroOp &op) {
        plan.track(full_replay, op);
        if (op.kind == OpKind::kMallocMark && op.chunkBase != 0) {
            expect_instance("checker (full)", full_marks++, op.chunkBase,
                            full_replay);
        }
    });
    compiler::AosBoundsElidePass pass(&full, kLayout, &plan);

    staticcheck::VerifierOptions options;
    options.layout = kLayout;
    options.requireAosLowering = true;
    options.elisionPlan = &plan;
    staticcheck::StreamVerifier verifier(options);
    ElisionPlan::Instances elided_replay;

    size_t marks = 0;
    MicroOp op;
    while (pass.next(op)) {
        verifier.observe(op);
        plan.track(elided_replay, op);
        if (op.kind != OpKind::kMallocMark || op.chunkBase == 0)
            continue;
        const Addr base = op.chunkBase;
        expect_instance("pass", marks, base, pass.instances());
        expect_instance("verifier", marks, base, verifier.instances());
        expect_instance("checker (elided)", marks, base, elided_replay);
        ++marks;
    }
    verifier.finish();
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(marks, sums.size());
    EXPECT_EQ(full_marks, sums.size());
    EXPECT_TRUE(verifier.clean())
        << staticcheck::toString(verifier.diagnostics());
    EXPECT_EQ(pass.stats().bndstrElided, plan.stats().chunksElided);
}

// --- DataflowEngine: chunk summaries over a source stream. ---

TEST(DataflowEngine, SummarizesABenignLifecycle)
{
    DataflowEngine engine(kLayout);
    ir::VectorStream source(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunkA, 64),
        op(OpKind::kLoad, kChunkA + 16, kChunkA, 8),
        op(OpKind::kStore, kChunkA + 24, kChunkA, 8),
        op(OpKind::kFreeMark, 0, kChunkA)});
    EXPECT_EQ(engine.run(source), 4u);

    ASSERT_EQ(engine.summaries().size(), 1u);
    const ChunkSummary &sum = engine.summaries()[0];
    EXPECT_EQ(sum.base, kChunkA);
    EXPECT_EQ(sum.gen, 1u);
    EXPECT_EQ(sum.size, 64u);
    EXPECT_EQ(sum.accesses, 2u);
    EXPECT_EQ(sum.freeCount, 1u);
    EXPECT_EQ(sum.accessesAfterFree, 0u);
    EXPECT_TRUE(sum.allInBounds);
    EXPECT_FALSE(sum.escape.escaped());
    EXPECT_EQ(sum.range.lo(), 16u);
    EXPECT_EQ(sum.range.hi(), 31u);
}

TEST(DataflowEngine, PointerLoadEscapesTheChunk)
{
    DataflowEngine engine(kLayout);
    ir::VectorStream source(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunkA, 64),
        ptrLoad(kChunkA + 8, kChunkA)});
    engine.run(source);
    ASSERT_EQ(engine.summaries().size(), 1u);
    EXPECT_TRUE(engine.summaries()[0].escape.escaped());
    EXPECT_EQ(engine.summaries()[0].escape.cause(),
              EscapeState::Cause::kPointerLoaded);
    EXPECT_EQ(engine.summaries()[0].pointerLoads, 1u);
}

TEST(DataflowEngine, UnknownProvenanceAliasEscapesTheChunk)
{
    DataflowEngine engine(kLayout);
    ir::VectorStream source(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunkA, 64),
        op(OpKind::kStore, kChunkA + 8, 0, 8)}); // no provenance
    engine.run(source);
    ASSERT_EQ(engine.summaries().size(), 1u);
    EXPECT_EQ(engine.summaries()[0].escape.cause(),
              EscapeState::Cause::kUnknownAlias);
}

TEST(DataflowEngine, FlagsSpatialAndTemporalViolations)
{
    DataflowEngine engine(kLayout);
    ir::VectorStream source(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunkA, 64),
        op(OpKind::kLoad, kChunkA + 4096, kChunkA, 8), // out of bounds
        op(OpKind::kFreeMark, 0, kChunkA),
        op(OpKind::kLoad, kChunkA + 8, kChunkA, 8),    // use after free
        op(OpKind::kFreeMark, 0, kChunkA)});           // double free
    engine.run(source);
    ASSERT_EQ(engine.summaries().size(), 1u);
    const ChunkSummary &sum = engine.summaries()[0];
    EXPECT_FALSE(sum.allInBounds);
    EXPECT_EQ(sum.accessesAfterFree, 1u);
    EXPECT_EQ(sum.freeCount, 2u);
}

TEST(DataflowEngine, BaseReuseOpensANewGeneration)
{
    DataflowEngine engine(kLayout);
    ir::VectorStream source(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunkA, 64),
        op(OpKind::kFreeMark, 0, kChunkA),
        op(OpKind::kMallocMark, 0, kChunkA, 128),
        op(OpKind::kLoad, kChunkA + 8, kChunkA, 8)});
    engine.run(source);
    ASSERT_EQ(engine.summaries().size(), 2u);
    EXPECT_EQ(engine.summaries()[0].gen, 1u);
    EXPECT_EQ(engine.summaries()[1].gen, 2u);
    EXPECT_EQ(engine.summaries()[1].size, 128u);
    EXPECT_EQ(engine.summaries()[1].accesses, 1u);
    EXPECT_EQ(engine.summaries()[0].accesses, 0u);
}

TEST(DataflowEngine, ProvenanceQueryTracksTheLiveHeap)
{
    DataflowEngine engine(kLayout);
    ir::VectorStream source(std::vector<MicroOp>{
        op(OpKind::kMallocMark, 0, kChunkA, 64)});
    engine.run(source);
    EXPECT_TRUE(engine.provenanceOf(kChunkA + 8).isChunk());
    EXPECT_EQ(engine.provenanceOf(kChunkA + 8).id().base, kChunkA);
    EXPECT_TRUE(engine.provenanceOf(kChunkB).isUnknown());
    ASSERT_NE(engine.current(kChunkA), nullptr);
    EXPECT_EQ(engine.current(kChunkB), nullptr);
}

TEST(DataflowEngine, AliasLookupTakesTheGreatestLiveBase)
{
    // An address belongs to the live chunk with the greatest base at
    // or below it, and only if it lies before that chunk's end: a
    // chunk nested inside another shadows the outer one above its own
    // end. Adjacent chunks split at the shared boundary.
    constexpr Addr kOuter = 0x20001000; // [0x1000, 0x1100)
    constexpr Addr kInner = 0x20001080; // [0x1080, 0x1090), nested
    constexpr Addr kNext = 0x20001100;  // [0x1100, 0x1140), adjacent
    constexpr Addr kEmpty = 0x20001200; // zero-size: no extent
    DataflowEngine engine(kLayout);
    engine.step(op(OpKind::kMallocMark, 0, kOuter, 0x100));
    engine.step(op(OpKind::kMallocMark, 0, kInner, 0x10));
    engine.step(op(OpKind::kMallocMark, 0, kNext, 0x40));
    engine.step(op(OpKind::kMallocMark, 0, kEmpty, 0));

    const auto owner = [&](Addr addr) {
        const ProvenanceValue p = engine.provenanceOf(addr);
        return p.isChunk() ? p.id().base : Addr{0};
    };
    EXPECT_EQ(owner(kOuter - 1), 0u);
    EXPECT_EQ(owner(kOuter), kOuter);
    EXPECT_EQ(owner(kInner - 1), kOuter);
    EXPECT_EQ(owner(kInner), kInner);
    EXPECT_EQ(owner(kInner + 0xf), kInner);
    EXPECT_EQ(owner(kInner + 0x10), 0u); // Inside kOuter, past kInner.
    EXPECT_EQ(owner(kNext - 1), 0u);
    EXPECT_EQ(owner(kNext), kNext);
    EXPECT_EQ(owner(kNext + 0x3f), kNext);
    EXPECT_EQ(owner(kNext + 0x40), 0u);
    EXPECT_EQ(owner(kEmpty), 0u);
    EXPECT_EQ(owner(kEmpty + 0x1000), 0u);

    // Freeing the nested chunk uncovers the outer one; freeing the
    // adjacent one leaves its range to nobody.
    engine.step(op(OpKind::kFreeMark, 0, kInner));
    EXPECT_EQ(owner(kInner + 0x10), kOuter);
    EXPECT_EQ(owner(kInner), kOuter);
    engine.step(op(OpKind::kFreeMark, 0, kNext));
    EXPECT_EQ(owner(kNext), 0u);
    EXPECT_EQ(owner(kNext - 1), kOuter);

    // An unattributed store into the outer chunk aliases it.
    engine.step(op(OpKind::kStore, kOuter + 0x90, 0, 8));
    EXPECT_EQ(engine.current(kOuter)->escape.cause(),
              EscapeState::Cause::kUnknownAlias);
}

// --- planBoundsElision: verdicts and obligations. ---

ElisionPlan
planFor(const std::vector<MicroOp> &source)
{
    DataflowEngine engine(kLayout);
    ir::VectorStream stream(source);
    engine.run(stream);
    return planBoundsElision(engine);
}

TEST(ElisionPlanning, ProvenChunkCarriesAFullObligation)
{
    const ElisionPlan plan = planFor(
        {op(OpKind::kMallocMark, 0, kChunkA, 64),
         op(OpKind::kLoad, kChunkA + 16, kChunkA, 8),
         op(OpKind::kFreeMark, 0, kChunkA)});
    EXPECT_TRUE(plan.elided(kChunkA, 1));
    EXPECT_EQ(plan.stats().chunksSeen, 1u);
    EXPECT_EQ(plan.stats().chunksElided, 1u);
    const ProofObligation *ob = plan.find(kChunkA, 1);
    ASSERT_NE(ob, nullptr);
    EXPECT_EQ(ob->size, 64u);
    EXPECT_EQ(ob->assumptions,
              u32{kNonEscaping | kInBounds | kTemporalSafe});
    EXPECT_EQ(ob->accesses, 1u);
    EXPECT_EQ(ob->minOff, 16u);
    EXPECT_EQ(ob->maxOff, 23u);
}

TEST(ElisionPlanning, RejectionsArePartitionedByFirstFailedAssumption)
{
    // Escaped: pointer load.
    const ElisionPlan escaped = planFor(
        {op(OpKind::kMallocMark, 0, kChunkA, 64),
         ptrLoad(kChunkA + 8, kChunkA)});
    EXPECT_FALSE(escaped.elided(kChunkA, 1));
    EXPECT_EQ(escaped.stats().rejectEscaped, 1u);

    // Out of bounds.
    const ElisionPlan oob = planFor(
        {op(OpKind::kMallocMark, 0, kChunkA, 64),
         op(OpKind::kLoad, kChunkA + 4096, kChunkA, 8)});
    EXPECT_FALSE(oob.elided(kChunkA, 1));
    EXPECT_EQ(oob.stats().rejectOutOfBounds, 1u);

    // Temporal: double free.
    const ElisionPlan dfree = planFor(
        {op(OpKind::kMallocMark, 0, kChunkA, 64),
         op(OpKind::kFreeMark, 0, kChunkA),
         op(OpKind::kFreeMark, 0, kChunkA)});
    EXPECT_FALSE(dfree.elided(kChunkA, 1));
    EXPECT_EQ(dfree.stats().rejectTemporal, 1u);

    // Temporal: use after free.
    const ElisionPlan uaf = planFor(
        {op(OpKind::kMallocMark, 0, kChunkA, 64),
         op(OpKind::kFreeMark, 0, kChunkA),
         op(OpKind::kLoad, kChunkA + 8, kChunkA, 8)});
    EXPECT_FALSE(uaf.elided(kChunkA, 1));
    EXPECT_EQ(uaf.stats().rejectTemporal, 1u);

    // Zero size can never be proven in bounds.
    const ElisionPlan zero =
        planFor({op(OpKind::kMallocMark, 0, kChunkA, 0)});
    EXPECT_FALSE(zero.elided(kChunkA, 1));
    EXPECT_EQ(zero.stats().rejectZeroSize, 1u);
}

TEST(ElisionPlanning, NeverAccessedChunkIsElidable)
{
    // The warmup heaps are full of these; they are exactly the dead
    // instrumentation the pass exists to drop.
    const ElisionPlan plan = planFor(
        {op(OpKind::kMallocMark, 0, kChunkA, 64),
         op(OpKind::kFreeMark, 0, kChunkA)});
    EXPECT_TRUE(plan.elided(kChunkA, 1));
    const ProofObligation *ob = plan.find(kChunkA, 1);
    ASSERT_NE(ob, nullptr);
    EXPECT_EQ(ob->accesses, 0u);
}

TEST(ElisionPlanning, IndexIsExactAcrossGenerationsAndHighBases)
{
    // One base reused for more than 2^16 generations, and bases that
    // differ from it only in high VA bits: an index that folded
    // (base, gen) into one hashed key could confuse these. Every
    // seventh instance of each base escapes, so verdicts alternate.
    constexpr u32 kGens = (1u << 16) + 300;
    const std::vector<Addr> high = {kChunkA | (Addr{1} << 45),
                                    kChunkA | (Addr{1} << 44),
                                    kChunkA | (Addr{1} << 40)};
    const auto expectElided = [](u32 gen) { return gen % 7 != 0; };
    std::vector<MicroOp> source;
    const auto lifetime = [&](Addr base, u32 gen) {
        source.push_back(op(OpKind::kMallocMark, 0, base, 64));
        if (!expectElided(gen))
            source.push_back(ptrLoad(base + 8, base));
        source.push_back(op(OpKind::kFreeMark, 0, base));
    };
    u32 high_gens = 0;
    for (u32 gen = 1; gen <= kGens; ++gen) {
        lifetime(kChunkA, gen);
        if (gen % 500 == 0) {
            ++high_gens;
            for (Addr base : high)
                lifetime(base, high_gens);
        }
    }

    DataflowEngine engine(kLayout);
    ir::VectorStream stream(source);
    engine.run(stream);
    const ElisionPlan plan = planBoundsElision(engine);
    ASSERT_EQ(engine.summaries().size(), kGens + high.size() * high_gens);

    for (const ProofObligation &ob : plan.obligations()) {
        const ProofObligation *found =
            plan.find(ob.chunk.base, ob.chunk.gen);
        ASSERT_EQ(found, &ob);
        EXPECT_EQ(found->chunk, ob.chunk);
    }
    u64 elided = 0;
    for (const ChunkSummary &sum : engine.summaries()) {
        const ProofObligation *found = plan.find(sum.base, sum.gen);
        if (expectElided(sum.gen)) {
            ++elided;
            ASSERT_NE(found, nullptr)
                << std::hex << sum.base << std::dec << " gen "
                << sum.gen;
            EXPECT_EQ(found->chunk, sum.id());
        } else {
            EXPECT_EQ(found, nullptr)
                << std::hex << sum.base << std::dec << " gen "
                << sum.gen;
            EXPECT_FALSE(plan.elided(sum.base, sum.gen));
        }
    }
    EXPECT_EQ(plan.obligations().size(), elided);

    // Generations the stream never reached, and an unknown base.
    EXPECT_EQ(plan.find(kChunkA, 0), nullptr);
    EXPECT_EQ(plan.find(kChunkA, kGens + 1), nullptr);
    EXPECT_EQ(plan.find(high[0], high_gens + 1), nullptr);
    EXPECT_EQ(plan.find(kChunkB, 1), nullptr);
}

// --- AosBoundsElidePass + ObligationChecker end to end. ---

class BoundsElisionPipeline : public ::testing::Test
{
  protected:
    BoundsElisionPipeline() : pa(kLayout) {}

    /** Source program: chunk A is provably elidable, chunk B escapes
     *  via a pointer load (and so keeps its instrumentation). */
    std::vector<MicroOp>
    sourceProgram() const
    {
        return {op(OpKind::kMallocMark, 0, kChunkA, 64),
                op(OpKind::kLoad, kChunkA + 16, kChunkA, 8),
                op(OpKind::kStore, kChunkA + 24, kChunkA, 8),
                op(OpKind::kMallocMark, 0, kChunkB, 64),
                ptrLoad(kChunkB + 8, kChunkB),
                op(OpKind::kStore, kChunkB + 16, kChunkB, 8),
                op(OpKind::kFreeMark, 0, kChunkA),
                op(OpKind::kFreeMark, 0, kChunkB)};
    }

    std::vector<MicroOp>
    lower(std::vector<MicroOp> input)
    {
        ir::VectorStream source(std::move(input));
        compiler::AosOptPass opt(&source);
        compiler::AosBackendPass backend(&opt, &pa);
        compiler::PaPass papass(&backend, compiler::PaMode::kPaAos);
        std::vector<MicroOp> out;
        MicroOp next;
        while (papass.next(next))
            out.push_back(next);
        return out;
    }

    std::vector<MicroOp>
    elide(const std::vector<MicroOp> &lowered, const ElisionPlan &plan,
          compiler::BoundsElideStats *stats = nullptr)
    {
        ir::VectorStream source(lowered);
        compiler::AosBoundsElidePass pass(&source, kLayout, &plan);
        std::vector<MicroOp> out;
        MicroOp next;
        while (pass.next(next))
            out.push_back(next);
        if (stats)
            *stats = pass.stats();
        return out;
    }

    pa::PaContext pa;
};

TEST_F(BoundsElisionPipeline, DropsTheQuadrupleForProvenChunksOnly)
{
    const ElisionPlan plan = planFor(sourceProgram());
    EXPECT_TRUE(plan.elided(kChunkA, 1));
    EXPECT_FALSE(plan.elided(kChunkB, 1));

    const auto full = lower(sourceProgram());
    compiler::BoundsElideStats stats;
    const auto elided = elide(full, plan, &stats);

    EXPECT_EQ(stats.bndstrSeen, 2u);
    EXPECT_EQ(stats.bndstrElided, 1u);
    EXPECT_EQ(stats.bndclrSeen, 2u);
    EXPECT_EQ(stats.bndclrElided, 1u);
    EXPECT_GE(stats.pacmaElided, 1u);
    EXPECT_EQ(stats.accessesStripped, 2u); // A's two accesses
    EXPECT_EQ(stats.autmElided, 0u);       // escaping B keeps its autm
    EXPECT_LT(elided.size(), full.size());

    // B's instrumentation is intact: same bndstr/bndclr counts for it.
    unsigned b_bndstr = 0;
    for (const auto &o : elided)
        if (o.kind == OpKind::kBndstr && o.chunkBase == kChunkB)
            ++b_bndstr;
    EXPECT_EQ(b_bndstr, 1u);
}

TEST_F(BoundsElisionPipeline, ElidedStreamPassesTheVerifierContracts)
{
    const ElisionPlan plan = planFor(sourceProgram());
    const auto elided = elide(lower(sourceProgram()), plan);

    staticcheck::VerifierOptions options;
    options.layout = kLayout;
    options.requireAosLowering = true;
    options.elisionPlan = &plan;
    const auto diags = staticcheck::StreamVerifier::verify(elided, options);
    EXPECT_TRUE(diags.empty()) << staticcheck::toString(diags);

    // Without the plan the same stream is (rightly) suspicious: the
    // SC15..SC18 contracts are what make elision verifiable.
    options.elisionPlan = nullptr;
    const auto bare = staticcheck::StreamVerifier::verify(elided, options);
    EXPECT_FALSE(bare.empty());
}

TEST_F(BoundsElisionPipeline, ObligationCheckerAcceptsASoundPlan)
{
    const ElisionPlan plan = planFor(sourceProgram());
    const auto full = lower(sourceProgram());
    const auto elided = elide(full, plan);

    staticcheck::ObligationCheckOptions options;
    options.layout = kLayout;
    staticcheck::ObligationChecker checker(options);
    const auto report = checker.check(full, elided, plan);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_TRUE(report.benignParity);
    EXPECT_EQ(report.obligationsChecked, plan.obligations().size());
    EXPECT_EQ(report.obligationsViolated, 0u);
    EXPECT_TRUE(report.faultsChecked);
    EXPECT_TRUE(report.faultParity) << report.summary();
    EXPECT_EQ(report.victimsInElidedRegions, 0u);
}

TEST_F(BoundsElisionPipeline, PointerFaultReplayIsPinned)
{
    // Per-class pointer-fault counts of phase 3 on the fixture's sound
    // plan. The values are the ones the standalone fault-injection
    // engine gave on this stream pair before the replay moved into the
    // checker; any change to the schedule (seed, draw order, stable
    // sort), the FIFO victim choice, the eligibility rule or the PA+AOS
    // verdicts shows up here.
    const ElisionPlan plan = planFor(sourceProgram());
    const auto full = lower(sourceProgram());
    const auto elided = elide(full, plan);

    staticcheck::ObligationCheckOptions options;
    options.layout = kLayout;
    staticcheck::ObligationChecker checker(options);
    const auto report = checker.check(full, elided, plan);
    ASSERT_TRUE(report.faultsChecked);

    using staticcheck::PointerFault;
    constexpr auto kPac = static_cast<unsigned>(PointerFault::kPacFlip);
    constexpr auto kVa = static_cast<unsigned>(PointerFault::kVaFlip);
    for (const auto *stats : {&report.fullFaultStats,
                              &report.elidedFaultStats}) {
        EXPECT_EQ(stats->injected[kPac], 2u);
        EXPECT_EQ(stats->detected[kPac], 1u);
        EXPECT_EQ(stats->injected[kVa], 1u);
        EXPECT_EQ(stats->detected[kVa], 1u);
    }
}

TEST_F(BoundsElisionPipeline, FaultReplayRejectsAnUnstrippedElidedRegion)
{
    // Phase 3 alone: pass the full stream as its own "elided" stream.
    // The plan is sound and the streams are identical, so phases 1-2
    // pass, but chunk A's accesses are still signed where the plan
    // says they are elided, and pointer faults land on them.
    const ElisionPlan plan = planFor(sourceProgram());
    ASSERT_FALSE(plan.obligations().empty());
    const auto full = lower(sourceProgram());

    staticcheck::ObligationCheckOptions options;
    options.layout = kLayout;
    staticcheck::ObligationChecker checker(options);
    const auto report = checker.check(full, full, plan);
    EXPECT_TRUE(report.benignParity);
    EXPECT_EQ(report.obligationsViolated, 0u);
    EXPECT_GT(report.victimsInElidedRegions, 0u);
    EXPECT_FALSE(report.faultParity);
    EXPECT_FALSE(report.ok) << report.summary();
}

TEST_F(BoundsElisionPipeline, ObligationCheckerRejectsAnUnsoundPlan)
{
    // Forge a plan that elides the escaping chunk B: detections its
    // instrumentation produces vanish from the elided stream, which
    // phase 1 (benign parity) or phase 2 (obligation replay) must flag.
    std::vector<MicroOp> attack = sourceProgram();
    // The attack: an out-of-bounds store through B's signed pointer.
    attack.insert(attack.begin() + 6,
                  op(OpKind::kStore, kChunkB + 4096, kChunkB, 8));

    // Plan against a misleading view that hides the attack and B's
    // pointer load, so the analysis wrongly proves B elidable.
    std::vector<MicroOp> misleading = attack;
    misleading.erase(misleading.begin() + 6);
    misleading[4].loadsPointer = false;
    DataflowEngine engine(kLayout);
    ir::VectorStream stream(misleading);
    engine.run(stream);
    const ElisionPlan plan = planBoundsElision(engine);
    ASSERT_TRUE(plan.elided(kChunkB, 1));

    const auto full = lower(attack);
    const auto elided = elide(full, plan);

    staticcheck::ObligationCheckOptions options;
    options.layout = kLayout;
    options.checkFaults = false;
    staticcheck::ObligationChecker checker(options);
    const auto report = checker.check(full, elided, plan);
    EXPECT_FALSE(report.ok) << report.summary();
    EXPECT_FALSE(report.failures.empty());
}

} // namespace
} // namespace aos::analysis::dataflow
