/**
 * @file
 * StreamVerifier — a single-pass structural linter plus forward
 * dataflow checker over micro-op streams.
 *
 * The instrumentation passes (aos::compiler) rewrite workload streams
 * exactly as the paper's LLVM passes rewrite binaries; every figure we
 * reproduce trusts that rewrite. The verifier machine-checks the
 * pipeline contract after the fact:
 *
 *  structural rules — no aos intrinsic survives the backend pass, at
 *  most one warmup/measure phase mark, per-op field sanity (memory ops
 *  carry addresses and sizes, allocation markers carry chunk bases),
 *  bounds ops operate on signed pointers, autm authenticates the value
 *  the preceding load produced;
 *
 *  dataflow rules — bndstr/bndclr pair up per chunk, signed addresses
 *  only appear after the owning pacma and carry its PAC, and never
 *  after the chunk's bndclr (a *static* use-after-free of a signed
 *  value), every kMallocMark/kFreeMark is lowered to the Fig. 7
 *  sequences when the stream claims to be AOS-instrumented;
 *
 *  elision rules (SC15..SC18, active when options.elisionPlan is set) —
 *  a chunk instance the plan elides must carry *no* residual
 *  instrumentation, its accesses must be stripped and stay inside the
 *  obligation's proven extent, and no pointer load may touch it (the
 *  verified-stream side of the obligations the ObligationChecker
 *  replays dynamically).
 *
 * Violations are collected as structured diagnostics (see
 * diagnostics.hh), never asserts, so tests can probe individual rules
 * and harnesses can report per-rule counters. Repeated
 * findings of one (rule, site) pair are deduplicated, every rule
 * stores at most kMaxPerRuleSites distinct sites and the verifier at
 * most kMaxDiagnostics in all; suppressed repeats are tallied and
 * surface as one per-rule summary line at finish(), so a pathological
 * stream cannot flood O(ops) diagnostics.
 */

#ifndef AOS_STATICCHECK_STREAM_VERIFIER_HH
#define AOS_STATICCHECK_STREAM_VERIFIER_HH

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/dataflow/elision_plan.hh"
#include "ir/micro_op.hh"
#include "pa/pointer_layout.hh"
#include "staticcheck/diagnostics.hh"

namespace aos::staticcheck {

/** What the verifier expects of the stream it is checking. */
struct VerifierOptions
{
    /** Layout used to decode PAC/AHC fields of addresses. */
    pa::PointerLayout layout = pa::PointerLayout();

    /**
     * The stream is AOS-instrumented: every kMallocMark must be
     * followed by its pacma+bndstr and every kFreeMark by its
     * bndclr+xpacm+pacma before the next allocation event (SC02/SC03).
     * Leave off for Baseline/PA/Watchdog/ASan streams, whose markers
     * legitimately stay bare.
     */
    bool requireAosLowering = false;

    /**
     * Bounds-elision plan the stream was rewritten under; not owned.
     * When set, instances the plan elides are exempt from SC02/SC03
     * and the dataflow rules, and the SC15..SC18 elided-region
     * contracts are enforced instead.
     */
    const analysis::dataflow::ElisionPlan *elisionPlan = nullptr;
};

/** Single-pass verifier; feed ops with observe(), then call finish(). */
class StreamVerifier
{
  public:
    /** Distinct sites stored per rule; further sites are suppressed
     *  into the per-rule summary line. */
    static constexpr size_t kMaxPerRuleSites = 8;

    /** Diagnostics stored in all (the counters keep going). */
    static constexpr size_t kMaxDiagnostics = 1024;

    explicit StreamVerifier(VerifierOptions options = {});

    /** Check one op (call in stream order). */
    void observe(const ir::MicroOp &op);

    /** End-of-stream checks (unlowered trailing markers) plus the
     *  per-rule suppressed-count summary lines. */
    void finish();

    /** All findings so far (capped at kMaxDiagnostics). */
    const std::vector<Diagnostic> &diagnostics() const { return _diags; }

    /** True iff no rule fired. */
    bool clean() const { return _totalDiags == 0; }

    /** Total findings, including deduplicated and capped ones. */
    u64 totalDiagnostics() const { return _totalDiags; }

    /** Findings suppressed by (rule, site) dedup or the caps. */
    u64 suppressedDiagnostics() const { return _totalSuppressed; }

    /** Ops observed so far. */
    u64 opsObserved() const { return _opIndex; }

    /** The chunk instances seen so far (tracked only under an
     *  elision plan). */
    const analysis::dataflow::ElisionPlan::Instances &
    instances() const
    {
        return _instances;
    }

    /** Findings per rule (only rules that fired appear). */
    const std::map<RuleId, u64> &ruleCounts() const { return _ruleCounts; }

    /** Drain @p stream through a fresh verifier; return its findings. */
    static std::vector<Diagnostic> verify(ir::InstStream &stream,
                                          const VerifierOptions &options = {});

    /** Verify a materialized op vector. */
    static std::vector<Diagnostic> verify(const std::vector<ir::MicroOp> &ops,
                                          const VerifierOptions &options = {});

  private:
    /** Pending Fig. 7 lowering expectation for one allocation event. */
    struct Lowering
    {
        u64 markIndex = 0;
        Addr chunk = 0;
        bool isFree = false;
        bool sawPacma = false;
        bool sawBndstr = false;
        bool sawBndclr = false;
        bool sawXpacm = false;
        bool sawResign = false;
    };

    /** @p site identifies the finding's subject (chunk base, address)
     *  for dedup; repeats of one (rule, site) pair are suppressed. */
    void report(RuleId rule, Addr site, std::string message);
    void flushLowering();
    void checkFields(const ir::MicroOp &op);
    void checkDataflow(const ir::MicroOp &op);
    void checkLowering(const ir::MicroOp &op);
    void checkElided(const ir::MicroOp &op);

    /** Chunk the op attributes to under the elision plan, or 0. */
    Addr elidedBaseOf(const ir::MicroOp &op) const;

    /** Chunk key for bounds ops: explicit chunkBase, else raw address. */
    Addr chunkKey(const ir::MicroOp &op) const;

    VerifierOptions _options;
    u64 _opIndex = 0;
    u64 _totalDiags = 0;
    u64 _totalSuppressed = 0;
    unsigned _phaseMarks = 0;
    bool _finished = false;
    std::optional<Lowering> _pending;
    std::optional<ir::MicroOp> _prevOp;

    // chunk base -> signed pointer of the chunk's most recent pacma.
    std::unordered_map<Addr, Addr> _signedPtrs;
    // chunks whose bounds are currently live (bndstr without bndclr).
    std::unordered_set<Addr> _liveBounds;

    // Per base, the current chunk instance and the plan's verdict on
    // it (tracked only under an elision plan).
    analysis::dataflow::ElisionPlan::Instances _instances;

    // (rule, site) -> occurrences; drives dedup and the summaries.
    std::map<std::pair<RuleId, Addr>, u64> _siteCounts;
    std::map<RuleId, u64> _storedSites;
    std::map<RuleId, u64> _distinctSites;
    std::map<RuleId, u64> _suppressed;

    std::vector<Diagnostic> _diags;
    std::map<RuleId, u64> _ruleCounts;
};

} // namespace aos::staticcheck

#endif // AOS_STATICCHECK_STREAM_VERIFIER_HH
