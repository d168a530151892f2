/**
 * @file
 * Structured diagnostics for the micro-op static-analysis layer.
 *
 * The verifier never asserts: every violated invariant becomes a
 * Diagnostic carrying the op index where it was observed, a stable
 * rule id, and a human-readable message, so tests and tools can match
 * on rules and harnesses can report per-rule counters.
 */

#ifndef AOS_STATICCHECK_DIAGNOSTICS_HH
#define AOS_STATICCHECK_DIAGNOSTICS_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace aos::staticcheck {

/**
 * Pipeline invariants enforced by the StreamVerifier. Rule ids are
 * stable identifiers (SC01..); tests match on the enum, reports print
 * the short id plus the descriptive name.
 */
enum class RuleId : u8
{
    kIntrinsicSurvived,   //!< SC01 aos_malloc/aos_free intrinsic survived
                          //!< the backend pass.
    kMallocNotLowered,    //!< SC02 kMallocMark without the Fig. 7a
                          //!< pacma+bndstr lowering sequence.
    kFreeNotLowered,      //!< SC03 kFreeMark without the Fig. 7b
                          //!< bndclr+xpacm+pacma lowering sequence.
    kDuplicateBndstr,     //!< SC04 bndstr for a chunk whose bounds are
                          //!< already live (no intervening bndclr).
    kUnpairedBndclr,      //!< SC05 bndclr with no live bounds for the
                          //!< chunk (static double/invalid free).
    kSignedBeforeSign,    //!< SC06 signed access before the owning
                          //!< pacma (or with no known provenance).
    kSignedAfterClear,    //!< SC07 signed access to a chunk after its
                          //!< bndclr (static use-after-free).
    kPacMismatch,         //!< SC08 signed access whose PAC differs from
                          //!< the owning chunk's signed pointer.
    kPhaseImbalance,      //!< SC09 more than one warmup/measure
                          //!< boundary mark in the stream.
    kMemMissingAddr,      //!< SC10 load/store carrying no address.
    kMemMissingSize,      //!< SC11 load/store carrying no access size.
    kAllocMarkMissingFields, //!< SC12 malloc/free marker without chunk
                             //!< base (or malloc without size).
    kBoundsOpUnsigned,    //!< SC13 bndstr/bndclr on an unsigned pointer.
    kAutmOrphan,          //!< SC14 autm not authenticating the
                          //!< immediately preceding load's value.
    kElidedResidualInstr, //!< SC15 pacma/bndstr/bndclr/autm survived
                          //!< inside an elided chunk's region.
    kElidedSignedAccess,  //!< SC16 access to an elided chunk still
                          //!< carries a signed address (not stripped).
    kElidedAccessOutOfPlan, //!< SC17 access to an elided chunk outside
                            //!< the obligation's proven object extent.
    kElidedEscape,        //!< SC18 pointer load from an elided chunk
                          //!< (the non-escaping assumption is false).
};

/** Number of distinct rules (for iteration in reports). */
inline constexpr unsigned kNumRules = 18;

/** Stable short id, e.g. "SC05". */
const char *ruleId(RuleId rule);

/** Descriptive kebab-case rule name, e.g. "unpaired-bndclr". */
const char *ruleName(RuleId rule);

/** One verifier finding. */
struct Diagnostic
{
    u64 opIndex = 0;     //!< Index of the offending op in the stream.
    RuleId rule = RuleId::kIntrinsicSurvived;
    std::string message; //!< Human-readable context.
};

/** "SC05 unpaired-bndclr @op 42: ..." single-line rendering. */
std::string toString(const Diagnostic &diag);

/** Render a whole report (one line per diagnostic). */
std::string toString(const std::vector<Diagnostic> &diags);

} // namespace aos::staticcheck

#endif // AOS_STATICCHECK_DIAGNOSTICS_HH
