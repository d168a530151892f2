/**
 * @file
 * ObligationChecker — dynamic validation of bounds-elision proof
 * obligations (DESIGN.md §11).
 *
 * AosBoundsElidePass removes instrumentation a static analysis proved
 * dead and records a ProofObligation per elided chunk. This checker is
 * the court where those proofs are tried: it replays the full and the
 * elided stream against the ground-truth StreamExecutor, once clean and
 * once under seeded pointer faults, and fails loudly if reality
 * disagrees with any recorded assumption. Three phases:
 *
 *  1. Benign parity — both streams execute under StreamExecutor; the
 *     per-category detection profile must be identical. Any attack the
 *     full stream detects, the elided stream must detect too.
 *
 *  2. Obligation replay — the full stream is re-executed op by op with
 *     detections attributed to chunk instances (base + generation). A
 *     detection attributed to an elided instance means an elided check
 *     WOULD have fired: the obligation's assumptions were wrong, and
 *     the obligation is reported violated.
 *
 *  3. Pointer-fault replay — the same seeded schedule of PAC/AHC and
 *     VA bit flips is injected into both streams. Only ops
 *     bit-identical in both streams (recovered by a subsequence match)
 *     are exposed to the injector, indexed by their shared ordinal, so
 *     both runs schedule identical faults onto identical victims.
 *     Gates: no pointer fault in the elided run may land on an op
 *     inside an elided region (elided accesses are unsigned, so they
 *     carry no signature to corrupt — a victim there means the pass
 *     failed to strip); and per fault class the elided run must detect
 *     at least as many faults as the full run. The elided HBT holds a
 *     subset of the full run's records, so a corrupted pointer has
 *     fewer rows to collide with — detections can only stay equal or
 *     improve; a regression means an elided check was load-bearing.
 *     Only pointer faults are replayed because only for them is that
 *     monotonicity sound: corrupting the table itself (say, zeroing a
 *     line that holds only an elided chunk's record) raises a full-run
 *     detection with no elided counterpart — a removed record, not a
 *     lost protection.
 */

#ifndef AOS_STATICCHECK_OBLIGATION_CHECKER_HH
#define AOS_STATICCHECK_OBLIGATION_CHECKER_HH

#include <string>
#include <vector>

#include "analysis/dataflow/elision_plan.hh"
#include "ir/micro_op.hh"
#include "pa/pointer_layout.hh"
#include "staticcheck/stream_executor.hh"

namespace aos::staticcheck {

/** The fault classes phase 3 injects, in schedule order. */
enum class PointerFault : u8
{
    kPacFlip, //!< Flip a PAC/AHC metadata bit of a signed pointer.
    kVaFlip,  //!< Flip a VA bit of a signed pointer.
};

inline constexpr unsigned kNumPointerFaults = 2;

/** Stable report name ("ptr_pac_flip", "ptr_va_flip"). */
const char *pointerFaultName(PointerFault fault);

/** Per-class counts of one pointer-fault replay. */
struct PointerFaultStats
{
    u64 injected[kNumPointerFaults] = {};
    u64 detected[kNumPointerFaults] = {};

    u64 totalInjected() const { return injected[0] + injected[1]; }
    u64 totalDetected() const { return detected[0] + detected[1]; }
};

/** Checker configuration. */
struct ObligationCheckOptions
{
    pa::PointerLayout layout = pa::PointerLayout();

    /** Run phase 3 (pointer-fault replay) in addition to phases 1-2. */
    bool checkFaults = true;
};

/** Everything the checker concluded, plus the evidence. */
struct ObligationReport
{
    bool ok = false;

    // Phase 1: benign detection parity.
    bool benignParity = false;
    ExecStats fullStats;
    ExecStats elidedStats;

    // Phase 2: per-obligation replay.
    u64 obligationsChecked = 0;
    u64 obligationsViolated = 0;

    // Phase 3: pointer-fault replay.
    bool faultsChecked = false;
    bool faultParity = false;
    u64 victimsInElidedRegions = 0; //!< Must stay 0.

    /** Per-class breakdown of each run, for parity tables. */
    PointerFaultStats fullFaultStats;
    PointerFaultStats elidedFaultStats;

    /** Human-readable reasons for every failed gate. */
    std::vector<std::string> failures;

    /** One-line verdict for logs. */
    std::string summary() const;
};

class ObligationChecker
{
  public:
    explicit ObligationChecker(ObligationCheckOptions options = {});

    /**
     * Try the plan's obligations against reality. @p full is the
     * instrumented stream before AosBoundsElidePass, @p elided the
     * stream after it; both fully lowered.
     */
    ObligationReport check(const std::vector<ir::MicroOp> &full,
                           const std::vector<ir::MicroOp> &elided,
                           const analysis::dataflow::ElisionPlan &plan);

  private:
    void replayObligations(const std::vector<ir::MicroOp> &full,
                           const analysis::dataflow::ElisionPlan &plan,
                           ObligationReport &report);
    void replayFaults(const std::vector<ir::MicroOp> &full,
                      const std::vector<ir::MicroOp> &elided,
                      const analysis::dataflow::ElisionPlan &plan,
                      ObligationReport &report);

    ObligationCheckOptions _options;
};

} // namespace aos::staticcheck

#endif // AOS_STATICCHECK_OBLIGATION_CHECKER_HH
