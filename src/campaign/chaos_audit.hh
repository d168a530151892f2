/**
 * @file
 * Graceful-degradation audit over the chaos engine (DESIGN.md §13,
 * bench/chaos_audit): seeded scenarios that run one infrastructure
 * subsystem — checkpoint disk I/O or the campaign allocation
 * boundary — under an isolated ChaosScope and then check, chaos-free,
 * that the subsystem honoured its degradation contract.
 *
 * Every scenario classifies into exactly one Outcome:
 *
 *  - kTolerated: only benign faults (short writes, EINTR) were
 *    injected and the operation completed normally;
 *  - kDegradedRetried: hard faults (EIO, ENOSPC, failed rename/open,
 *    bad_alloc) were injected yet the operation still completed —
 *    retries/backoff absorbed them;
 *  - kCleanAbort: the operation reported failure AND left consistent
 *    state (no stale temps, no torn records trusted, no half-committed
 *    jobs) from which a chaos-free rerun completes;
 *  - kContractViolation: anything else — a wrong result reported as
 *    success, a hang, state a rerun cannot recover. The bench gates on
 *    zero of these.
 *
 * Scenarios are pure functions of their seed (modulo wall-clock
 * timing), so a failing seed replays exactly.
 */

#ifndef AOS_CAMPAIGN_CHAOS_AUDIT_HH
#define AOS_CAMPAIGN_CHAOS_AUDIT_HH

#include <string>

#include "common/cancel.hh"
#include "common/types.hh"

namespace aos::campaign::chaos_audit {

enum class Outcome : unsigned {
    kTolerated = 0,
    kDegradedRetried,
    kCleanAbort,
    kContractViolation,
};

const char *outcomeName(Outcome outcome);

struct ScenarioResult
{
    Outcome outcome = Outcome::kTolerated;
    u64 injected = 0; //!< Faults the engine actually injected.
    u64 chaosOps = 0; //!< Instrumented operations that drew a decision.
    std::string detail; //!< Human diagnosis; set for violations.
};

/**
 * Disk × checkpoint: a CheckpointWriter lifecycle (start, appends,
 * close) under disk chaos, then a chaos-free load checking that every
 * append that reported success is restored byte-identical, every
 * append that reported failure left no record, no *.tmp survives, and
 * a chaos-free resume completes the remaining jobs.
 */
ScenarioResult auditCheckpointDisk(u64 seed, const CancelToken &cancel);

/**
 * Alloc × campaign: a nested single-worker Campaign whose attempt
 * boundaries throw scheduled bad_alloc. Jobs that report kOk must
 * carry stats identical to a chaos-free reference run; jobs that
 * exhaust their attempts must be reported kFailed, never silently
 * wrong.
 */
ScenarioResult auditCampaignAlloc(u64 seed, const CancelToken &cancel);

} // namespace aos::campaign::chaos_audit

#endif // AOS_CAMPAIGN_CHAOS_AUDIT_HH
