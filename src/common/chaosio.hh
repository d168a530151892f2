/**
 * @file
 * Deterministic environment-fault injection ("chaos") for the harness
 * infrastructure itself (DESIGN.md §13) — the environment-level sibling
 * of src/faultinject, aimed one layer down: instead of flipping bits in
 * the *simulated* machine, it makes the instrumented syscall sites in
 * common/fsio.hh (short/failed write(2), fsync EIO, rename failure,
 * ENOSPC, open failure, EINTR storms) and the campaign layer's
 * allocation boundaries (bounded bad_alloc) fail on schedule.
 *
 * Determinism contract, mirroring faultinject::FaultPlan: a ChaosPlan
 * is a pure function of (config, domain, operation index, site mask).
 * Every instrumented call site draws the next per-domain operation
 * index from the engine and asks the plan whether that operation
 * faults; the same seed therefore produces the same fault schedule for
 * the same sequence of operations, with no global mutable state beyond
 * the op counters. None of this enters the campaign checkpoint
 * identity hash — chaos is an execution-only knob, exactly like the
 * worker count: the *results* of a campaign must be independent of it
 * whenever the campaign reports success.
 *
 * Two installation scopes:
 *
 *  - process-global, from AOS_CHAOS="seed,rate,domains[,cap]" via
 *    installChaosFromEnv() (called by bench::campaignOptions()), for
 *    whole-process chaos in CI parity runs;
 *  - thread-local, via the ChaosScope RAII guard, for audit scenarios
 *    and unit tests that must not leak faults into concurrently
 *    running jobs. The thread-local engine shadows the global one.
 *
 * The graceful-degradation audit over these faults lives in
 * campaign/chaos_audit.hh (bench/chaos_audit).
 */

#ifndef AOS_COMMON_CHAOSIO_HH
#define AOS_COMMON_CHAOSIO_HH

#include <atomic>
#include <string>

#include "common/types.hh"

namespace aos::chaos {

/** Which layer of the environment an instrumented site belongs to. */
enum class Domain : unsigned { kDisk = 0, kAlloc = 1 };

constexpr unsigned kDomainCount = 2;

constexpr u32
domainBit(Domain d)
{
    return 1u << static_cast<unsigned>(d);
}

const char *domainName(Domain d);

/**
 * What an instrumented site does when its operation is scheduled to
 * fault. Sites advertise the kinds they can express via a mask of
 * kindBit(); the plan picks among the intersection with the config.
 */
enum class FaultKind : unsigned {
    // Disk (fsio).
    kShortWrite = 0, //!< write(2) consumes only part of the buffer.
    kWriteEio,       //!< write(2) fails with EIO.
    kWriteEnospc,    //!< write(2) fails with ENOSPC (disk full).
    kFsyncEio,       //!< fsync(2) fails with EIO (lost durability).
    kRenameFail,     //!< rename(2) fails (atomic commit lost).
    kOpenFail,       //!< open(2) fails with EMFILE.
    kEintr,          //!< A bounded synthetic EINTR storm.
    // Alloc (campaign-layer boundaries).
    kBadAlloc,       //!< std::bad_alloc at a probeAlloc() boundary.

    kCount
};

constexpr unsigned kFaultKindCount = static_cast<unsigned>(FaultKind::kCount);

constexpr u32
kindBit(FaultKind k)
{
    return 1u << static_cast<unsigned>(k);
}

const char *faultKindName(FaultKind k);

/** Synthetic EINTR storms are bounded so retry loops always make
 *  progress even at rate 1000‰ with an EINTR-only kind mask. */
constexpr unsigned kMaxSyntheticEintr = 3;

struct ChaosConfig
{
    u64 seed = 0;
    u32 ratePerMille = 0; //!< P(fault) per instrumented op, in ‰ [0,1000].
    u32 domains = 0;      //!< OR of domainBit(); 0 disables everything.
    u32 kinds = 0;        //!< OR of kindBit(); 0 means "every kind".
    u64 maxPerDomain = 0; //!< Cap on injected faults per domain; 0 = none.

    bool enabled() const { return ratePerMille > 0 && domains != 0; }
};

/**
 * Parse the AOS_CHAOS spelling "seed,rate,domains[,cap]" where domains
 * is '+'-separated from {disk, alloc, all}; all means disk+alloc.
 * Strict in the spirit of common/env.hh: a malformed field (an unknown
 * domain such as "net" included) fails with @p error set, never a
 * half-accepted config. rate is clamped to 1000‰.
 */
bool parseChaosSpec(const std::string &text, ChaosConfig &out,
                    std::string &error);

/** The scheduled behaviour of one instrumented operation. */
struct Decision
{
    bool fire = false;
    FaultKind kind = FaultKind::kShortWrite;
    u64 arg = 0; //!< Kind-specific entropy: chunk length, bit index...
};

/**
 * Pure fault schedule: at() depends only on (config, domain, opIndex,
 * siteMask). Mirrors faultinject::FaultPlan's determinism argument —
 * same seed, same operation sequence, same faults.
 */
class ChaosPlan
{
  public:
    ChaosPlan() = default;
    explicit ChaosPlan(const ChaosConfig &config) : _config(config) {}

    const ChaosConfig &config() const { return _config; }

    Decision at(Domain domain, u64 opIndex, u32 siteMask) const;

  private:
    ChaosConfig _config;
};

/**
 * A plan plus per-domain operation counters: each instrumented site
 * calls next() to claim the following operation index and learn its
 * fate. Counters are atomic so one engine may serve every thread of a
 * process (the AOS_CHAOS case); per-kind injection tallies feed the
 * audit's outcome classification.
 */
class ChaosEngine
{
  public:
    explicit ChaosEngine(const ChaosConfig &config) : _plan(config) {}

    const ChaosPlan &plan() const { return _plan; }

    Decision next(Domain domain, u32 siteMask);

    u64 ops(Domain domain) const;
    u64 injected(Domain domain) const;
    u64 injectedKind(FaultKind kind) const;
    u64 injectedTotal() const;

    /**
     * Injections whose kind makes an operation *fail* (EIO, ENOSPC,
     * rename/open failure, bad_alloc) as opposed to merely degrade it
     * (short writes, EINTR). The audit classifies a clean result with
     * hard injections as degraded_retried.
     */
    u64 injectedHard() const;

  private:
    ChaosPlan _plan;
    std::atomic<u64> _ops[kDomainCount] = {};
    std::atomic<u64> _injected[kDomainCount] = {};
    std::atomic<u64> _kind[kFaultKindCount] = {};
};

/**
 * The engine governing this thread's instrumented sites: the
 * thread-local override installed by a live ChaosScope if any, else
 * the process-global engine from installChaosFromEnv(), else null
 * (chaos off — the common case costs one TLS load and one relaxed
 * atomic load per instrumented op).
 */
ChaosEngine *engine();

/** Install @p e as the process-global engine (null disables). The
 *  caller keeps ownership; used by installChaosFromEnv() and tests. */
void setProcessEngine(ChaosEngine *e);

/**
 * Idempotently install a process-global engine from AOS_CHAOS. Unset
 * or empty leaves chaos off; a malformed spec is a fatal() diagnostic
 * naming the variable (common/env.hh discipline).
 */
void installChaosFromEnv();

/** RAII thread-local engine override for scenario/test isolation. */
class ChaosScope
{
  public:
    explicit ChaosScope(ChaosEngine *e);
    ~ChaosScope();

    ChaosScope(const ChaosScope &) = delete;
    ChaosScope &operator=(const ChaosScope &) = delete;

  private:
    ChaosEngine *_prev;
};

/**
 * Campaign-layer allocation boundary: throws std::bad_alloc when the
 * engine schedules a kBadAlloc fault for the next alloc-domain op.
 * Placed where an allocation failure must be survivable (job attempt
 * entry, checkpoint record encoding) — never inside the simulator.
 */
void probeAlloc();

} // namespace aos::chaos

#endif // AOS_COMMON_CHAOSIO_HH
