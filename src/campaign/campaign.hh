/**
 * @file
 * Experiment-campaign engine: turns a declarative list of independent
 * simulation jobs (workload profile × mechanism × options × seed) into
 * results via an in-process thread pool: the workers claim job indices
 * from one shared atomic cursor, in submission order.
 *
 * Contracts (see DESIGN.md §7):
 *
 *  - Determinism: each job is a pure function of its spec — the
 *    workload RNG is seeded from (profile name, job seed) and no state
 *    is shared between jobs — so a campaign executed with any worker
 *    count produces bit-identical per-job results, and the canonical
 *    JSON emission (timings stripped) is byte-equal across runs.
 *  - Robustness: each job runs exactly once. A job that throws is
 *    recorded as kFailed with the exception text, and the rest of the
 *    sweep keeps running. A process shutdown request (SIGINT/SIGTERM
 *    via CampaignOptions::cancel) preempts the running jobs at their
 *    next cancellation point, records them as kCancelled, leaves the
 *    queued jobs pending, and sets CampaignResult::interrupted.
 *  - Aggregation: per-job stats flatten to StatSet; after injecting
 *    derived per-job stats, a harness calls computeReducers() with
 *    named reducers (geomean/sum/max/min/mean over a stat, with an
 *    optional job filter) for figure-style summary numbers.
 *  - Emission: results serialize to a versioned JSON document
 *    ("aos-campaign-v1") with every member on its own line, so
 *    `grep -v` + `diff` can check run-to-run parity from a shell.
 */

#ifndef AOS_CAMPAIGN_CAMPAIGN_HH
#define AOS_CAMPAIGN_CAMPAIGN_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/system_config.hh"
#include "common/cancel.hh"
#include "common/stats.hh"
#include "core/aos_system.hh"
#include "workloads/workload_profile.hh"

namespace aos::campaign {

/**
 * One independent experiment in a campaign. Every member has an
 * initializer, so a designated initializer may name any subset.
 */
struct Job
{
    std::string name{};  //!< Label; defaults to "<profile>/<mech>".
    workloads::WorkloadProfile profile{};
    baselines::Mechanism mech = baselines::Mechanism::kBaseline;
    baselines::SystemOptions options{}; //!< mech/ops/seed overridden below.
    u64 seed = 0;        //!< Workload seed salt (determinism contract).
    u64 ops = 0;         //!< Measured micro-ops; 0 = options.measureOps.

    /**
     * Test/extension hook: when set, runs instead of the AosSystem
     * simulation (exception capture still applies). It is handed the
     * campaign's CancelToken so it can poll cancellation points and be
     * preempted like a simulation job.
     */
    std::function<core::RunResult(const CancelToken &)> cancellableBody{};
};

enum class JobStatus { kPending, kOk, kFailed, kCancelled };

const char *jobStatusName(JobStatus status);

/** Outcome of one job, in submission order regardless of workers. */
struct JobResult
{
    u32 id = 0;
    std::string name;
    std::string profile;
    baselines::Mechanism mech = baselines::Mechanism::kBaseline;
    u64 seed = 0;
    u64 ops = 0;

    JobStatus status = JobStatus::kPending;
    double wallMs = 0;    //!< Wall clock of the run (timing).
    std::string error;    //!< Exception text for kFailed / kCancelled.

    core::RunResult run;  //!< Valid when ok().
    StatSet stats;        //!< Flattened run stats (mutable: harnesses
                          //!< may inject derived scalars pre-reduce).

    bool ok() const { return status == JobStatus::kOk; }
};

enum class ReduceOp { kGeomean, kSum, kMax, kMin, kMean };

const char *reduceOpName(ReduceOp op);

/** A named figure-style rollup over one stat across matching jobs. */
struct Reducer
{
    std::string name;
    ReduceOp op = ReduceOp::kGeomean;
    std::string stat; //!< Key into JobResult::stats.
    std::function<bool(const JobResult &)> filter; //!< null = all ok.
};

struct ReducerOutput
{
    std::string name;
    ReduceOp op = ReduceOp::kGeomean;
    std::string stat;
    double value = 0;
    u64 count = 0; //!< Jobs that contributed.
};

struct CampaignOptions
{
    std::string name = "campaign";
    unsigned workers = 0;      //!< 0 = std::thread::hardware_concurrency.
    bool progress = false;     //!< progressf() completion/ETA lines.

    /**
     * Shutdown token (usually &shutdownToken()), handed to every job.
     * When it trips, running jobs are preempted at their next
     * cancellation point and recorded kCancelled, queued jobs are
     * skipped, and CampaignResult::interrupted is set. Null runs the
     * jobs against a campaign-local token that never trips.
     */
    const CancelToken *cancel = nullptr;
};

struct CampaignResult
{
    std::string name;
    unsigned workers = 1;      //!< Resolved worker count (timing field).
    double totalWallMs = 0;    //!< Timing field.
    bool interrupted = false;  //!< Shutdown requested before completion.

    std::vector<JobResult> jobs;
    std::vector<ReducerOutput> reducers; //!< Set by computeReducers().

    bool allOk() const;
    unsigned count(JobStatus status) const;
    const JobResult *find(const std::string &jobName) const;

    /**
     * Serialize as "aos-campaign-v1" JSON. With @p includeTimings
     * false the document is canonical: wall-clock fields and the
     * worker count are omitted, so two runs of the same campaign are
     * byte-equal whatever the parallelism.
     */
    void writeJson(std::ostream &os, bool includeTimings = true) const;
    std::string json(bool includeTimings = true) const;
    bool writeJsonFile(const std::string &path,
                       bool includeTimings = true) const;
};

class Campaign
{
  public:
    explicit Campaign(CampaignOptions options = {});

    /** Queue a job; returns its id (= index into result.jobs). */
    u32 add(Job job);

    /**
     * Execute every queued job on the thread pool; blocks until the
     * sweep finishes. Workers claim jobs through one atomic cursor in
     * submission order and run each exactly once. Each job is a pure
     * function of its spec, so the canonical JSON is byte-identical at
     * any worker count.
     */
    CampaignResult run();

  private:
    CampaignOptions _options;
    std::vector<Job> _jobs;
};

/**
 * Compute reducer outputs over the current job stats into
 * result.reducers (replacing any earlier ones). Harnesses call this
 * after injecting derived per-job scalars (e.g. cycles normalized to
 * a baseline job).
 */
void computeReducers(CampaignResult &result,
                     const std::vector<Reducer> &reducers);

/**
 * The cells paperCells() lists per SPEC profile, in job order: the
 * Baseline and the four evaluated mechanisms (Figs. 14, 16, 18), then
 * five AOS ablations (Figs. 15, 17).
 */
enum PaperCell : unsigned {
    kBaseline, kWatchdog, kPa, kAos, kPaAos,
    kNoOpt, kL1BOnly, kCompressOnly, kNoBwb, kNoFwd,
    kNumPaperCells
};

/** The mechanism cells, [0, kNumPaperMechs), in order. */
constexpr unsigned kNumPaperMechs = kNoOpt;
inline constexpr baselines::Mechanism kPaperMechs[kNumPaperMechs] = {
    baselines::Mechanism::kBaseline, baselines::Mechanism::kWatchdog,
    baselines::Mechanism::kPa, baselines::Mechanism::kAos,
    baselines::Mechanism::kPaAos};

/** The job-name suffix of an AOS ablation cell (kNoOpt..kNoFwd). */
const char *ablationName(PaperCell cell);

/**
 * The paper's evaluation grid at an @p ops window, profile-major: the
 * job of (profile p of workloads::specProfiles(), cell c) sits at
 * p * kNumPaperCells + c and is named "<profile>/<mechanism>", or
 * "<profile>/aos/<ablation>" for an ablation.
 */
std::vector<Job> paperCells(u64 ops);

/**
 * AOS_CAMPAIGN_JOBS env override; @p fallback when unset or 0.
 * A value that is not a complete unsigned integer is a fatal error
 * (common/env.hh), never silently ignored.
 */
unsigned workersFromEnv(unsigned fallback = 0);

} // namespace aos::campaign

#endif // AOS_CAMPAIGN_CAMPAIGN_HH
