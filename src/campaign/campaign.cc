#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "campaign/checkpoint.hh"
#include "campaign/json.hh"
#include "common/chaosio.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/profiler.hh"

namespace aos::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

core::RunResult
executeJob(const Job &job, const CancelToken &cancel)
{
    if (job.cancellableBody)
        return job.cancellableBody(cancel);
    if (job.body)
        return job.body();
    baselines::SystemOptions options = job.options;
    options.mech = job.mech;
    if (job.ops)
        options.measureOps = job.ops;
    options.seedSalt = job.seed;
    options.cancel = &cancel;
    core::AosSystem system(job.profile, options);
    return system.run();
}

/**
 * Run @p job (id @p idx) through the full attempt loop: retry to
 * @p maxAttempts, cooperative timeout classification, and shutdown
 * preemption via a per-attempt token chained to @p parent.
 */
void
executeJobAttempts(const Job &job, u32 idx, JobResult &r,
                   unsigned maxAttempts, double timeoutSec,
                   const CancelToken *parent,
                   const std::string &campaignName)
{
    r.id = idx;
    r.name = job.name;
    r.profile = job.profile.name;
    r.mech = job.mech;
    r.seed = job.seed;
    r.ops = job.ops ? job.ops : job.options.measureOps;

    maxAttempts = std::max(1u, maxAttempts);
    for (unsigned attempt = 1; attempt <= maxAttempts; ++attempt) {
        r.attempts = attempt;
        // Per-attempt token: chains to the process shutdown token
        // and arms the wall-clock budget, so the simulation's
        // cancellation points preempt an over-budget attempt
        // instead of letting it hog the worker.
        CancelToken cancel(parent);
        if (timeoutSec > 0)
            cancel.setDeadlineAfter(timeoutSec);
        const Clock::time_point t0 = Clock::now();
        try {
            // Chaos alloc domain: a synthetic bad_alloc at the attempt
            // boundary lands in the catch below and is retried like
            // any other transient failure.
            chaos::probeAlloc();
            core::RunResult run = executeJob(job, cancel);
            r.wallMs = 1e3 * secondsSince(t0, Clock::now());
            if (timeoutSec > 0 && r.wallMs > 1e3 * timeoutSec) {
                // Post-hoc fallback for plain body jobs that never
                // poll the token; a pathological config would just
                // time out again, so no retry.
                r.status = JobStatus::kTimeout;
                r.error = csprintf(
                    "attempt exceeded %.3fs wall-clock budget "
                    "(took %.3fs)",
                    timeoutSec, r.wallMs / 1e3);
                break;
            }
            r.run = std::move(run);
            r.stats = r.run.toStatSet();
            r.status = JobStatus::kOk;
            r.error.clear();
            break;
        } catch (const CancelledException &) {
            r.wallMs = 1e3 * secondsSince(t0, Clock::now());
            if (cancel.reason() == CancelToken::Reason::kDeadline) {
                r.status = JobStatus::kTimeout;
                r.error = csprintf(
                    "preempted after exceeding %.3fs wall-clock "
                    "budget (ran %.3fs)",
                    timeoutSec, r.wallMs / 1e3);
            } else {
                // Shutdown: leave the job for a checkpoint resume.
                r.status = JobStatus::kCancelled;
                r.error = "cancelled by shutdown request";
            }
            break;
        } catch (const std::exception &e) {
            r.wallMs = 1e3 * secondsSince(t0, Clock::now());
            r.status = JobStatus::kFailed;
            r.error = e.what();
        } catch (...) {
            r.wallMs = 1e3 * secondsSince(t0, Clock::now());
            r.status = JobStatus::kFailed;
            r.error = "unknown exception";
        }
    }
    if (r.status == JobStatus::kFailed && !quiet()) {
        warn("campaign %s: job %s failed after %u attempt(s): %s",
             campaignName.c_str(), r.name.c_str(), r.attempts,
             r.error.c_str());
    }
}

/** Fold ok-job stats into result.merged, run the reducers, and attach
 *  the AOS_PROFILE breakdown if enabled. */
void
mergeAndReduce(CampaignResult &result, const std::vector<Reducer> &reducers)
{
    for (const JobResult &r : result.jobs) {
        if (r.ok())
            result.merged.merge(r.stats);
    }
    computeReducers(result, reducers);
    if (prof::enabled())
        prof::addTo(result.profile);
}

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::kPending: return "pending";
      case JobStatus::kOk: return "ok";
      case JobStatus::kFailed: return "failed";
      case JobStatus::kTimeout: return "timeout";
      case JobStatus::kCancelled: return "cancelled";
    }
    return "unknown";
}

const char *
reduceOpName(ReduceOp op)
{
    switch (op) {
      case ReduceOp::kGeomean: return "geomean";
      case ReduceOp::kSum: return "sum";
      case ReduceOp::kMax: return "max";
      case ReduceOp::kMin: return "min";
      case ReduceOp::kMean: return "mean";
    }
    return "unknown";
}

Campaign::Campaign(CampaignOptions options) : _options(std::move(options))
{
}

u32
Campaign::add(Job job)
{
    if (job.name.empty()) {
        job.name = job.profile.name.empty()
                       ? csprintf("job%zu", _jobs.size())
                       : job.profile.name + "/" +
                             baselines::mechanismName(job.mech);
    }
    _jobs.push_back(std::move(job));
    return static_cast<u32>(_jobs.size() - 1);
}

u32
Campaign::addConfig(const workloads::WorkloadProfile &profile,
                    baselines::Mechanism mech, u64 ops,
                    const baselines::SystemOptions &base, u64 seed)
{
    Job job;
    job.profile = profile;
    job.mech = mech;
    job.options = base;
    job.ops = ops;
    job.seed = seed;
    return add(std::move(job));
}

void
Campaign::addReducer(Reducer reducer)
{
    _reducers.push_back(std::move(reducer));
}

CampaignResult
Campaign::run()
{
    const size_t total = _jobs.size();
    unsigned workers =
        _options.workers ? _options.workers
                         : std::max(1u, std::thread::hardware_concurrency());
    workers = static_cast<unsigned>(
        std::min<size_t>(workers, std::max<size_t>(total, 1)));

    CampaignResult result;
    result.name = _options.name;
    result.workers = workers;
    result.maxAttempts = std::max(1u, _options.maxAttempts);
    result.timeoutSec = _options.timeoutSec;
    result.checkpointDir = _options.checkpointDir;
    result.jobs.resize(total);

    // Checkpoint restore: validate the directory against this exact
    // campaign, adopt every intact record, and arrange for the rest to
    // execute. A foreign/corrupt manifest means a full re-run — never
    // a mix of stale and fresh results.
    CheckpointWriter writer;
    const bool checkpointing =
        setupCheckpoint(_options, _jobs, workers, result, writer);

    const Clock::time_point start = Clock::now();
    std::atomic<u32> completed{result.resumedJobs};
    std::atomic<u32> executed{0};
    std::mutex progressMutex;
    Clock::time_point lastReport = start;

    auto reportProgress = [&](u32 done) {
        if (!_options.progress)
            return;
        std::lock_guard<std::mutex> guard(progressMutex);
        const Clock::time_point now = Clock::now();
        if (done < total &&
            secondsSince(lastReport, now) < _options.progressIntervalSec) {
            return;
        }
        lastReport = now;
        const double elapsed = secondsSince(start, now);
        const double eta =
            done ? elapsed / done * static_cast<double>(total - done) : 0.0;
        progressf("campaign %s: %u/%zu jobs (%.0f%%), elapsed %.1fs, "
                  "eta %.1fs",
                  _options.name.c_str(), done, total,
                  total ? 100.0 * done / static_cast<double>(total) : 100.0,
                  elapsed, eta);
    };

    auto runOne = [&](unsigned self, u32 idx) {
        JobResult &r = result.jobs[idx];
        executeJobAttempts(_jobs[idx], idx, r, result.maxAttempts,
                           result.timeoutSec, _options.cancel,
                           _options.name);
        if (r.status == JobStatus::kCancelled)
            return;
        executed.fetch_add(1, std::memory_order_relaxed);
        if (checkpointing && !writer.append(self, r)) {
            warn("campaign %s: checkpoint append failed for job %s",
                 _options.name.c_str(), r.name.c_str());
        }
        reportProgress(completed.fetch_add(1, std::memory_order_relaxed) +
                       1);
    };

    auto shutdown = [&]() {
        return _options.cancel && _options.cancel->cancelled();
    };

    // Every job is known up front and none creates further jobs, so
    // one shared cursor is the whole work queue: each worker claims
    // the next index in submission order and skips jobs the checkpoint
    // already restored.
    std::atomic<size_t> cursor{0};
    auto workerLoop = [&](unsigned self) {
        // On shutdown, unclaimed jobs stay pending for the resume.
        while (!shutdown()) {
            const size_t idx = cursor.fetch_add(1);
            if (idx >= total)
                return;
            if (result.jobs[idx].status == JobStatus::kPending)
                runOne(self, static_cast<u32>(idx));
        }
    };

    if (workers <= 1) {
        workerLoop(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(workerLoop, w);
        for (auto &t : pool)
            t.join();
    }

    writer.close();
    result.executedJobs = executed.load(std::memory_order_relaxed);
    result.interrupted =
        shutdown() || result.count(JobStatus::kCancelled) > 0 ||
        result.count(JobStatus::kPending) > 0;
    result.totalWallMs = 1e3 * secondsSince(start, Clock::now());
    mergeAndReduce(result, _reducers);
    return result;
}

void
computeReducers(CampaignResult &result, const std::vector<Reducer> &reducers)
{
    result.reducers.clear();
    result.reducers.reserve(reducers.size());
    for (const Reducer &reducer : reducers) {
        std::vector<double> values;
        for (const JobResult &job : result.jobs) {
            if (!job.ok())
                continue;
            if (reducer.filter && !reducer.filter(job))
                continue;
            const StatSet &source =
                reducer.timing ? job.timing : job.stats;
            if (!source.has(reducer.stat))
                continue;
            values.push_back(source.value(reducer.stat));
        }
        double out = 0;
        if (!values.empty()) {
            switch (reducer.op) {
              case ReduceOp::kGeomean:
                out = geomean(values);
                break;
              case ReduceOp::kSum:
                for (const double v : values)
                    out += v;
                break;
              case ReduceOp::kMax:
                out = *std::max_element(values.begin(), values.end());
                break;
              case ReduceOp::kMin:
                out = *std::min_element(values.begin(), values.end());
                break;
              case ReduceOp::kMean:
                for (const double v : values)
                    out += v;
                out /= static_cast<double>(values.size());
                break;
            }
        }
        result.reducers.push_back({reducer.name, reducer.op, reducer.stat,
                                   out, values.size(), reducer.timing});
    }
}

bool
CampaignResult::allOk() const
{
    return std::all_of(jobs.begin(), jobs.end(),
                       [](const JobResult &r) { return r.ok(); });
}

unsigned
CampaignResult::count(JobStatus status) const
{
    return static_cast<unsigned>(
        std::count_if(jobs.begin(), jobs.end(), [&](const JobResult &r) {
            return r.status == status;
        }));
}

const JobResult *
CampaignResult::find(const std::string &jobName) const
{
    for (const JobResult &r : jobs) {
        if (r.name == jobName)
            return &r;
    }
    return nullptr;
}

void
CampaignResult::writeJson(std::ostream &os, bool includeTimings) const
{
    JsonValue root = JsonValue::object();
    root.set("schema", "aos-campaign-v1");

    JsonValue meta = JsonValue::object();
    meta.set("name", name);
    meta.set("jobs", static_cast<u64>(jobs.size()));
    meta.set("max_attempts", maxAttempts);
    meta.set("timeout_sec", timeoutSec);
    if (includeTimings) {
        meta.set("workers", workers);
        meta.set("total_wall_ms", totalWallMs);
        // Resume bookkeeping varies run-to-run by construction, so it
        // lives with the timing fields, outside the canonical form.
        if (!checkpointDir.empty()) {
            meta.set("checkpoint_dir", checkpointDir);
            meta.set("resumed_jobs", resumedJobs);
            meta.set("executed_jobs", executedJobs);
            meta.set("discarded_records", discardedRecords);
        }
        if (interrupted)
            meta.set("interrupted", true);
    }
    root.set("campaign", std::move(meta));

    JsonValue jobArray = JsonValue::array();
    for (const JobResult &r : jobs) {
        JsonValue j = JsonValue::object();
        j.set("id", static_cast<u64>(r.id));
        j.set("name", r.name);
        if (!r.profile.empty())
            j.set("profile", r.profile);
        j.set("mech", baselines::mechanismName(r.mech));
        j.set("seed", r.seed);
        j.set("ops", r.ops);
        j.set("status", jobStatusName(r.status));
        j.set("attempts", r.attempts);
        if (includeTimings) {
            j.set("wall_ms", r.wallMs);
            if (r.resumed)
                j.set("resumed", true);
        }
        if (!r.error.empty())
            j.set("error", r.error);
        JsonValue stats = JsonValue::object();
        for (const auto &[key, stat] : r.stats.scalars())
            stats.set(key, stat.value());
        j.set("stats", std::move(stats));
        if (includeTimings && !r.timing.scalars().empty()) {
            JsonValue timing = JsonValue::object();
            for (const auto &[key, stat] : r.timing.scalars())
                timing.set(key, stat.value());
            j.set("timing_stats", std::move(timing));
        }
        jobArray.push(std::move(j));
    }
    root.set("jobs", std::move(jobArray));

    JsonValue reducerArray = JsonValue::array();
    for (const ReducerOutput &r : reducers) {
        // Timing reducers fold wall-derived per-job scalars; like the
        // scalars themselves they are absent from the canonical form.
        if (r.timing && !includeTimings)
            continue;
        JsonValue j = JsonValue::object();
        j.set("name", r.name);
        j.set("op", reduceOpName(r.op));
        j.set("stat", r.stat);
        j.set("value", r.value);
        j.set("count", r.count);
        reducerArray.push(std::move(j));
    }
    root.set("reducers", std::move(reducerArray));

    // Host-time breakdown (AOS_PROFILE): wall clocks, so it is a
    // timing section and never part of the canonical document.
    if (includeTimings && !profile.scalars().empty()) {
        JsonValue prof = JsonValue::object();
        for (const auto &[key, stat] : profile.scalars())
            prof.set(key, stat.value());
        root.set("profile", std::move(prof));
    }

    root.write(os);
    os << '\n';
}

std::string
CampaignResult::json(bool includeTimings) const
{
    std::ostringstream os;
    writeJson(os, includeTimings);
    return os.str();
}

bool
CampaignResult::writeJsonFile(const std::string &path,
                              bool includeTimings) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeJson(os, includeTimings);
    return static_cast<bool>(os);
}

unsigned
workersFromEnv(unsigned fallback)
{
    return envUnsigned("AOS_CAMPAIGN_JOBS", fallback);
}

} // namespace aos::campaign
