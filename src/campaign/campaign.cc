#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "campaign/json.hh"
#include "common/env.hh"
#include "common/logging.hh"

namespace aos::campaign {

namespace {

using Clock = std::chrono::steady_clock;

/** Minimum gap between two progress lines. */
constexpr double kProgressIntervalSec = 2.0;

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
 * Run @p job (id @p idx) once against @p cancel: an exception is
 * recorded as kFailed, a shutdown preemption as kCancelled.
 */
void
runJob(const Job &job, u32 idx, JobResult &r, const CancelToken &cancel,
       const std::string &campaignName)
{
    r.id = idx;
    r.name = job.name;
    r.profile = job.profile.name;
    r.mech = job.mech;
    r.seed = job.seed;
    r.ops = job.ops ? job.ops : job.options.measureOps;

    const Clock::time_point t0 = Clock::now();
    try {
        r.run = executeJob(job, cancel);
        r.stats = r.run.toStatSet();
        r.status = JobStatus::kOk;
    } catch (const CancelledException &) {
        r.status = JobStatus::kCancelled;
        r.error = "cancelled by shutdown request";
    } catch (const std::exception &e) {
        r.status = JobStatus::kFailed;
        r.error = e.what();
    } catch (...) {
        r.status = JobStatus::kFailed;
        r.error = "unknown exception";
    }
    r.wallMs = 1e3 * secondsSince(t0, Clock::now());
    if (r.status == JobStatus::kFailed && !quiet()) {
        warn("campaign %s: job %s failed: %s", campaignName.c_str(),
             r.name.c_str(), r.error.c_str());
    }
}

} // namespace

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::kPending: return "pending";
      case JobStatus::kOk: return "ok";
      case JobStatus::kFailed: return "failed";
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
    result.jobs.resize(total);

    // Jobs poll the shutdown token directly; without one they get a
    // local token that never trips.
    const CancelToken untripped;
    const CancelToken &cancel =
        _options.cancel ? *_options.cancel : untripped;

    const Clock::time_point start = Clock::now();
    std::atomic<u32> completed{0};
    std::mutex progressMutex;
    Clock::time_point lastReport = start;

    auto reportProgress = [&](u32 done) {
        if (!_options.progress)
            return;
        std::lock_guard<std::mutex> guard(progressMutex);
        const Clock::time_point now = Clock::now();
        if (done < total &&
            secondsSince(lastReport, now) < kProgressIntervalSec) {
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

    // Every job is known up front and none creates further jobs, so
    // one shared cursor is the whole work queue: each worker claims
    // the next index in submission order.
    std::atomic<size_t> cursor{0};
    auto workerLoop = [&]() {
        // On shutdown, unclaimed jobs stay pending.
        while (!cancel.cancelled()) {
            const size_t idx = cursor.fetch_add(1);
            if (idx >= total)
                return;
            JobResult &r = result.jobs[idx];
            runJob(_jobs[idx], static_cast<u32>(idx), r, cancel,
                   _options.name);
            if (r.status != JobStatus::kCancelled)
                reportProgress(
                    completed.fetch_add(1, std::memory_order_relaxed) + 1);
        }
    };

    if (workers <= 1) {
        workerLoop();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(workerLoop);
        for (auto &t : pool)
            t.join();
    }

    result.interrupted =
        cancel.cancelled() || result.count(JobStatus::kCancelled) > 0 ||
        result.count(JobStatus::kPending) > 0;
    result.totalWallMs = 1e3 * secondsSince(start, Clock::now());
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
            if (!job.stats.has(reducer.stat))
                continue;
            values.push_back(job.stats.value(reducer.stat));
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
                                   out, values.size()});
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
    if (includeTimings) {
        meta.set("workers", workers);
        meta.set("total_wall_ms", totalWallMs);
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
        if (includeTimings)
            j.set("wall_ms", r.wallMs);
        if (!r.error.empty())
            j.set("error", r.error);
        JsonValue stats = JsonValue::object();
        for (const auto &[key, stat] : r.stats.scalars())
            stats.set(key, stat.value());
        j.set("stats", std::move(stats));
        jobArray.push(std::move(j));
    }
    root.set("jobs", std::move(jobArray));

    JsonValue reducerArray = JsonValue::array();
    for (const ReducerOutput &r : reducers) {
        JsonValue j = JsonValue::object();
        j.set("name", r.name);
        j.set("op", reduceOpName(r.op));
        j.set("stat", r.stat);
        j.set("value", r.value);
        j.set("count", r.count);
        reducerArray.push(std::move(j));
    }
    root.set("reducers", std::move(reducerArray));

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

namespace {

/** An AOS ablation: job-name suffix and options. */
struct Ablation
{
    const char *name;
    baselines::SystemOptions options;
};

/** Indexed by cell - kNumPaperMechs. */
const Ablation kAblations[kNumPaperCells - kNumPaperMechs] = {
    {"no-opt", {.boundsCompression = false, .useL1B = false}},
    {"l1b-only", {.boundsCompression = false}},
    {"compress-only", {.useL1B = false}},
    {"no-bwb", {.useBwb = false}},
    {"no-fwd", {.boundsForwarding = false}},
};

} // namespace

const char *
ablationName(PaperCell cell)
{
    panic_if(cell < kNumPaperMechs || cell >= kNumPaperCells,
             "cell %u is not an AOS ablation", cell);
    return kAblations[cell - kNumPaperMechs].name;
}

std::vector<Job>
paperCells(u64 ops)
{
    using baselines::Mechanism;
    std::vector<Job> jobs;
    for (const auto &profile : workloads::specProfiles()) {
        for (const Mechanism mech : kPaperMechs)
            jobs.push_back({.name = profile.name + "/" +
                                    baselines::mechanismName(mech),
                            .profile = profile, .mech = mech, .ops = ops});
        for (const Ablation &variant : kAblations)
            jobs.push_back({.name = profile.name + "/aos/" + variant.name,
                            .profile = profile, .mech = Mechanism::kAos,
                            .options = variant.options, .ops = ops});
    }
    return jobs;
}

unsigned
workersFromEnv(unsigned fallback)
{
    return envUnsigned("AOS_CAMPAIGN_JOBS", fallback);
}

} // namespace aos::campaign
