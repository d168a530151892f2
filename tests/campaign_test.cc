/**
 * @file
 * Tests for the experiment-campaign engine (src/campaign): determinism
 * parity across worker counts, exception capture, cooperative
 * cancellation, reducers, aggregation, and the JSON emission contract.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "campaign/json.hh"
#include "common/logging.hh"

namespace aos::campaign {
namespace {

using baselines::Mechanism;

constexpr u64 kTinyOps = 3'000;

/** A body job that ignores the cancel token and runs @p body. */
Job
plainJob(const std::string &name, std::function<core::RunResult()> body)
{
    Job job;
    job.name = name;
    job.cancellableBody = [body = std::move(body)](const CancelToken &) {
        return body();
    };
    return job;
}

/** A body job returning a RunResult with a chosen cycle count. */
Job
bodyJob(const std::string &name, u64 cycles)
{
    return plainJob(name, [cycles] {
        core::RunResult r;
        r.workload = "body";
        r.core.cycles = cycles;
        r.core.committed = cycles;
        return r;
    });
}

/** A body job that throws std::runtime_error(@p what) on every run. */
Job
throwingJob(const std::string &name, std::string what)
{
    return plainJob(name, [what]() -> core::RunResult {
        throw std::runtime_error(what);
    });
}

/** The two cheapest SPEC profiles keep simulation tests fast. */
Campaign
tinySimCampaign(unsigned workers)
{
    CampaignOptions options;
    options.name = "parity";
    options.workers = workers;
    Campaign c(options);
    for (const char *name : {"bzip2", "mcf"}) {
        const auto &profile = workloads::profileByName(name);
        c.add({.profile = profile, .mech = Mechanism::kBaseline,
               .ops = kTinyOps});
        c.add({.profile = profile, .mech = Mechanism::kAos, .ops = kTinyOps});
        c.add({.profile = profile, .mech = Mechanism::kPaAos, .seed = 7,
               .ops = kTinyOps});
    }
    return c;
}

TEST(CampaignDeterminism, SerialAndParallelRunsAreBitIdentical)
{
    setQuiet(true);
    CampaignResult serial = tinySimCampaign(1).run();
    const unsigned hw =
        std::max(4u, std::thread::hardware_concurrency());
    CampaignResult parallel = tinySimCampaign(hw).run();

    ASSERT_TRUE(serial.allOk());
    ASSERT_TRUE(parallel.allOk());
    ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
    for (size_t i = 0; i < serial.jobs.size(); ++i) {
        SCOPED_TRACE(serial.jobs[i].name);
        EXPECT_EQ(serial.jobs[i].run.core.cycles,
                  parallel.jobs[i].run.core.cycles);
        EXPECT_EQ(serial.jobs[i].run.core.committed,
                  parallel.jobs[i].run.core.committed);
        EXPECT_EQ(serial.jobs[i].run.networkTraffic,
                  parallel.jobs[i].run.networkTraffic);
    }
    // The canonical JSON documents must be byte-equal.
    EXPECT_EQ(serial.json(/*includeTimings=*/false),
              parallel.json(/*includeTimings=*/false));
}

TEST(CampaignDeterminism, SeedChangesTheRun)
{
    setQuiet(true);
    const auto &profile = workloads::profileByName("bzip2");
    Campaign c(CampaignOptions{});
    for (const u64 seed : {0, 1})
        c.add({.profile = profile, .mech = Mechanism::kAos, .seed = seed,
               .ops = kTinyOps});
    CampaignResult r = c.run();
    ASSERT_TRUE(r.allOk());
    EXPECT_NE(r.jobs[0].run.core.cycles, r.jobs[1].run.core.cycles);
}

TEST(CampaignPaperCells, ProfileMajorGridInCellOrder)
{
    const auto &profiles = workloads::specProfiles();
    const std::vector<Job> jobs = paperCells(kTinyOps);
    ASSERT_EQ(jobs.size(), profiles.size() * kNumPaperCells);
    ASSERT_EQ(jobs.size(), 160u);

    std::set<std::string> names;
    for (size_t p = 0; p < profiles.size(); ++p) {
        const std::string &profile = profiles[p].name;
        for (unsigned cell = 0; cell < kNumPaperCells; ++cell) {
            const Job &job = jobs[p * kNumPaperCells + cell];
            SCOPED_TRACE(job.name);
            const bool ablation = cell >= kNumPaperMechs;
            EXPECT_EQ(job.profile.name, profile);
            EXPECT_EQ(job.ops, kTinyOps);
            EXPECT_EQ(job.mech, ablation ? Mechanism::kAos
                                         : kPaperMechs[cell]);
            EXPECT_EQ(job.name,
                      ablation ? profile + "/aos/" +
                                     ablationName(PaperCell(cell))
                               : profile + "/" +
                                     baselines::mechanismName(job.mech));
            names.insert(job.name);
        }
    }
    EXPECT_EQ(names.size(), jobs.size());
}

TEST(CampaignRobustness, ExceptionIsCapturedAndSweepContinues)
{
    setQuiet(true);
    auto runs = std::make_shared<std::atomic<int>>(0);
    CampaignOptions options;
    options.workers = 2;
    Campaign c(options);
    c.add(plainJob("bad", [runs]() -> core::RunResult {
        runs->fetch_add(1);
        throw std::runtime_error("deliberate failure");
    }));
    c.add(bodyJob("good", 100));

    CampaignResult r = c.run();
    EXPECT_FALSE(r.allOk());
    EXPECT_EQ(r.count(JobStatus::kFailed), 1u);
    EXPECT_EQ(r.count(JobStatus::kOk), 1u);
    EXPECT_EQ(r.jobs[0].status, JobStatus::kFailed);
    EXPECT_EQ(r.jobs[0].error, "deliberate failure");
    EXPECT_TRUE(r.jobs[1].ok());
    // A job is a pure function of its spec: a failure is recorded, not
    // rerun.
    EXPECT_EQ(runs->load(), 1);
}

TEST(CampaignRobustness, SimulationJobIsPreemptedByShutdown)
{
    // A real simulation polls the shutdown token at its cancellation
    // points (OoOCore's cycle loop, AosSystem's fast-forward), so a
    // trip mid-run preempts the job long before the full window would
    // have finished.
    setQuiet(true);
    CancelToken shutdown;
    CampaignOptions options;
    options.workers = 1;
    options.cancel = &shutdown;
    Campaign c(options);
    // A window this large takes far longer than 20ms uncancelled.
    c.add({.profile = workloads::profileByName("bzip2"),
           .mech = Mechanism::kAos, .ops = 400'000'000});

    std::thread tripper([&shutdown] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        shutdown.requestCancel();
    });
    CampaignResult r = c.run();
    tripper.join();

    EXPECT_EQ(r.jobs[0].status, JobStatus::kCancelled);
    EXPECT_TRUE(r.interrupted);
    // Preemption must land within one poll quantum of the trip, not
    // after the whole window; 1s is orders of magnitude of slack.
    EXPECT_LT(r.jobs[0].wallMs, 1000.0);
}

TEST(CampaignRobustness, CancellableBodyObservesShutdown)
{
    setQuiet(true);
    CancelToken shutdown;
    CampaignOptions options;
    options.workers = 1;
    options.cancel = &shutdown;
    Campaign c(options);
    Job first;
    first.name = "trips-shutdown";
    first.cancellableBody =
        [&shutdown](const CancelToken &token) -> core::RunResult {
        shutdown.requestCancel();
        token.throwIfCancelled(); // The job polls the shutdown token.
        return core::RunResult();
    };
    c.add(std::move(first));
    c.add(bodyJob("never-starts", 1));

    CampaignResult r = c.run();
    EXPECT_TRUE(r.interrupted);
    EXPECT_EQ(r.jobs[0].status, JobStatus::kCancelled);
    EXPECT_NE(r.jobs[0].error.find("shutdown"), std::string::npos);
    // The queued job is skipped, not failed: it stays pending.
    EXPECT_EQ(r.jobs[1].status, JobStatus::kPending);
}

TEST(Cancel, RequestLatches)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.throwIfCancelled());
    token.requestCancel();
    token.requestCancel(); // Idempotent.
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(token.cancelled()); // Stays tripped once observed.
    EXPECT_THROW(token.throwIfCancelled(), CancelledException);
}

TEST(CampaignPool, ManyJobsAllRunExactlyOnce)
{
    setQuiet(true);
    auto runs = std::make_shared<std::atomic<int>>(0);
    CampaignOptions options;
    options.workers = 4;
    Campaign c(options);
    constexpr int kJobs = 64;
    for (int i = 0; i < kJobs; ++i) {
        c.add(plainJob(csprintf("job%d", i), [runs, i] {
            runs->fetch_add(1);
            core::RunResult r;
            r.core.cycles = static_cast<u64>(i);
            return r;
        }));
    }
    CampaignResult r = c.run();
    ASSERT_TRUE(r.allOk());
    EXPECT_EQ(runs->load(), kJobs);
    // Results are in submission order whichever worker ran each job.
    for (int i = 0; i < kJobs; ++i)
        EXPECT_EQ(r.jobs[i].run.core.cycles, static_cast<u64>(i));
}

TEST(CampaignPool, JobsAreClaimedInSubmissionOrder)
{
    setQuiet(true);
    auto order = std::make_shared<std::vector<int>>();
    CampaignOptions options;
    options.workers = 1; // One claimer makes the claim order observable.
    Campaign c(options);
    constexpr int kJobs = 16;
    for (int i = 0; i < kJobs; ++i) {
        c.add(plainJob(csprintf("job%d", i), [order, i] {
            order->push_back(i);
            return core::RunResult{};
        }));
    }
    ASSERT_TRUE(c.run().allOk());
    ASSERT_EQ(order->size(), static_cast<size_t>(kJobs));
    for (int i = 0; i < kJobs; ++i)
        EXPECT_EQ((*order)[i], i);
}

TEST(CampaignReducers, NamedRollupsOverStats)
{
    setQuiet(true);
    Campaign c(CampaignOptions{});
    c.add(bodyJob("a", 100));
    c.add(bodyJob("b", 400));
    c.add(bodyJob("c", 900));
    c.add(throwingJob("bad", "nope")); // Failed jobs contribute nothing.

    CampaignResult r = c.run();
    EXPECT_TRUE(r.reducers.empty());
    computeReducers(
        r, {{"sum_cycles", ReduceOp::kSum, "cycles", nullptr},
            {"max_cycles", ReduceOp::kMax, "cycles", nullptr},
            {"min_cycles", ReduceOp::kMin, "cycles", nullptr},
            {"mean_cycles", ReduceOp::kMean, "cycles", nullptr},
            {"geo_cycles", ReduceOp::kGeomean, "cycles", nullptr},
            {"filtered", ReduceOp::kSum, "cycles",
             [](const JobResult &j) { return j.name != "b"; }}});
    ASSERT_EQ(r.reducers.size(), 6u);
    EXPECT_DOUBLE_EQ(r.reducers[0].value, 1400.0);
    EXPECT_DOUBLE_EQ(r.reducers[1].value, 900.0);
    EXPECT_DOUBLE_EQ(r.reducers[2].value, 100.0);
    EXPECT_NEAR(r.reducers[3].value, 1400.0 / 3, 1e-9);
    EXPECT_NEAR(r.reducers[4].value,
                std::cbrt(100.0 * 400.0 * 900.0), 1e-6);
    EXPECT_DOUBLE_EQ(r.reducers[5].value, 1000.0);
    EXPECT_EQ(r.reducers[5].count, 2u);

    // Harness-injected derived stats feed recomputation.
    for (auto &job : r.jobs)
        job.stats.scalar("doubled") = 2 * job.stats.value("cycles");
    computeReducers(r, {{"sum_doubled", ReduceOp::kSum, "doubled",
                         nullptr}});
    ASSERT_EQ(r.reducers.size(), 1u);
    EXPECT_DOUBLE_EQ(r.reducers[0].value, 2800.0);
}

TEST(CampaignJson, CanonicalDocumentOmitsTimingFields)
{
    setQuiet(true);
    Campaign c(CampaignOptions{});
    c.add(bodyJob("only", 5));
    CampaignResult r = c.run();

    const std::string full = r.json(true);
    const std::string canonical = r.json(false);
    EXPECT_NE(full.find("\"schema\": \"aos-campaign-v1\""),
              std::string::npos);
    EXPECT_NE(full.find("\"wall_ms\""), std::string::npos);
    EXPECT_NE(full.find("\"workers\""), std::string::npos);
    EXPECT_EQ(canonical.find("\"wall_ms\""), std::string::npos);
    EXPECT_EQ(canonical.find("\"workers\""), std::string::npos);
    EXPECT_EQ(canonical.find("\"total_wall_ms\""), std::string::npos);
    EXPECT_NE(canonical.find("\"only\""), std::string::npos);
    EXPECT_NE(canonical.find("\"reducers\""), std::string::npos);
}

TEST(CampaignJson, ErrorsAndStatusAreEmitted)
{
    setQuiet(true);
    Campaign c(CampaignOptions{});
    c.add(throwingJob("bad", "json \"quoted\" message"));
    CampaignResult r = c.run();
    const std::string doc = r.json(false);
    EXPECT_NE(doc.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(doc.find("json \\\"quoted\\\" message"),
              std::string::npos);
}

TEST(CampaignMisc, FindAndStatusNames)
{
    setQuiet(true);
    Campaign c(CampaignOptions{});
    c.add(bodyJob("alpha", 1));
    CampaignResult r = c.run();
    ASSERT_NE(r.find("alpha"), nullptr);
    EXPECT_EQ(r.find("alpha")->run.core.cycles, 1u);
    EXPECT_EQ(r.find("missing"), nullptr);
    EXPECT_STREQ(jobStatusName(JobStatus::kOk), "ok");
    EXPECT_STREQ(jobStatusName(JobStatus::kCancelled), "cancelled");
    EXPECT_STREQ(reduceOpName(ReduceOp::kGeomean), "geomean");
}

TEST(CampaignMisc, WorkersFromEnvParsesOverride)
{
    ::setenv("AOS_CAMPAIGN_JOBS", "6", 1);
    EXPECT_EQ(workersFromEnv(2), 6u);
    ::setenv("AOS_CAMPAIGN_JOBS", "0", 1);
    EXPECT_EQ(workersFromEnv(2), 2u);
    ::unsetenv("AOS_CAMPAIGN_JOBS");
    EXPECT_EQ(workersFromEnv(3), 3u);
}

TEST(CampaignMiscDeathTest, WorkersFromEnvRejectsGarbage)
{
    // A typo'd override used to fall back silently — the sweep would
    // run with a worker count the user never asked for. Now it is a
    // fatal diagnostic naming the variable.
    ::setenv("AOS_CAMPAIGN_JOBS", "garbage", 1);
    EXPECT_DEATH(workersFromEnv(2), "AOS_CAMPAIGN_JOBS");
    ::setenv("AOS_CAMPAIGN_JOBS", "4x", 1);
    EXPECT_DEATH(workersFromEnv(2), "AOS_CAMPAIGN_JOBS");
    ::setenv("AOS_CAMPAIGN_JOBS", "-3", 1);
    EXPECT_DEATH(workersFromEnv(2), "AOS_CAMPAIGN_JOBS");
    ::unsetenv("AOS_CAMPAIGN_JOBS");
}

TEST(CampaignJson, NonFiniteStatsEmitAsNull)
{
    // Harness-injected derived stats can go non-finite (a 0/0
    // normalization, a log of zero). JSON has no nan/inf tokens, so
    // they must emit as null — not as unparseable bare words.
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
    EXPECT_EQ(jsonNumber(-HUGE_VAL), "null");

    setQuiet(true);
    Campaign c(CampaignOptions{});
    c.add(bodyJob("finite", 10));
    CampaignResult r = c.run();
    r.jobs[0].stats.scalar("nan_stat") = std::nan("");
    r.jobs[0].stats.scalar("pos_inf_stat") = HUGE_VAL;
    r.jobs[0].stats.scalar("neg_inf_stat") = -HUGE_VAL;
    const std::string doc = r.json(false);
    EXPECT_NE(doc.find("\"nan_stat\": null"), std::string::npos);
    EXPECT_NE(doc.find("\"pos_inf_stat\": null"), std::string::npos);
    EXPECT_NE(doc.find("\"neg_inf_stat\": null"), std::string::npos);
    EXPECT_EQ(doc.find(": nan"), std::string::npos);
    EXPECT_EQ(doc.find(": inf"), std::string::npos);
    EXPECT_EQ(doc.find(": -inf"), std::string::npos);
}

TEST(CampaignJsonValue, WritesDeterministicNumbers)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-7.0), "-7");
    EXPECT_EQ(jsonNumber(1.5), "1.5");
    EXPECT_EQ(jsonQuote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");

    JsonValue obj = JsonValue::object();
    obj.set("x", 1).set("y", "two");
    JsonValue arr = JsonValue::array();
    arr.push(true).push(JsonValue());
    obj.set("z", std::move(arr));
    EXPECT_EQ(obj.str(),
              "{\n  \"x\": 1,\n  \"y\": \"two\",\n  \"z\": [\n    true,"
              "\n    null\n  ]\n}");
}

} // namespace
} // namespace aos::campaign
