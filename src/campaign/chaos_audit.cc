#include "campaign/chaos_audit.hh"

#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include <unistd.h>

#include "campaign/campaign.hh"
#include "campaign/checkpoint.hh"
#include "common/chaosio.hh"
#include "common/fsio.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace aos::campaign::chaos_audit {

namespace {

/** Scratch directory removed (with its files) on scope exit. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/aos-chaos-XXXXXX";
        if (::mkdtemp(tmpl))
            path = tmpl;
    }

    ~TempDir()
    {
        if (path.empty())
            return;
        for (const std::string &name : fsio::listDir(path))
            fsio::removeFile(path + "/" + name);
        ::rmdir(path.c_str());
    }
};

/**
 * Fold the engine tallies and the scenario verdict into a result.
 * Severity order: a violated contract outranks everything; a clean
 * abort outranks mere degradation; completing despite hard faults is
 * degraded_retried; benign-only (or no) injections are tolerated.
 */
ScenarioResult
classify(const chaos::ChaosEngine &eng, bool violation, bool cleanAbort,
         std::string detail)
{
    ScenarioResult r;
    r.chaosOps =
        eng.ops(chaos::Domain::kDisk) + eng.ops(chaos::Domain::kAlloc);
    r.injected = eng.injectedTotal();
    r.detail = std::move(detail);
    if (violation)
        r.outcome = Outcome::kContractViolation;
    else if (cleanAbort)
        r.outcome = Outcome::kCleanAbort;
    else if (eng.injectedHard() > 0)
        r.outcome = Outcome::kDegradedRetried;
    else
        r.outcome = Outcome::kTolerated;
    return r;
}

/** A completed fake job whose record round-trips the checkpoint. */
JobResult
fakeResult(u32 id, Rng &rng)
{
    JobResult r;
    r.id = id;
    r.name = csprintf("job-%03u", id);
    r.profile = "synthetic";
    r.mech = baselines::Mechanism::kBaseline;
    r.seed = rng.next();
    r.ops = 1000 + rng.below(1000);
    r.status = JobStatus::kOk;
    r.attempts = 1;
    r.wallMs = static_cast<double>(rng.below(1000));
    r.stats.scalar("cycles") = static_cast<double>(rng.below(1u << 30));
    r.stats.scalar("ipc") = rng.uniform();
    return r;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

} // namespace

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::kTolerated: return "tolerated";
      case Outcome::kDegradedRetried: return "degraded_retried";
      case Outcome::kCleanAbort: return "clean_abort";
      case Outcome::kContractViolation: return "contract_violation";
    }
    return "unknown";
}

ScenarioResult
auditCheckpointDisk(u64 seed, const CancelToken &cancel)
{
    Rng rng(seed);
    TempDir dir;
    if (dir.path.empty()) {
        chaos::ChaosEngine none{chaos::ChaosConfig{}};
        return classify(none, true, false, "mkdtemp failed");
    }

    const unsigned n = 6 + static_cast<unsigned>(rng.below(7));
    std::vector<JobResult> results;
    results.reserve(n);
    for (u32 i = 0; i < n; ++i)
        results.push_back(fakeResult(i, rng));
    const CheckpointManifest manifest{rng.next(), n, "chaos_audit"};

    chaos::ChaosConfig cfg;
    cfg.seed = rng.next();
    cfg.ratePerMille = 30 + static_cast<u32>(rng.below(270));
    cfg.domains = chaos::domainBit(chaos::Domain::kDisk);
    chaos::ChaosEngine eng(cfg);

    bool started = false;
    std::vector<bool> appended(n, false);
    {
        chaos::ChaosScope scope(&eng);
        CheckpointWriter writer;
        started = writer.start(dir.path, manifest, 2, CheckpointLoad{});
        if (started) {
            for (u32 i = 0; i < n; ++i)
                appended[i] = writer.append(i % 2, results[i]);
        }
        writer.close();
    }
    cancel.throwIfCancelled();

    // Contract: no failure path may leave an atomicWriteFile temp.
    std::string vio;
    for (const std::string &name : fsio::listDir(dir.path)) {
        if (endsWith(name, ".tmp"))
            vio = "stale temp file left behind: " + name;
    }

    if (vio.empty() && started) {
        const CheckpointLoad load = loadCheckpoint(dir.path, manifest);
        if (!load.valid) {
            vio = "started checkpoint did not load back: " + load.reason;
        } else {
            for (u32 i = 0; i < n && vio.empty(); ++i) {
                if (appended[i] && !load.present[i]) {
                    vio = csprintf("record %u reported durable but is "
                                   "missing", i);
                } else if (!appended[i] && load.present[i]) {
                    vio = csprintf("record %u reported failed but "
                                   "loaded back", i);
                } else if (appended[i] &&
                           encodeCheckpointRecord(load.restored[i]) !=
                               encodeCheckpointRecord(results[i])) {
                    vio = csprintf("record %u restored differently "
                                   "than written", i);
                }
            }
        }
    }

    // Contract: whatever chaos left behind, a chaos-free resume
    // completes every job (clean-abort recoverability).
    if (vio.empty()) {
        CheckpointLoad load = loadCheckpoint(dir.path, manifest);
        CheckpointWriter writer;
        if (!writer.start(dir.path, manifest, 2, load)) {
            vio = "chaos-free recovery start failed: " + writer.error();
        } else {
            for (u32 i = 0; i < n && vio.empty(); ++i) {
                if (load.valid && load.present[i])
                    continue;
                if (!writer.append(i % 2, results[i]))
                    vio = csprintf("chaos-free append of record %u "
                                   "failed", i);
            }
            writer.close();
            if (vio.empty()) {
                const CheckpointLoad final_ =
                    loadCheckpoint(dir.path, manifest);
                if (!final_.valid) {
                    vio = "recovered checkpoint invalid: " +
                          final_.reason;
                } else {
                    for (u32 i = 0; i < n && vio.empty(); ++i) {
                        if (!final_.present[i])
                            vio = csprintf("record %u missing after "
                                           "recovery", i);
                    }
                }
            }
        }
    }

    bool anyFailed = !started;
    for (u32 i = 0; i < n; ++i)
        anyFailed = anyFailed || (started && !appended[i]);
    return classify(eng, !vio.empty(), anyFailed, vio);
}

ScenarioResult
auditCampaignAlloc(u64 seed, const CancelToken &cancel)
{
    Rng rng(seed);
    const unsigned jobs = 8;
    std::vector<u64> seeds;
    seeds.reserve(jobs);
    for (unsigned j = 0; j < jobs; ++j)
        seeds.push_back(rng.next());

    auto runNested = [&]() {
        CampaignOptions options;
        options.name = "chaos-alloc";
        options.workers = 1; // Runs on this thread: TLS chaos applies.
        options.maxAttempts = 4;
        options.cancel = &cancel;
        Campaign nested(options);
        for (unsigned j = 0; j < jobs; ++j) {
            Job job;
            job.name = csprintf("body-%u", j);
            job.seed = seeds[j];
            job.body = [s = seeds[j]]() {
                core::RunResult run;
                run.workload = "chaos-alloc";
                Rng body(s);
                run.extra.scalar("chaos_body_value") =
                    static_cast<double>(body.below(1u << 30));
                run.extra.scalar("chaos_body_checksum") = body.uniform();
                return run;
            };
            nested.add(std::move(job));
        }
        return nested.run();
    };

    const CampaignResult reference = runNested();
    cancel.throwIfCancelled();

    chaos::ChaosConfig cfg;
    cfg.seed = rng.next();
    cfg.ratePerMille = 150 + static_cast<u32>(rng.below(500));
    cfg.domains = chaos::domainBit(chaos::Domain::kAlloc);
    chaos::ChaosEngine eng(cfg);
    CampaignResult chaotic;
    {
        chaos::ChaosScope scope(&eng);
        chaotic = runNested();
    }

    std::string vio;
    bool anyFailed = false;
    if (!reference.allOk()) {
        vio = "chaos-free reference run failed";
    } else {
        for (unsigned j = 0; j < jobs && vio.empty(); ++j) {
            const JobResult &ref = reference.jobs[j];
            const JobResult &got = chaotic.jobs[j];
            if (!got.ok()) {
                // Attempts exhausted: acceptable only as a *reported*
                // failure.
                anyFailed = true;
                if (got.status != JobStatus::kFailed &&
                    got.status != JobStatus::kCancelled) {
                    vio = csprintf("job %u degraded to %s, not a "
                                   "reported failure", j,
                                   jobStatusName(got.status));
                }
                continue;
            }
            // A job that says kOk must be bit-identical to the
            // reference — chaos may cost retries, never correctness.
            const auto &refScalars = ref.stats.scalars();
            const auto &gotScalars = got.stats.scalars();
            if (refScalars.size() != gotScalars.size()) {
                vio = csprintf("job %u stat set diverged under chaos",
                               j);
                break;
            }
            for (const auto &[key, stat] : refScalars) {
                const auto it = gotScalars.find(key);
                if (it == gotScalars.end() ||
                    it->second.value() != stat.value()) {
                    vio = csprintf("job %u stat \"%s\" diverged under "
                                   "chaos", j, key.c_str());
                    break;
                }
            }
        }
    }

    return classify(eng, !vio.empty(), anyFailed, vio);
}

} // namespace aos::campaign::chaos_audit
