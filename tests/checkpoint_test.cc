/**
 * @file
 * Tests for crash-safe campaign checkpointing (campaign/checkpoint.hh),
 * the filesystem primitives underneath it (common/fsio.hh), and the
 * cooperative CancelToken (common/cancel.hh): durable-record round
 * trips, record decoding (consumed-size reporting, rejection of
 * truncated or corrupted bytes), kill-and-resume byte parity of the
 * canonical JSON, corruption detection (truncated tails, bit flips,
 * foreign/corrupt manifests ⇒ re-execution, never silently-trusted
 * records), and shutdown preemption semantics. The chaos tests
 * (DESIGN.md §13) drive the same primitives through injected disk
 * faults: torn-tail truncation makes AppendLog retries safe, a writer
 * under chaos leaves no temp files and a clean load trusts exactly the
 * durably-appended records.
 */

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "campaign/checkpoint.hh"
#include "common/cancel.hh"
#include "common/chaosio.hh"
#include "common/fsio.hh"
#include "common/logging.hh"

namespace aos::campaign {
namespace {

/** Self-deleting scratch directory for checkpoint tests. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/aos_ckpt_test_XXXXXX";
        const char *made = ::mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made ? made : "";
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

std::string
shardPath(const std::string &dir)
{
    return dir + "/shard-000.log";
}

/** Flip one bit at @p offset (negative = from the end) of @p path. */
void
flipBit(const std::string &path, long offset)
{
    std::string data;
    ASSERT_TRUE(fsio::readFile(path, data));
    const size_t pos = offset >= 0
                           ? static_cast<size_t>(offset)
                           : data.size() + static_cast<size_t>(offset);
    ASSERT_LT(pos, data.size());
    data[pos] = static_cast<char>(data[pos] ^ 0x40);
    ASSERT_TRUE(fsio::atomicWriteFile(path, data));
}

/**
 * A deterministic 6-job campaign over counting cancellable bodies.
 * @p runs counts actual executions (restored jobs do not bump it);
 * @p shutdown + @p stopAfter trip the shutdown token once that many
 * jobs have completed, modelling a mid-campaign kill.
 */
Campaign
countingCampaign(const std::string &checkpointDir,
                 std::shared_ptr<std::atomic<int>> runs,
                 CancelToken *shutdown = nullptr, int stopAfter = 0,
                 unsigned workers = 1)
{
    CampaignOptions options;
    options.name = "ckpt-test";
    options.workers = workers;
    options.checkpointDir = checkpointDir;
    options.cancel = shutdown;
    Campaign c(options);
    for (int i = 0; i < 6; ++i) {
        Job job;
        job.name = csprintf("job%d", i);
        job.cancellableBody =
            [i, runs, shutdown, stopAfter](const CancelToken &)
            -> core::RunResult {
            core::RunResult r;
            r.workload = "body";
            r.core.cycles = 1000u + static_cast<u64>(i);
            r.core.committed = 100u * static_cast<u64>(i) + 1;
            const int done = runs->fetch_add(1) + 1;
            if (shutdown && stopAfter && done >= stopAfter)
                shutdown->requestCancel();
            return r;
        };
        c.add(std::move(job));
    }
    return c;
}

/** Canonical JSON of the same campaign run with no checkpointing. */
std::string
referenceJson()
{
    auto runs = std::make_shared<std::atomic<int>>(0);
    CampaignResult r = countingCampaign("", runs).run();
    EXPECT_TRUE(r.allOk());
    return r.json(/*includeTimings=*/false);
}

// --- fsio primitives -------------------------------------------------

TEST(Fsio, Crc32MatchesKnownVectors)
{
    // The IEEE 802.3 check value for the ASCII digits "123456789".
    EXPECT_EQ(fsio::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(fsio::crc32("", 0), 0u);
    // Chaining across a split must equal the one-shot CRC.
    const u32 partial = fsio::crc32("12345", 5);
    EXPECT_EQ(fsio::crc32("6789", 4, partial), 0xCBF43926u);
}

TEST(Fsio, Fnv1a64MatchesKnownVectors)
{
    EXPECT_EQ(fsio::fnv1a64("", 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fsio::fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fsio::fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
}

TEST(Fsio, AtomicWriteReplacesWholeFile)
{
    TempDir dir;
    const std::string path = dir.path + "/target";
    ASSERT_TRUE(fsio::atomicWriteFile(path, "first version"));
    std::string back;
    ASSERT_TRUE(fsio::readFile(path, back));
    EXPECT_EQ(back, "first version");
    ASSERT_TRUE(fsio::atomicWriteFile(path, "v2"));
    ASSERT_TRUE(fsio::readFile(path, back));
    EXPECT_EQ(back, "v2");
    // The temp file must not linger after the rename.
    EXPECT_FALSE(fsio::fileExists(path + ".tmp"));
}

TEST(Fsio, AppendLogAppendsAndTruncates)
{
    TempDir dir;
    const std::string path = dir.path + "/log";
    fsio::AppendLog log;
    ASSERT_TRUE(log.open(path));
    ASSERT_TRUE(log.append("aaaa", 4));
    ASSERT_TRUE(log.append("bb", 2));
    log.close();
    std::string back;
    ASSERT_TRUE(fsio::readFile(path, back));
    EXPECT_EQ(back, "aaaabb");
    ASSERT_TRUE(fsio::truncateFile(path, 4));
    ASSERT_TRUE(fsio::readFile(path, back));
    EXPECT_EQ(back, "aaaa");
    // Reopening appends after the truncation point.
    fsio::AppendLog again;
    ASSERT_TRUE(again.open(path));
    ASSERT_TRUE(again.append("cc", 2));
    again.close();
    ASSERT_TRUE(fsio::readFile(path, back));
    EXPECT_EQ(back, "aaaacc");
}

// --- CancelToken -----------------------------------------------------

TEST(Cancel, RequestLatchesFirstReason)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelToken::Reason::kNone);
    token.requestCancel(CancelToken::Reason::kShutdown);
    token.requestCancel(CancelToken::Reason::kDeadline); // Too late.
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelToken::Reason::kShutdown);
    EXPECT_THROW(token.throwIfCancelled(), CancelledException);
}

TEST(Cancel, ExpiredDeadlineTripsWithDeadlineReason)
{
    CancelToken token;
    token.setDeadlineAfter(-1.0); // Already past.
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelToken::Reason::kDeadline);
    CancelToken patient;
    patient.setDeadlineAfter(3600.0);
    EXPECT_FALSE(patient.cancelled());
}

TEST(Cancel, ParentTripPropagatesToChild)
{
    CancelToken parent;
    CancelToken child(&parent);
    EXPECT_FALSE(child.cancelled());
    parent.requestCancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_EQ(child.reason(), CancelToken::Reason::kShutdown);
}

// --- checkpoint format -----------------------------------------------

TEST(Checkpoint, RecordRoundTripsExactDoubles)
{
    JobResult r;
    r.id = 3;
    r.name = "roundtrip";
    r.profile = "bzip2";
    r.mech = baselines::Mechanism::kPaAos;
    r.seed = 7;
    r.ops = 12345;
    r.status = JobStatus::kOk;
    r.attempts = 2;
    r.wallMs = 0.1 + 0.2; // Not representable — bits must round-trip.
    r.stats.scalar("ipc") = 1.0 / 3.0;
    r.stats.scalar("cycles") = 1e18;
    r.timing.scalar("ops_per_sec") = 987.125;

    TempDir dir;
    const CheckpointManifest manifest{42, 4, "rt"};
    CheckpointWriter writer;
    CheckpointLoad empty;
    ASSERT_TRUE(writer.start(dir.path, manifest, 1, empty));
    ASSERT_TRUE(writer.append(0, r));
    writer.close();

    const CheckpointLoad load = loadCheckpoint(dir.path, manifest);
    ASSERT_TRUE(load.valid) << load.reason;
    ASSERT_EQ(load.recordsLoaded, 1u);
    ASSERT_TRUE(load.present[3]);
    const JobResult &back = load.restored[3];
    EXPECT_TRUE(back.resumed);
    EXPECT_EQ(back.name, "roundtrip");
    EXPECT_EQ(back.profile, "bzip2");
    EXPECT_EQ(back.mech, baselines::Mechanism::kPaAos);
    EXPECT_EQ(back.seed, 7u);
    EXPECT_EQ(back.ops, 12345u);
    EXPECT_EQ(back.status, JobStatus::kOk);
    EXPECT_EQ(back.attempts, 2u);
    // Bit-exact, not approximately-equal: the resumed canonical JSON
    // must serialize identical bytes.
    EXPECT_EQ(back.wallMs, r.wallMs);
    EXPECT_EQ(back.stats.value("ipc"), 1.0 / 3.0);
    EXPECT_EQ(back.stats.value("cycles"), 1e18);
    EXPECT_EQ(back.timing.value("ops_per_sec"), 987.125);
}

JobResult
sampleRecord()
{
    JobResult r;
    r.id = 5;
    r.name = "record";
    r.profile = "bzip2";
    r.status = JobStatus::kOk;
    r.attempts = 1;
    r.wallMs = 1.5;
    r.stats.scalar("ipc") = 1.0 / 3.0;
    return r;
}

TEST(Checkpoint, RecordDecodeReportsConsumedBytes)
{
    const std::string bytes = encodeCheckpointRecord(sampleRecord());
    JobResult out;
    size_t consumed = 0;
    ASSERT_TRUE(decodeCheckpointRecord(bytes.data(), bytes.size(), out,
                                       &consumed));
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(out.id, 5u);
    EXPECT_EQ(out.name, "record");
    EXPECT_FALSE(out.resumed); // Only loadCheckpoint() marks resumes.
    EXPECT_EQ(out.stats.value("ipc"), 1.0 / 3.0);
}

TEST(Checkpoint, RecordDecodeRejectsCorruption)
{
    const std::string bytes = encodeCheckpointRecord(sampleRecord());
    JobResult out;

    // Every truncation is rejected (incomplete ≠ decodable).
    for (size_t cut = 0; cut < bytes.size(); cut += 3)
        EXPECT_FALSE(decodeCheckpointRecord(bytes.data(), cut, out));

    // A flipped payload bit fails the CRC.
    std::string flipped = bytes;
    flipped[flipped.size() - 2] ^= 0x08;
    EXPECT_FALSE(
        decodeCheckpointRecord(flipped.data(), flipped.size(), out));

    // A flipped magic byte is rejected before anything else.
    std::string badMagic = bytes;
    badMagic[0] ^= 0xFF;
    EXPECT_FALSE(
        decodeCheckpointRecord(badMagic.data(), badMagic.size(), out));

    // An absurd declared length is rejected from the header alone.
    std::string badLen = bytes;
    badLen[4] = static_cast<char>(0xFF);
    badLen[5] = static_cast<char>(0xFF);
    badLen[6] = static_cast<char>(0xFF);
    badLen[7] = static_cast<char>(0x7F);
    EXPECT_FALSE(
        decodeCheckpointRecord(badLen.data(), badLen.size(), out));
}

TEST(Checkpoint, IdentityHashCoversResultAffectingSpec)
{
    CampaignOptions options;
    std::vector<Job> jobs(2);
    jobs[0].name = "a";
    jobs[1].name = "b";
    const u64 base = identityHash(options, jobs);
    EXPECT_EQ(identityHash(options, jobs), base); // Stable.

    CampaignOptions renamed = options;
    renamed.name = "other";
    EXPECT_NE(identityHash(renamed, jobs), base);

    CampaignOptions budget = options;
    budget.timeoutSec = 5.0;
    EXPECT_NE(identityHash(budget, jobs), base);

    // Execution-only knobs must NOT change the identity: resuming with
    // a different worker count or progress setting is the whole point.
    CampaignOptions executionOnly = options;
    executionOnly.workers = 7;
    executionOnly.progress = true;
    executionOnly.checkpointDir = "/elsewhere";
    EXPECT_EQ(identityHash(executionOnly, jobs), base);

    auto reseeded = jobs;
    reseeded[1].seed = 99;
    EXPECT_NE(identityHash(options, reseeded), base);

    auto retoggled = jobs;
    retoggled[0].options.useBwb = false;
    EXPECT_NE(identityHash(options, retoggled), base);
}

// --- resume flows ----------------------------------------------------

TEST(CheckpointResume, InterruptedCampaignResumesByteIdentical)
{
    setQuiet(true);
    const std::string reference = referenceJson();

    // Interrupt after 1..5 completed jobs; each time, the resume must
    // execute exactly the remainder and reproduce the reference bytes.
    for (int stopAfter = 1; stopAfter <= 5; ++stopAfter) {
        SCOPED_TRACE(stopAfter);
        TempDir dir;
        auto runs = std::make_shared<std::atomic<int>>(0);
        CancelToken shutdown;
        CampaignResult partial =
            countingCampaign(dir.path, runs, &shutdown, stopAfter).run();
        EXPECT_TRUE(partial.interrupted);
        EXPECT_EQ(partial.executedJobs, unsigned(stopAfter));

        CampaignResult resumed = countingCampaign(dir.path, runs).run();
        EXPECT_FALSE(resumed.interrupted);
        EXPECT_TRUE(resumed.allOk());
        EXPECT_EQ(resumed.resumedJobs, unsigned(stopAfter));
        EXPECT_EQ(resumed.executedJobs, unsigned(6 - stopAfter));
        // Total executions across both runs: nothing ran twice.
        EXPECT_EQ(runs->load(), 6);
        EXPECT_EQ(resumed.json(false), reference);
    }
}

TEST(CheckpointResume, ResumeWithDifferentWorkerCountIsByteIdentical)
{
    setQuiet(true);
    const std::string reference = referenceJson();
    TempDir dir;
    auto runs = std::make_shared<std::atomic<int>>(0);
    CancelToken shutdown;
    countingCampaign(dir.path, runs, &shutdown, 2, /*workers=*/1).run();
    CampaignResult resumed =
        countingCampaign(dir.path, runs, nullptr, 0, /*workers=*/3).run();
    EXPECT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.json(false), reference);
    EXPECT_EQ(resumed.resumedJobs + resumed.executedJobs, 6u);
}

TEST(CheckpointResume, CompletedCampaignResumesWithoutReExecution)
{
    setQuiet(true);
    TempDir dir;
    auto runs = std::make_shared<std::atomic<int>>(0);
    CampaignResult first = countingCampaign(dir.path, runs).run();
    EXPECT_TRUE(first.allOk());
    EXPECT_EQ(runs->load(), 6);

    CampaignResult again = countingCampaign(dir.path, runs).run();
    EXPECT_TRUE(again.allOk());
    EXPECT_EQ(again.resumedJobs, 6u);
    EXPECT_EQ(again.executedJobs, 0u);
    EXPECT_EQ(runs->load(), 6); // No job ran twice.
    EXPECT_EQ(again.json(false), first.json(false));
}

TEST(CheckpointResume, TruncatedShardTailReExecutesAffectedJob)
{
    setQuiet(true);
    const std::string reference = referenceJson();
    TempDir dir;
    auto runs = std::make_shared<std::atomic<int>>(0);
    EXPECT_TRUE(countingCampaign(dir.path, runs).run().allOk());

    // Tear the last record as a mid-append crash would.
    std::string shard;
    ASSERT_TRUE(fsio::readFile(shardPath(dir.path), shard));
    ASSERT_TRUE(fsio::truncateFile(shardPath(dir.path),
                                   shard.size() - 3));

    CampaignResult resumed = countingCampaign(dir.path, runs).run();
    EXPECT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.resumedJobs, 5u);
    EXPECT_EQ(resumed.executedJobs, 1u);
    EXPECT_EQ(resumed.discardedRecords, 1u);
    EXPECT_EQ(runs->load(), 7); // Exactly one re-execution.
    EXPECT_EQ(resumed.json(false), reference);
}

TEST(CheckpointResume, BitFlippedRecordIsDiscardedNotTrusted)
{
    setQuiet(true);
    const std::string reference = referenceJson();
    TempDir dir;
    auto runs = std::make_shared<std::atomic<int>>(0);
    EXPECT_TRUE(countingCampaign(dir.path, runs).run().allOk());

    // Flip a payload bit near the end of the shard: CRC catches it,
    // the scan stops there, and the affected job re-runs.
    flipBit(shardPath(dir.path), -5);

    CampaignResult resumed = countingCampaign(dir.path, runs).run();
    EXPECT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.resumedJobs, 5u);
    EXPECT_EQ(resumed.executedJobs, 1u);
    EXPECT_GE(resumed.discardedRecords, 1u);
    EXPECT_EQ(runs->load(), 7);
    EXPECT_EQ(resumed.json(false), reference);
}

TEST(CheckpointResume, CorruptManifestForcesFullReRun)
{
    setQuiet(true);
    TempDir dir;
    auto runs = std::make_shared<std::atomic<int>>(0);
    EXPECT_TRUE(countingCampaign(dir.path, runs).run().allOk());

    flipBit(dir.path + "/manifest.bin", 10);

    CampaignResult resumed = countingCampaign(dir.path, runs).run();
    EXPECT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.resumedJobs, 0u);
    EXPECT_EQ(resumed.executedJobs, 6u);
    EXPECT_EQ(runs->load(), 12);
}

TEST(CheckpointResume, DifferentCampaignInSameDirFullyReRuns)
{
    setQuiet(true);
    TempDir dir;
    auto runs = std::make_shared<std::atomic<int>>(0);
    EXPECT_TRUE(countingCampaign(dir.path, runs).run().allOk());

    // Same directory, different spec (an extra job ⇒ different
    // identity hash): stale results must never leak into the new
    // campaign — full re-run, not a silent mix.
    CampaignOptions options;
    options.name = "ckpt-test"; // Same name; the hash still differs.
    options.workers = 1;
    options.checkpointDir = dir.path;
    Campaign other(options);
    auto otherRuns = std::make_shared<std::atomic<int>>(0);
    for (int i = 0; i < 7; ++i) {
        Job job;
        job.name = csprintf("job%d", i);
        job.cancellableBody =
            [i, otherRuns](const CancelToken &) -> core::RunResult {
            core::RunResult r;
            r.core.cycles = 5000u + static_cast<u64>(i);
            otherRuns->fetch_add(1);
            return r;
        };
        other.add(std::move(job));
    }
    CampaignResult result = other.run();
    EXPECT_TRUE(result.allOk());
    EXPECT_EQ(result.resumedJobs, 0u);
    EXPECT_EQ(result.executedJobs, 7u);
    EXPECT_EQ(otherRuns->load(), 7);
    // And the directory now belongs to the new campaign.
    CampaignResult again = other.run();
    EXPECT_EQ(again.resumedJobs, 7u);
}

TEST(CheckpointResume, FailedJobsAreRestoredAsFailed)
{
    setQuiet(true);
    TempDir dir;
    auto attempts = std::make_shared<std::atomic<int>>(0);
    auto makeCampaign = [&] {
        CampaignOptions options;
        options.name = "fails";
        options.workers = 1;
        options.checkpointDir = dir.path;
        Campaign c(options);
        Job bad;
        bad.name = "bad";
        bad.body = [attempts]() -> core::RunResult {
            attempts->fetch_add(1);
            throw std::runtime_error("deterministic failure");
        };
        c.add(std::move(bad));
        return c;
    };
    CampaignResult first = makeCampaign().run();
    EXPECT_EQ(first.jobs[0].status, JobStatus::kFailed);
    EXPECT_EQ(attempts->load(), 1);

    // A deterministic failure is a result too: restore it instead of
    // burning time re-discovering it.
    CampaignResult second = makeCampaign().run();
    EXPECT_EQ(second.jobs[0].status, JobStatus::kFailed);
    EXPECT_EQ(second.jobs[0].error, "deterministic failure");
    EXPECT_TRUE(second.jobs[0].resumed);
    EXPECT_EQ(second.resumedJobs, 1u);
    EXPECT_EQ(attempts->load(), 1);
}

TEST(CheckpointResume, SimulationJobsRoundTripBitExact)
{
    // End-to-end with the real pipeline: the flattened simulation
    // stats (doubles like ipc and mpki included) must survive the
    // checkpoint bit-exactly, so the resumed canonical document equals
    // the uninterrupted one byte for byte.
    setQuiet(true);
    constexpr u64 kTinyOps = 3'000;
    auto build = [&](const std::string &ckpt) {
        CampaignOptions options;
        options.name = "sim-ckpt";
        options.workers = 1;
        options.checkpointDir = ckpt;
        Campaign c(options);
        const auto &profile = workloads::profileByName("bzip2");
        c.addConfig(profile, baselines::Mechanism::kBaseline, kTinyOps);
        c.addConfig(profile, baselines::Mechanism::kAos, kTinyOps);
        return c;
    };
    const std::string reference = build("").run().json(false);

    TempDir dir;
    CampaignResult first = build(dir.path).run();
    EXPECT_TRUE(first.allOk());
    EXPECT_EQ(first.json(false), reference);

    CampaignResult resumed = build(dir.path).run();
    EXPECT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.resumedJobs, 2u);
    EXPECT_EQ(resumed.executedJobs, 0u);
    EXPECT_EQ(resumed.json(false), reference);
}

// --- chaos instrumentation (DESIGN.md §13) ---------------------------

chaos::ChaosConfig
diskChaos(u64 seed, u32 rate, u32 kinds = 0)
{
    chaos::ChaosConfig c;
    c.seed = seed;
    c.ratePerMille = rate;
    c.domains = chaos::domainBit(chaos::Domain::kDisk);
    c.kinds = kinds;
    return c;
}

TEST(ChaosFsio, TornTailTruncationMakesAppendRetrySafe)
{
    TempDir dir;
    fsio::AppendLog log;
    ASSERT_TRUE(log.open(dir.path + "/torn.log"));
    const std::string first(64, 'a');
    ASSERT_TRUE(log.append(first.data(), first.size()));
    const std::string record(128, 'b');

    // Search the seed space for a schedule where a short write lands
    // some bytes durably and a later write op fails: the torn-tail
    // case a naive retry would poison by appending after garbage.
    bool tornTailSeen = false;
    for (u64 seed = 0; seed < 64 && !tornTailSeen; ++seed) {
        chaos::ChaosEngine eng(diskChaos(
            seed, 1000,
            chaos::kindBit(chaos::FaultKind::kShortWrite) |
                chaos::kindBit(chaos::FaultKind::kWriteEio)));
        const long long mark = log.offset();
        ASSERT_EQ(mark, 64);
        bool ok = false;
        {
            chaos::ChaosScope scope(&eng);
            ok = log.append(record.data(), record.size());
        }
        tornTailSeen = !ok && log.offset() > mark;
        // Recovery discipline (campaign/checkpoint.cc::append): cut
        // back to the pre-append record boundary before retrying — or,
        // on success under short-write-only degradation, roll back so
        // every search iteration starts from the same state.
        ASSERT_TRUE(log.truncateTo(static_cast<u64>(mark)));
        ASSERT_EQ(log.offset(), mark);
    }
    ASSERT_TRUE(tornTailSeen)
        << "no seed in [0,64) produced a torn tail";

    // A chaos-free retry after the truncation lands the record after
    // the first one, with no garbage in between.
    ASSERT_TRUE(log.append(record.data(), record.size()));
    log.close();
    std::string data;
    ASSERT_TRUE(fsio::readFile(dir.path + "/torn.log", data));
    EXPECT_EQ(data, first + record);
}

TEST(ChaosCheckpoint, WriterUnderChaosThenCleanLoadTrustsOnlyRecords)
{
    TempDir dir;
    CheckpointManifest manifest;
    manifest.identity = 0x5eed;
    manifest.jobCount = 8;
    manifest.name = "chaos-ckpt";

    // Moderate chaos over every disk kind: appends retry-with-backoff
    // internally (ENOSPC, EIO, fsync failure, torn tails), so each
    // append's verdict is trustworthy — true means durable.
    chaos::ChaosEngine eng(diskChaos(/*seed=*/41, /*rate=*/200));
    std::vector<u32> appended;
    bool started = false;
    {
        chaos::ChaosScope scope(&eng);
        CheckpointWriter writer;
        CheckpointLoad fresh;
        started = writer.start(dir.path, manifest, 1, fresh);
        if (started) {
            for (u32 i = 0; i < 8; ++i) {
                JobResult r;
                r.id = i;
                r.name = csprintf("job%u", i);
                r.status = JobStatus::kOk;
                r.attempts = 1;
                r.stats.scalar("value") = 10.0 * i;
                if (writer.append(0, r))
                    appended.push_back(i);
            }
            writer.close();
        }
    }
    ASSERT_TRUE(started); // Deterministic for this seed.
    EXPECT_GT(eng.injected(chaos::Domain::kDisk), 0u);

    // However the writer fared, no temp file may survive it.
    for (const std::string &name : fsio::listDir(dir.path))
        EXPECT_FALSE(name.size() >= 4 &&
                     name.compare(name.size() - 4, 4, ".tmp") == 0)
            << name;

    // A chaos-free load sees exactly the successfully-appended set.
    CheckpointLoad load = loadCheckpoint(dir.path, manifest);
    EXPECT_TRUE(load.manifestFound);
    EXPECT_TRUE(load.valid) << load.reason;
    EXPECT_EQ(load.recordsLoaded, appended.size());
    for (u32 id : appended) {
        ASSERT_LT(id, load.present.size());
        EXPECT_TRUE(load.present[id]);
        EXPECT_EQ(load.restored[id].stats.scalar("value").value(),
                  10.0 * id);
    }
}

TEST(ChaosCheckpoint, StaleTempFilesAreSweptOnStart)
{
    TempDir dir;
    // A crash between atomicWriteFile()'s temp write and rename leaves
    // an orphan; seed one and expect start() to sweep it.
    ASSERT_TRUE(fsio::atomicWriteFile(dir.path + "/manifest.bin.tmp",
                                      "orphaned partial write"));
    CheckpointManifest manifest;
    manifest.identity = 0x7a57e;
    manifest.jobCount = 1;
    manifest.name = "sweep";
    CheckpointWriter writer;
    CheckpointLoad fresh;
    ASSERT_TRUE(writer.start(dir.path, manifest, 1, fresh))
        << writer.error();
    writer.close();
    for (const std::string &name : fsio::listDir(dir.path))
        EXPECT_FALSE(name.size() >= 4 &&
                     name.compare(name.size() - 4, 4, ".tmp") == 0)
            << name;
}

} // namespace
} // namespace aos::campaign
