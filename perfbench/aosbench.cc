/**
 * @file
 * aosbench — one sweep of one benchmark workload, as one process.
 *
 *   aosbench plain  --workload W --seed N [--window OPS]
 *   aosbench traced --workload W --seed N [--window OPS] [--spans-out F]
 *   aosbench count  --workload W --seed N [--window OPS]
 *
 * plain runs every job of the workload through campaign::Campaign with
 * the job body AosSystem (exactly what the figure harnesses run), and
 * stamps when main() starts and when the first job starts to simulate.
 * traced runs the same
 * jobs through the benchmark's traced runner (traced_system.hh) and
 * reports per-layer self times and counts. count regenerates each
 * source stream once and counts its micro-ops. Each mode prints one
 * JSON object on stdout; perfbench/run.py turns those into metrics.
 *
 * Every job's simulated StatSet is reduced to a 64-bit digest (names
 * and exact double bits), which run.py compares against pinned values.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/json.hh"
#include "common/logging.hh"
#include "perfbench/spans.hh"
#include "perfbench/traced_system.hh"
#include "workloads/synthetic_workload.hh"
#include "workloads/workload_profile.hh"

using namespace aos;
using namespace aos::perfbench;
using baselines::Mechanism;

namespace {

struct Variant
{
    const char *label;
    Mechanism mech;
    bool boundsElision;
};

struct WorkloadSpec
{
    const char *name;
    std::vector<std::string> profiles; //!< Empty: all SPEC profiles.
    std::vector<Variant> variants;
    u64 window;    //!< Measured source micro-ops per job.
    bool parallel; //!< One worker per host CPU; otherwise one worker.
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        // The paper's Fig. 14 matrix: the sweep users wait for.
        {"fig14",
         {},
         {{"baseline", Mechanism::kBaseline, false},
          {"watchdog", Mechanism::kWatchdog, false},
          {"pa", Mechanism::kPa, false},
          {"aos", Mechanism::kAos, false},
          {"pa_aos", Mechanism::kPaAos, false}},
         100'000,
         true},
        // Small live sets, long windows: time goes to the timing loop.
        {"timed_loop",
         {"hmmer", "mcf", "sjeng", "milc"},
         {{"baseline", Mechanism::kBaseline, false},
          {"aos", Mechanism::kAos, false},
          {"pa_aos", Mechanism::kPaAos, false}},
         500'000,
         false},
        // Large live sets, short windows: time goes to the warm-up.
        {"warmup",
         {"omnetpp", "sphinx3", "astar"},
         {{"baseline", Mechanism::kBaseline, false},
          {"aos", Mechanism::kAos, false},
          {"pa_aos_belide", Mechanism::kPaAos, true}},
         20'000,
         false},
    };
    return specs;
}

struct Args
{
    std::string mode;
    std::string workload;
    u64 seed = 0;
    u64 window = 0; //!< 0: the workload's own window.
    std::string spansOut;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "aosbench: %s\nusage: aosbench plain|traced|count "
                 "--workload W --seed N [--window OPS] [--spans-out F]\n",
                 msg);
    std::exit(2);
}

u64
parseU64(const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage("expected an unsigned integer");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Args args;
    args.mode = argv[1];
    for (int i = 2; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("option without a value");
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = parseU64(value);
        else if (key == "--window")
            args.window = parseU64(value);
        else if (key == "--spans-out")
            args.spansOut = value;
        else
            usage("unknown option");
    }
    if (args.mode != "plain" && args.mode != "traced" &&
        args.mode != "count") {
        usage("mode must be plain, traced or count");
    }
    return args;
}

const WorkloadSpec &
findSpec(const std::string &name)
{
    for (const WorkloadSpec &spec : workloadSpecs()) {
        if (name == spec.name)
            return spec;
    }
    usage("unknown workload (fig14, timed_loop, warmup)");
}

std::vector<workloads::WorkloadProfile>
profilesOf(const WorkloadSpec &spec)
{
    if (spec.profiles.empty())
        return workloads::specProfiles();
    std::vector<workloads::WorkloadProfile> out;
    for (const std::string &name : spec.profiles)
        out.push_back(workloads::profileByName(name));
    return out;
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/** FNV-1a over every stat's name and exact value bits. */
u64
statDigest(const StatSet &stats)
{
    u64 h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const void *data, size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &[name, stat] : stats.scalars()) {
        mix(name.data(), name.size() + 1);
        const double v = stat.value();
        u64 bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(&bits, sizeof(bits));
    }
    return h;
}

u64
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<u64>(usage.ru_maxrss);
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Per-job trace state; index = job id, touched by one worker only. */
struct JobTrace
{
    SpanLog log;
    TraceCounts counts;
    u64 startNs = 0;
};

/** Per-layer metrics of one traced sweep, summed over its jobs. */
campaign::JsonValue
layerMetrics(const std::vector<JobTrace> &traces,
             const campaign::CampaignResult &result, double wait_ms)
{
    std::array<double, kNumLayers> self{};
    double root = 0;
    TraceCounts sum;
    u64 cycles = 0, committed = 0;
    mcu::McuStats mcu;
    bounds::BwbStats bwb;
    for (const JobTrace &t : traces) {
        const auto job_self = t.log.selfNs();
        for (size_t l = 0; l < kNumLayers; ++l)
            self[l] += job_self[l];
        root += t.log.rootNs();

        const TraceCounts &c = t.counts;
        sum.srcOps += c.srcOps;
        sum.generatedOps += c.generatedOps;
        sum.opsOut += c.opsOut;
        sum.pacOps += c.pacOps;
        sum.plan.chunksSeen += c.plan.chunksSeen;
        sum.plan.chunksElided += c.plan.chunksElided;
        sum.ffHbt.inserts += c.ffHbt.inserts;
        sum.ffHbt.insertFailures += c.ffHbt.insertFailures;
        sum.ffHbt.resizes += c.ffHbt.resizes;
        sum.ffHbt.migratedRows += c.ffHbt.migratedRows;
        sum.ffHbt.clears += c.ffHbt.clears;
        sum.ffMemAccesses += c.ffMemAccesses;
        for (auto [to, from] :
             {std::pair{&sum.ffL1d, &c.ffL1d}, std::pair{&sum.ffL1b, &c.ffL1b},
              std::pair{&sum.ffL2, &c.ffL2}}) {
            to->hits += from->hits;
            to->misses += from->misses;
        }
        sum.ffBranches += c.ffBranches;
        sum.lookups += c.lookups;
        sum.mispredicts += c.mispredicts;
    }
    double busy = 0;
    for (const campaign::JobResult &r : result.jobs) {
        busy += r.wallMs;
        if (!r.ok())
            continue;
        cycles += r.run.core.cycles;
        committed += r.run.core.committed;
        mcu.checkedOps += r.run.mcuStats.checkedOps;
        mcu.boundsLineLoads += r.run.mcuStats.boundsLineLoads;
        mcu.replays += r.run.mcuStats.replays;
        mcu.forwards += r.run.mcuStats.forwards;
        mcu.waysTouchedTotal += r.run.mcuStats.waysTouchedTotal;
        mcu.boundsFailures += r.run.mcuStats.boundsFailures;
        bwb.hits += r.run.bwb.hits;
        bwb.misses += r.run.bwb.misses;
    }
    const auto ms = [&](Layer l) {
        return self[static_cast<size_t>(l)] / 1e6;
    };
    const auto missRatio = [](const memsim::CacheStats &s) {
        return ratio(s.misses, s.hits + s.misses);
    };
    const double src_ops = sum.srcOps;

    campaign::JsonValue out = campaign::JsonValue::object();
    out.set("core.setup_ms", ms(Layer::kCoreSetup));
    out.set("workloads.ms", ms(Layer::kWorkloads));
    out.set("workloads.src_ops", src_ops);
    out.set("workloads.ns_per_op",
            ratio(self[static_cast<size_t>(Layer::kWorkloads)],
                  sum.generatedOps));
    out.set("compiler.ms", ms(Layer::kCompiler));
    out.set("compiler.ops_out", sum.opsOut);
    out.set("compiler.expansion", ratio(sum.opsOut, src_ops));
    out.set("compiler.pac_ops", sum.pacOps);
    out.set("analysis.ms", ms(Layer::kAnalysis));
    out.set("analysis.chunks_seen", sum.plan.chunksSeen);
    out.set("analysis.elide_ratio", sum.plan.elisionRate());
    out.set("bounds.ms", ms(Layer::kBounds));
    out.set("bounds.inserts", sum.ffHbt.inserts);
    out.set("bounds.insert_failures", sum.ffHbt.insertFailures);
    out.set("bounds.resizes", sum.ffHbt.resizes);
    out.set("bounds.migrated_rows", sum.ffHbt.migratedRows);
    out.set("bounds.clears", sum.ffHbt.clears);
    out.set("memsim.ms", ms(Layer::kMemsim));
    out.set("memsim.accesses", sum.ffMemAccesses);
    out.set("memsim.l1d_miss_ratio", missRatio(sum.ffL1d));
    out.set("memsim.l1b_miss_ratio", missRatio(sum.ffL1b));
    out.set("memsim.l2_miss_ratio", missRatio(sum.ffL2));
    out.set("cpu.train_ms", ms(Layer::kCpuTrain));
    out.set("cpu.train_branches", sum.ffBranches);
    out.set("cpu.run_ms", ms(Layer::kCpuRun));
    out.set("cpu.cycles", cycles);
    out.set("cpu.committed", committed);
    out.set("cpu.ns_per_cycle",
            ratio(self[static_cast<size_t>(Layer::kCpuRun)], cycles));
    out.set("cpu.mispredict_ratio", ratio(sum.mispredicts, sum.lookups));
    out.set("mcu.checked_ops", mcu.checkedOps);
    out.set("mcu.bounds_line_loads", mcu.boundsLineLoads);
    out.set("mcu.replays", mcu.replays);
    out.set("mcu.forward_ratio", ratio(mcu.forwards, mcu.checkedOps));
    out.set("mcu.ways_per_check", mcu.avgWaysPerCheck());
    out.set("mcu.bwb_hit_ratio", bwb.hitRate());
    out.set("mcu.bounds_failures", mcu.boundsFailures);
    out.set("campaign.busy_ms", busy);
    out.set("campaign.wait_ms", wait_ms);
    out.set("campaign.parallel_eff",
            ratio(busy, result.workers * result.totalWallMs));
    out.set("campaign.jobs", result.jobs.size());
    out.set("campaign.jobs_failed",
            result.jobs.size() - result.count(campaign::JobStatus::kOk));
    out.set("trace.unattributed_pct",
            100.0 * ratio(self[static_cast<size_t>(Layer::kJob)], root));
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<JobTrace> &traces)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "job\tlayer\tparent\tstart_ns\tend_ns\n";
    for (const JobTrace &t : traces) {
        for (const Span &s : t.log.spans()) {
            os << t.log.job() << '\t' << layerName(s.layer) << '\t'
               << (s.parent == Span::kNoParent ? -1
                                               : static_cast<i64>(s.parent))
               << '\t' << s.start << '\t' << s.end << '\n';
        }
    }
    return static_cast<bool>(os);
}

int
runCount(const WorkloadSpec &spec, u64 seed, u64 window)
{
    campaign::JsonValue jobs = campaign::JsonValue::array();
    std::vector<ir::MicroOp> buf(4096);
    for (const workloads::WorkloadProfile &profile : profilesOf(spec)) {
        workloads::SyntheticWorkload stream(profile, window, seed);
        u64 warm = 0, measured = 0;
        bool after_mark = false;
        for (size_t n; (n = stream.nextBatch(buf.data(), buf.size())) != 0;) {
            for (size_t i = 0; i < n; ++i) {
                if (buf[i].kind == ir::OpKind::kPhaseMark)
                    after_mark = true;
                else
                    ++(after_mark ? measured : warm);
            }
        }
        for (const Variant &v : spec.variants) {
            campaign::JsonValue job = campaign::JsonValue::object();
            job.set("name", profile.name + "/" + v.label);
            job.set("src_warm", warm);
            job.set("src_measured", measured);
            jobs.push(std::move(job));
        }
    }
    campaign::JsonValue out = campaign::JsonValue::object();
    out.set("mode", "count");
    out.set("workload", spec.name);
    out.set("seed", seed);
    out.set("window", window);
    out.set("jobs", std::move(jobs));
    std::printf("%s\n", out.str().c_str());
    return 0;
}

int
runSweep(const WorkloadSpec &spec, const Args &args, u64 window, u64 main_ns)
{
    const bool traced = args.mode == "traced";
    campaign::CampaignOptions copts;
    copts.name = std::string("perfbench_") + spec.name;
    copts.workers = spec.parallel ? hostCpus() : 1;
    campaign::Campaign sweep(copts);

    const std::vector<workloads::WorkloadProfile> profiles = profilesOf(spec);
    std::vector<JobTrace> traces;
    traces.reserve(profiles.size() * spec.variants.size());
    std::atomic<u64> first_sim{~0ull};
    for (const workloads::WorkloadProfile &profile : profiles) {
        for (const Variant &v : spec.variants) {
            const u32 id = static_cast<u32>(traces.size());
            traces.push_back(JobTrace{SpanLog(id), {}, 0});

            campaign::Job job;
            job.name = profile.name + "/" + v.label;
            job.profile = profile;
            job.mech = v.mech;
            job.ops = window;
            job.seed = args.seed;
            job.options.aosBoundsElision = v.boundsElision;
            // The options executeJob() would build for a plain job.
            baselines::SystemOptions options = job.options;
            options.mech = job.mech;
            options.measureOps = job.ops;
            options.seedSalt = job.seed;
            job.cancellableBody = [&traces, &first_sim, traced, id, profile,
                                   options](const CancelToken &cancel) {
                JobTrace &t = traces[id];
                t.startNs = monoNs();
                baselines::SystemOptions o = options;
                o.cancel = &cancel;
                if (traced)
                    return runTraced(profile, o, t.log, t.counts);
                core::AosSystem system(profile, o);
                const u64 now = monoNs();
                u64 seen = first_sim.load();
                while (now < seen &&
                       !first_sim.compare_exchange_weak(seen, now)) {
                }
                return system.run();
            };
            sweep.add(std::move(job));
        }
    }

    const u64 sweep_start = monoNs();
    const campaign::CampaignResult result = sweep.run();
    const u64 sweep_end = monoNs();

    double wait_ms = 0;
    campaign::JsonValue jobs = campaign::JsonValue::array();
    for (const campaign::JobResult &r : result.jobs) {
        const JobTrace &t = traces[r.id];
        if (t.startNs)
            wait_ms += static_cast<double>(t.startNs - sweep_start) / 1e6;
        char digest[20];
        std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                      statDigest(r.stats));
        campaign::JsonValue job = campaign::JsonValue::object();
        job.set("name", r.name);
        job.set("status", campaign::jobStatusName(r.status));
        job.set("wall_ms", r.wallMs);
        job.set("cycles", r.ok() ? r.run.core.cycles : 0);
        job.set("digest", r.ok() ? digest : "");
        if (traced) {
            job.set("traced_ms", t.log.rootNs() / 1e6);
            job.set("unattributed_ms",
                    t.log.selfNs()[static_cast<size_t>(Layer::kJob)] / 1e6);
        }
        jobs.push(std::move(job));
    }

    campaign::JsonValue out = campaign::JsonValue::object();
    out.set("mode", args.mode);
    out.set("workload", spec.name);
    out.set("seed", args.seed);
    out.set("window", window);
    out.set("workers", result.workers);
    out.set("t_main_ns", main_ns);
    out.set("t_first_sim_ns", first_sim.load());
    out.set("t_end_ns", sweep_end);
    out.set("rss_kb", peakRssKb());
    out.set("jobs", std::move(jobs));
    if (traced)
        out.set("layers", layerMetrics(traces, result, wait_ms));
    std::printf("%s\n", out.str().c_str());

    if (traced && !args.spansOut.empty() &&
        !writeSpans(args.spansOut, traces)) {
        std::fprintf(stderr, "aosbench: cannot write spans to %s\n",
                     args.spansOut.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const u64 main_ns = monoNs();
    setQuiet(true);
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec &spec = findSpec(args.workload);
    const u64 window = args.window ? args.window : spec.window;
    if (args.mode == "count")
        return runCount(spec, args.seed, window);
    return runSweep(spec, args, window, main_ns);
}
