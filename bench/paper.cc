/**
 * @file
 * The paper's evaluation grid, Figs. 14–18 and the §IX-A.1 resize
 * counts, as one campaign.
 *
 * The five figures are views over one set of cells, so the sweep
 * queues their union once: campaign::paperCells(), per SPEC profile the
 * Baseline and the four evaluated mechanisms (Figs. 14, 16, 18) plus
 * five AOS ablations (Figs. 15, 17). It then prints the tables in
 * figure order, each from the finished runs alone and each with the
 * paper's reference numbers under it.
 *
 * Each cell is a pure function of (profile, options, seed, window), so
 * the tables are bit-identical whatever AOS_CAMPAIGN_JOBS is set to
 * (see DESIGN.md §7).
 */

#include "bench/harness.hh"

#include <cmath>

#include "common/stats.hh"

using namespace aos;
using namespace aos::bench;
using namespace aos::campaign;
using baselines::Mechanism;

namespace {

/** The finished grid: one run per (profile, cell). */
struct Grid
{
    const std::vector<workloads::WorkloadProfile> &profiles;
    CampaignResult &result;

    JobResult &
    job(size_t p, unsigned cell) const
    {
        return result.jobs[p * kNumPaperCells + cell];
    }

    const core::RunResult &
    run(size_t p, unsigned cell) const
    {
        return job(p, cell).run;
    }

    double
    cycles(size_t p, unsigned cell) const
    {
        return static_cast<double>(run(p, cell).core.cycles);
    }
};

/**
 * The Figs. 14/18 table body: per profile, @p norm(profile, cell) for
 * the four evaluated mechanisms, then their geomeans. The caller
 * prints the paper row under it.
 */
template <typename Norm>
void
mechanismTable(const Grid &grid, Norm norm)
{
    std::printf("%-12s %10s %10s %10s %10s\n", "workload", "Watchdog",
                "PA", "AOS", "PA+AOS");
    rule(56);
    GeoAccum geo[kNumPaperMechs - 1];
    for (size_t p = 0; p < grid.profiles.size(); ++p) {
        std::printf("%-12s", grid.profiles[p].name.c_str());
        for (unsigned m = 1; m < kNumPaperMechs; ++m) {
            const double v = norm(p, m);
            geo[m - 1].add(v);
            std::printf(" %10.3f", v);
        }
        std::printf("\n");
    }
    rule(56);
    std::printf("%-12s", "geomean");
    for (const GeoAccum &g : geo)
        std::printf(" %10.3f", g.geomean());
}

/**
 * Fig. 14. Injects each cell's norm_exec_time for the reducers and the
 * JSON; returns false on a degenerate (non-finite or non-positive)
 * normalized time.
 */
bool
fig14(const Grid &grid, u64 ops)
{
    std::printf("Fig. 14: normalized execution time (lower is better)\n");
    std::printf("measured window: %llu source micro-ops per run "
                "(AOS_SIM_OPS to change)\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("Table IV machine: 2GHz 8-wide OoO, 192 ROB, 48 MCQ, "
                "L-TAGE, 64KB L1-D, 32KB L1-B, 8MB L2, 16-bit PAC, "
                "1-way 4MB initial HBT\n\n");
    bool sane = true;
    mechanismTable(grid, [&](size_t p, unsigned m) {
        const double norm = grid.cycles(p, m) / grid.cycles(p, kBaseline);
        // A degenerate run (zero/NaN cycles) must fail the harness, not
        // ship a silently-wrong figure.
        if (!std::isfinite(norm) || norm <= 0.0)
            sane = false;
        // Derived stat: reducers + the JSON trajectory read it.
        grid.job(p, m).stats.scalar("norm_exec_time") = norm;
        return norm;
    });
    std::printf("\n%-12s %10.3f %10.3f %10.3f %10s\n", "paper", 1.194,
                1.005, 1.084, "AOS+1.5%");
    return sane;
}

void
fig15(const Grid &grid, u64 ops)
{
    struct Column
    {
        const char *name;
        PaperCell cell;
    };
    const Column columns[] = {
        {ablationName(kNoOpt), kNoOpt}, {"L1-B", kL1BOnly},
        {"compress", kCompressOnly}, {"both", kAos},
        {"both-noBWB", kNoBwb},   {"both-noFWD", kNoFwd},
    };

    std::printf("Fig. 15: AOS normalized execution time by optimization "
                "(lower is better), %llu ops/run\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("%-12s", "workload");
    for (const Column &column : columns)
        std::printf(" %11s", column.name);
    std::printf(" %8s\n", "resizes");
    rule(96);

    GeoAccum geo[std::size(columns)];
    for (size_t p = 0; p < grid.profiles.size(); ++p) {
        std::printf("%-12s", grid.profiles[p].name.c_str());
        for (size_t i = 0; i < std::size(columns); ++i) {
            const double norm = grid.cycles(p, columns[i].cell) /
                                grid.cycles(p, kBaseline);
            geo[i].add(norm);
            std::printf(" %11.3f", norm);
        }
        std::printf(" %8llu\n", static_cast<unsigned long long>(
                                    grid.run(p, kAos).resizes));
    }
    rule(96);
    std::printf("%-12s", "geomean");
    for (const GeoAccum &g : geo)
        std::printf(" %11.3f", g.geomean());
    std::printf("\n\npaper: L1-B cuts ~10%% of the no-opt overhead, "
                "compression a further ~3%%; gcc/omnetpp gain 60%%/68%% "
                "with both; resizes: sphinx3=1, omnetpp=2\n");
}

void
fig16(const Grid &grid, u64 ops)
{
    const double scale = 1e9 / static_cast<double>(ops);

    std::printf("Fig. 16: instruction mix under PA+AOS, scaled to "
                "counts per 1B instructions (millions)\n\n");
    std::printf("%-12s %9s %9s %9s %9s %9s %9s %8s\n", "workload",
                "uLoad", "uStore", "sLoad", "sStore", "bnd*", "pac*",
                "signed%");
    rule(88);

    for (size_t p = 0; p < grid.profiles.size(); ++p) {
        const auto &mix = grid.run(p, kPaAos).mix;
        const double signed_frac =
            static_cast<double>(mix.signedLoads + mix.signedStores) /
            static_cast<double>(mix.signedLoads + mix.signedStores +
                                mix.unsignedLoads + mix.unsignedStores);
        std::printf("%-12s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %7.1f%%\n",
                    grid.profiles[p].name.c_str(),
                    mix.unsignedLoads * scale / 1e6,
                    mix.unsignedStores * scale / 1e6,
                    mix.signedLoads * scale / 1e6,
                    mix.signedStores * scale / 1e6,
                    mix.boundsOps * scale / 1e6, mix.pacOps * scale / 1e6,
                    100.0 * signed_frac);
    }
    std::printf("\npaper: signed accesses >80%% of all accesses for "
                "bzip2/gcc/hmmer/lbm; hmmer >99%%\n");
}

void
fig17(const Grid &grid, u64 ops)
{
    std::printf("Fig. 17: HBT accesses per checked op and BWB hit rate "
                "(AOS, %llu ops/run)\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("%-12s %12s %10s %14s %10s\n", "workload", "accesses/op",
                "BWB hit", "accesses(noBWB)", "forwards");
    rule(64);

    for (size_t p = 0; p < grid.profiles.size(); ++p) {
        const core::RunResult &r = grid.run(p, kAos);
        std::printf("%-12s %12.3f %9.1f%% %14.3f %10llu\n",
                    grid.profiles[p].name.c_str(),
                    r.mcuStats.avgWaysPerCheck(), 100.0 * r.bwb.hitRate(),
                    grid.run(p, kNoBwb).mcuStats.avgWaysPerCheck(),
                    static_cast<unsigned long long>(r.mcuStats.forwards));
    }
    std::printf("\npaper: omnetpp ~1.17 accesses/op (highest); most "
                "BWB hit rates >80%%\n");
}

void
fig18(const Grid &grid, u64 ops)
{
    std::printf("Fig. 18: normalized network traffic (lower is better), "
                "%llu ops/run\n\n",
                static_cast<unsigned long long>(ops));
    mechanismTable(grid, [&](size_t p, unsigned m) {
        const u64 base = grid.run(p, kBaseline).networkTraffic;
        return base ? static_cast<double>(grid.run(p, m).networkTraffic) /
                          static_cast<double>(base)
                    : 1.0;
    });
    std::printf("\n%-12s %10.2f %10s %10s %10.2f\n", "paper", 1.31, "~1",
                "<PA+AOS", 1.18);
}

} // namespace

int
main()
{
    setQuiet(true);
    const u64 ops = simOps();

    Campaign sweep(campaignOptions("paper"));
    for (Job &job : paperCells(ops))
        sweep.add(std::move(job));
    CampaignResult result = sweep.run();
    exitIfInterrupted(result);
    if (!result.allOk()) {
        std::fprintf(stderr, "paper: %u job(s) failed\n",
                     result.count(JobStatus::kFailed));
        return 1;
    }

    const Grid grid{workloads::specProfiles(), result};
    const bool sane = fig14(grid, ops);
    std::printf("\n");
    fig15(grid, ops);
    std::printf("\n");
    fig16(grid, ops);
    std::printf("\n");
    fig17(grid, ops);
    std::printf("\n");
    fig18(grid, ops);

    std::vector<Reducer> reducers;
    for (unsigned m = 1; m < kNumPaperMechs; ++m) {
        const Mechanism mech = kPaperMechs[m];
        // Only the Fig. 14 cells carry norm_exec_time, so the AOS
        // ablations drop out of the geomean.
        reducers.push_back(
            {std::string("geomean_norm_") + baselines::mechanismName(mech),
             ReduceOp::kGeomean, "norm_exec_time",
             [mech](const JobResult &job) {
                 return job.mech == mech;
             }});
    }
    computeReducers(result, reducers);
    const bool json_ok = emitCampaignJson(result, "paper");
    if (!sane)
        std::fprintf(stderr,
                     "paper: non-finite or non-positive normalized "
                     "execution time\n");
    return (sane && json_ok) ? 0 : 1;
}
