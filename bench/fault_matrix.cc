/**
 * @file
 * Fault-injection matrix (DESIGN.md §8): fault type × mechanism grid
 * of deterministic seeded fault campaigns, reporting per-cell
 * detection coverage and enforcing the graceful-degradation contract.
 *
 * Each job runs one workload under one mechanism with one fault class
 * armed (SystemOptions::faultTypes); the injector classifies every
 * fired fault as detected (autm / bounds), tolerated, silent, or — the
 * thing this harness exists to forbid — a simulator fault. Fault
 * classes that target structures a configuration does not have (HBT
 * corruption under the baseline, say) are skipped, matching the
 * applicability filter inside AosSystem.
 *
 * Gates (nonzero exit):
 *   - any job fails or times out;
 *   - any injected fault resolves to simulator_fault;
 *   - AOS coverage falls below PA-only coverage on any
 *     metadata-corruption class (the paper's whole point: the HBT
 *     detects what pointer integrity alone cannot);
 *   - the campaign JSON cannot be written.
 *
 * Build & run:  ./build/bench/fault_matrix
 */

#include "bench/harness.hh"

#include "faultinject/fault.hh"

using namespace aos;
using namespace aos::bench;
using baselines::Mechanism;
using baselines::SystemOptions;
using faultinject::FaultType;

namespace {

constexpr Mechanism kMechs[] = {
    Mechanism::kBaseline, Mechanism::kWatchdog, Mechanism::kPa,
    Mechanism::kAos, Mechanism::kPaAos,
};
constexpr unsigned kNumMechs = sizeof(kMechs) / sizeof(kMechs[0]);

constexpr u64 kSeeds[] = {1, 2};

/** Fault classes that apply to a mechanism (mirrors AosSystem). */
bool
applies(FaultType type, Mechanism mech)
{
    const bool aos =
        mech == Mechanism::kAos || mech == Mechanism::kPaAos;
    const u32 bit = faultinject::faultBit(type);
    if (bit & (faultinject::kMetadataFaults | faultinject::kMcuFaults))
        return aos;
    return true;
}

struct Cell
{
    u64 injected = 0;
    u64 detected = 0;
    u64 silent = 0;
    u64 simFault = 0;
    bool present = false; //!< At least one job ran for this cell.

    double
    coverage() const
    {
        return injected ? static_cast<double>(detected) /
                              static_cast<double>(injected)
                        : 0.0;
    }
};

} // namespace

int
main()
{
    setQuiet(true);
    const u64 ops = envU64("AOS_SIM_OPS", 120'000);
    const workloads::WorkloadProfile &profile =
        workloads::profileByName("gcc");

    std::printf("Fault matrix: %u mechanisms x %u fault classes, "
                "%zu seeds, %llu ops/run (workload %s)\n\n",
                kNumMechs, faultinject::kNumFaultTypes,
                sizeof(kSeeds) / sizeof(kSeeds[0]),
                static_cast<unsigned long long>(ops),
                profile.name.c_str());

    campaign::Campaign sweep(campaignOptions("fault_matrix"));
    // Job order (and so ids) is a fixed function of the grid.
    std::vector<std::pair<unsigned, unsigned>> cells; // (type, mech)/job
    for (unsigned t = 0; t < faultinject::kNumFaultTypes; ++t) {
        for (unsigned m = 0; m < kNumMechs; ++m) {
            const auto type = static_cast<FaultType>(t);
            if (!applies(type, kMechs[m]))
                continue;
            for (const u64 seed : kSeeds) {
                campaign::Job job;
                job.name = std::string(faultinject::faultTypeName(type)) +
                           "/" +
                           baselines::mechanismName(kMechs[m]) + "/s" +
                           std::to_string(seed);
                job.profile = profile;
                job.mech = kMechs[m];
                job.seed = seed;
                job.ops = ops;
                job.options.faultTypes = faultinject::faultBit(type);
                job.options.faultCount = 3;
                job.options.faultSeed = 0x5eed'0000 + seed;
                sweep.add(std::move(job));
                cells.emplace_back(t, m);
            }
        }
    }

    campaign::CampaignResult result = sweep.run();
    exitIfInterrupted(result);
    if (!result.allOk()) {
        std::fprintf(stderr, "fault_matrix: %u job(s) failed\n",
                     result.count(campaign::JobStatus::kFailed));
        return 1;
    }

    Cell grid[faultinject::kNumFaultTypes][kNumMechs] = {};
    u64 total_injected = 0;
    u64 total_sim_faults = 0;
    for (size_t i = 0; i < result.jobs.size(); ++i) {
        const auto &stats = result.jobs[i].stats;
        const auto stat = [&](const char *key) {
            return static_cast<u64>(stats.has(key) ? stats.value(key) : 0);
        };
        Cell &cell = grid[cells[i].first][cells[i].second];
        cell.present = true;
        cell.injected += stat("fault_injected");
        cell.detected +=
            stat("fault_detected_autm") + stat("fault_detected_bounds");
        cell.silent += stat("fault_silent");
        cell.simFault += stat("fault_sim_fault");
        total_injected += stat("fault_injected");
        total_sim_faults += stat("fault_sim_fault");
    }

    // Per-cell detection coverage (detected / injected, "-" = class
    // not applicable, "none" = applicable but nothing fired).
    std::printf("%-18s", "fault class");
    for (unsigned m = 0; m < kNumMechs; ++m)
        std::printf(" %9s", baselines::mechanismName(kMechs[m]));
    std::printf("\n");
    rule(18 + 10 * kNumMechs);
    for (unsigned t = 0; t < faultinject::kNumFaultTypes; ++t) {
        std::printf("%-18s",
                    faultinject::faultTypeName(static_cast<FaultType>(t)));
        for (unsigned m = 0; m < kNumMechs; ++m) {
            const Cell &cell = grid[t][m];
            if (!cell.present)
                std::printf(" %9s", "-");
            else if (!cell.injected)
                std::printf(" %9s", "none");
            else
                std::printf(" %8.0f%%", 100.0 * cell.coverage());
        }
        std::printf("\n");
    }
    rule(18 + 10 * kNumMechs);
    std::printf("injected faults: %llu, simulator faults: %llu\n",
                static_cast<unsigned long long>(total_injected),
                static_cast<unsigned long long>(total_sim_faults));

    campaign::computeReducers(
        result, {{"total_injected", campaign::ReduceOp::kSum,
                  "fault_injected", nullptr},
                 {"total_detected_bounds", campaign::ReduceOp::kSum,
                  "fault_detected_bounds", nullptr},
                 {"total_detected_autm", campaign::ReduceOp::kSum,
                  "fault_detected_autm", nullptr},
                 {"total_silent", campaign::ReduceOp::kSum,
                  "fault_silent", nullptr},
                 {"total_sim_faults", campaign::ReduceOp::kSum,
                  "fault_sim_fault", nullptr}});
    if (!emitCampaignJson(result, "fault_matrix")) {
        std::fprintf(stderr, "fault_matrix: JSON emission failed\n");
        return 1;
    }

    bool ok = true;
    if (total_injected == 0) {
        std::fprintf(stderr, "GATE: no fault fired across the whole "
                             "matrix — the injector is dead\n");
        ok = false;
    }
    if (total_sim_faults != 0) {
        std::fprintf(stderr, "GATE: %llu simulator fault(s) — corruption "
                             "escaped the degradation contract\n",
                     static_cast<unsigned long long>(total_sim_faults));
        ok = false;
    }
    // AOS must detect metadata corruption at least as well as PA-only
    // (which cannot see it at all — its cells are not even populated).
    const unsigned pa = 2, aos = 3, pa_aos = 4;
    for (unsigned t = 0; t < faultinject::kNumFaultTypes; ++t) {
        const u32 bit = faultinject::faultBit(static_cast<FaultType>(t));
        if (!(bit & faultinject::kMetadataFaults))
            continue;
        const double pa_cov = grid[t][pa].coverage();
        for (const unsigned m : {aos, pa_aos}) {
            if (grid[t][m].coverage() + 1e-9 < pa_cov) {
                std::fprintf(
                    stderr,
                    "GATE: %s coverage %.2f under %s < PA's %.2f\n",
                    faultinject::faultTypeName(static_cast<FaultType>(t)),
                    grid[t][m].coverage(),
                    baselines::mechanismName(kMechs[m]), pa_cov);
                ok = false;
            }
        }
    }

    std::printf("\n%s\n",
                ok ? "Graceful-degradation audit passed."
                   : "Graceful-degradation audit FAILED.");
    return ok ? 0 : 1;
}
