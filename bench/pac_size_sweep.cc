/**
 * @file
 * Ablation (DESIGN.md): PAC width sweep, 11..32 bits.
 *
 * The paper notes the PAC size ranges from 11 to 32 bits depending on
 * the virtual-address scheme and evaluates 16 bits. This harness shows
 * the security/capacity/performance triangle across the architected
 * range:
 *
 *  - forging resistance (attempts for a 50% guess, SVII-E);
 *  - HBT geometry: rows, initial size, predicted steady-state
 *    associativity for a 200K-object live set;
 *  - measured AOS overhead on hmmer for the widths that are cheap to
 *    simulate (the table shrinks/grows as 2^bits).
 */

#include "analysis/pac_analysis.hh"
#include "bench/harness.hh"

using namespace aos;
using namespace aos::bench;
using baselines::Mechanism;

int
main()
{
    setQuiet(true);
    const u64 ops = envU64("AOS_SIM_OPS", 300'000);

    std::printf("PAC width sweep (paper evaluates 16 bits; architected "
                "range 11..32)\n\n");
    std::printf("%5s %16s %10s %12s %12s %14s\n", "bits",
                "50%-guess tries", "HBT rows", "initial MB",
                "assoc@200K", "escape prob");
    rule(76);
    for (unsigned bits : {11u, 12u, 13u, 14u, 16u, 20u, 24u, 28u, 32u}) {
        const u64 rows = u64{1} << bits;
        std::printf("%5u %16llu %10llu %12.2f %12u %14.2e\n", bits,
                    static_cast<unsigned long long>(
                        analysis::attemptsForGuessProbability(bits, 0.5)),
                    static_cast<unsigned long long>(rows),
                    static_cast<double>(rows * 64) / (1 << 20),
                    analysis::predictedAssociativity(200000, bits, 8),
                    analysis::wildPointerEscapeProb(200000, bits, 1024));
    }

    std::printf("\nmeasured AOS overhead (sphinx3, 200K live objects, "
                "%llu ops) by PAC width:\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("%5s %12s %12s %12s\n", "bits", "norm. time",
                "HBT resizes", "ways/check");
    rule(46);
    const auto &profile = workloads::profileByName("sphinx3");
    const unsigned widths[] = {11u, 13u, 16u, 20u};
    campaign::Campaign sweep(campaignOptions("pac_size_sweep"));
    sweep.add({.profile = profile, .mech = Mechanism::kBaseline, .ops = ops});
    for (const unsigned bits : widths)
        sweep.add({.name = csprintf("sphinx3/aos/pac%u", bits),
                   .profile = profile, .mech = Mechanism::kAos,
                   .options = {.pacBits = bits}, .ops = ops});
    const campaign::CampaignResult result = sweep.run();
    exitIfInterrupted(result);
    if (!result.allOk()) {
        std::fprintf(stderr, "pac_size_sweep: %u job(s) failed\n",
                     result.count(campaign::JobStatus::kFailed));
        return 1;
    }
    const core::RunResult &baseline = result.jobs[0].run;
    for (size_t i = 0; i < std::size(widths); ++i) {
        const core::RunResult &r = result.jobs[1 + i].run;
        std::printf("%5u %12.3f %12llu %12.3f\n", widths[i],
                    static_cast<double>(r.core.cycles) /
                        static_cast<double>(baseline.core.cycles),
                    static_cast<unsigned long long>(r.resizes),
                    r.mcuStats.avgWaysPerCheck());
    }
    std::printf("\nnarrow PACs trade forging resistance and row "
                "pressure (more collisions, more resizes) for a "
                "smaller table; 16 bits sits at the knee.\n");
    return 0;
}
