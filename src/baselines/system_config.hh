/**
 * @file
 * The five evaluated system configurations (paper SVIII):
 *
 *   Baseline  — no security features;
 *   Watchdog  — prior hardware bounds + use-after-free checking via
 *               check/metadata micro-ops and 24-byte records;
 *   PA        — Liljestrand-style code- and data-pointer integrity;
 *   AOS       — this paper's bounds-checking mechanism;
 *   PA+AOS    — AOS integrated with pointer integrity (SVII-B).
 *
 * Plus the AOS optimization toggles ablated in Fig. 15 and the DESIGN.md
 * extras (BWB off, forwarding off).
 */

#ifndef AOS_BASELINES_SYSTEM_CONFIG_HH
#define AOS_BASELINES_SYSTEM_CONFIG_HH

#include <string>

#include "common/types.hh"

namespace aos {
class CancelToken;
}

namespace aos::baselines {

enum class Mechanism
{
    kBaseline,
    kWatchdog,
    kPa,
    kAos,
    kPaAos,
    kAsan, //!< ASan-style software checking (motivation, SI).
};

const char *mechanismName(Mechanism mech);

/** Full system configuration for one simulation run. */
struct SystemOptions
{
    Mechanism mech = Mechanism::kAos;

    // AOS optimization toggles (Fig. 15 + extra ablations).
    bool boundsCompression = true;
    bool useL1B = true;
    bool useBwb = true;
    bool boundsForwarding = true;

    unsigned pacBits = 16;       //!< Table IV.
    unsigned initialHbtAssoc = 1;//!< Table IV (empirical).

    u64 measureOps = 1'000'000;  //!< Committed micro-ops to simulate.

    /**
     * Extra workload-RNG entropy (src/campaign job seeds). The
     * synthetic stream is a pure function of (profile, seedSalt), so
     * two runs with equal options are bit-identical regardless of
     * which thread executes them.
     */
    u64 seedSalt = 0;

    // Static-analysis layer (DESIGN.md "Static analysis layer").
    bool aosElision = false;  //!< Elide provably-redundant autm ops.
    /**
     * Dataflow-driven bounds elision (DESIGN.md §11): drop the whole
     * pacma/bndstr/bndclr/autm quadruple for chunks the abstract
     * interpreter proves non-escaping with all accesses in bounds.
     */
    bool aosBoundsElision = false;

    /**
     * Cooperative-cancellation token polled by the simulation loops
     * (common/cancel.hh); null disables the checks. Not owned. Raises
     * CancelledException from inside run()/fastForward() — callers
     * (the campaign engine) record it as kCancelled.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Stream verification and fault injection left the simulator
     * (bench/elision_ablation lints its streams itself). Constants,
     * so nothing can set them; kept only because
     * perfbench/traced_system.cc still reads them.
     */
    static constexpr bool verifyStream = false;
    static constexpr u32 faultTypes = 0;

    bool usesAos() const
    {
        return mech == Mechanism::kAos || mech == Mechanism::kPaAos;
    }
    bool usesPa() const
    {
        return mech == Mechanism::kPa || mech == Mechanism::kPaAos;
    }
};

} // namespace aos::baselines

#endif // AOS_BASELINES_SYSTEM_CONFIG_HH
