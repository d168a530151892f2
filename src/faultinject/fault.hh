/**
 * @file
 * Fault catalog and outcome taxonomy for deterministic fault injection
 * (DESIGN.md §8).
 *
 * A fault is one seeded perturbation of simulated hardware state: a bit
 * flip in a signed pointer, a corrupted HBT record, a DRAM bit error in
 * a bounds-metadata line, or a micro-architectural hiccup in the MCU
 * (lost/duplicated way-line responses, a saturated MCQ). Every injected
 * fault must resolve to a structured FaultOutcome — the graceful-
 * degradation contract — never to an assert or undefined behaviour.
 *
 * The catalog mirrors the corruption channels of the AOS threat model:
 * pointer metadata (PAC/AHC bits), pointer address bits, and the bounds
 * metadata the MCU trusts (paper SV-A/B). Detection is attributed to
 * the mechanism that would catch it: autm authentication failure for
 * unsigned-where-signed-expected pointers (SIV-A), or a bounds-check /
 * bndclr failure against the hashed bounds table (SV-B).
 */

#ifndef AOS_FAULTINJECT_FAULT_HH
#define AOS_FAULTINJECT_FAULT_HH

#include "common/types.hh"

namespace aos::faultinject {

/** The typed fault catalog. */
enum class FaultType : u8
{
    kPtrPacFlip,     //!< Flip a PAC/AHC metadata bit of a signed pointer.
    kPtrVaFlip,      //!< Flip a VA bit of a pointer feeding a memory op.
    kHbtBoundsFlip,  //!< Flip a bit in one HBT record's bounds fields.
    kHbtRehome,      //!< PAC-field corruption: record lands in the wrong row.
    kHbtLineZap,     //!< A whole HBT way line reads back as zero.
    kDramLineFlip,   //!< Bit flip in a bounds-metadata DRAM line (memsim).
    kMcuDropResp,    //!< A way-line response is lost in flight (MCU).
    kMcuDupResp,     //!< A way-line response is delivered twice (MCU).
    kMcqStall,       //!< The MCQ reports full for a window of cycles.
    kCollisionStorm, //!< Burst of inserts hashing into a single HBT row.
    kNumTypes,
};

inline constexpr unsigned kNumFaultTypes =
    static_cast<unsigned>(FaultType::kNumTypes);

const char *faultTypeName(FaultType type);

/** Bitmask helpers for SystemOptions::faultTypes. */
constexpr u32
faultBit(FaultType type)
{
    return u32{1} << static_cast<unsigned>(type);
}

inline constexpr u32 kAllFaults = (u32{1} << kNumFaultTypes) - 1;

/** Pointer-level faults: meaningful under every mechanism. */
inline constexpr u32 kPointerFaults =
    faultBit(FaultType::kPtrPacFlip) | faultBit(FaultType::kPtrVaFlip);

/** Metadata-corruption classes: require a hashed bounds table. */
inline constexpr u32 kMetadataFaults =
    faultBit(FaultType::kHbtBoundsFlip) | faultBit(FaultType::kHbtRehome) |
    faultBit(FaultType::kHbtLineZap) | faultBit(FaultType::kDramLineFlip);

/** MCU perturbations: require a memory check unit. */
inline constexpr u32 kMcuFaults =
    faultBit(FaultType::kMcuDropResp) | faultBit(FaultType::kMcuDupResp) |
    faultBit(FaultType::kMcqStall) | faultBit(FaultType::kCollisionStorm);

/** What happened to one injected fault (DESIGN.md §8 taxonomy). */
enum class FaultOutcome : u8
{
    kPending,          //!< Injected, consequence not yet classified.
    kDetectedAutm,     //!< Caught by autm authentication (SIV-A).
    kDetectedBounds,   //!< Caught by a bounds-check/bndclr failure (SV-B).
    kTolerated,        //!< Absorbed with no behavioural change.
    kSilentCorruption, //!< Wrong behaviour that no mechanism catches.
    kSimulatorFault,   //!< The simulator itself misbehaved (must be 0).
};

const char *faultOutcomeName(FaultOutcome outcome);

/** Which protection machinery classification may assume. */
enum class ProtectionModel : u8
{
    kNone,     //!< Baseline: nothing checks anything.
    kWatchdog, //!< Prior-work bounds + UAF checking on raw addresses.
    kPa,       //!< Code-pointer integrity only: heap data unprotected.
    kAos,      //!< HBT bounds checking (no autm on pointer loads).
    kPaAos,    //!< AOS plus autm authentication of loaded pointers.
};

/** One injected fault and its resolution. */
struct FaultEvent
{
    FaultType type = FaultType::kPtrPacFlip;
    FaultOutcome outcome = FaultOutcome::kPending;
    u64 trigger = 0; //!< Trigger-point counter value (domain-specific).
    u64 detail = 0;  //!< Type-specific: bit index, record, storm size...
};

/** Aggregated fault-injection results (flattened into StatSet). */
struct FaultStats
{
    bool armed = false; //!< Injection was configured for the run.
    u64 scheduled = 0;  //!< Faults the plan scheduled.
    u64 injected = 0;   //!< Faults that actually fired.
    u64 detectedAutm = 0;
    u64 detectedBounds = 0;
    u64 tolerated = 0;
    u64 silent = 0;
    u64 simFault = 0;
    u64 perType[kNumFaultTypes] = {};
    u64 perTypeDetected[kNumFaultTypes] = {};

    u64 detected() const { return detectedAutm + detectedBounds; }

    /** Detection coverage over fired faults (0 when none fired). */
    double
    coverage() const
    {
        return injected ? static_cast<double>(detected()) /
                              static_cast<double>(injected)
                        : 0.0;
    }

    /** Tally one resolved event. */
    void note(const FaultEvent &event);
};

/**
 * Hooks the MCU consults when fault injection is armed. The injector
 * implements them; the MCU owns only a non-owning pointer, so the
 * default (nullptr) costs one branch per call site.
 */
struct McuFaultHooks
{
    virtual ~McuFaultHooks() = default;

    /** Called once at the top of every MCU tick. */
    virtual void onMcuTick(Tick now) { (void)now; }

    /** Return true to make the MCQ report full this cycle. */
    virtual bool stallQueue() { return false; }

    /** Return true to drop the way-line response of entry @p seq. */
    virtual bool
    dropWayResponse(u64 seq, unsigned way)
    {
        (void)seq;
        (void)way;
        return false;
    }

    /** Return true to deliver the response of entry @p seq twice. */
    virtual bool
    duplicateWayResponse(u64 seq, unsigned way)
    {
        (void)seq;
        (void)way;
        return false;
    }
};

} // namespace aos::faultinject

#endif // AOS_FAULTINJECT_FAULT_HH
