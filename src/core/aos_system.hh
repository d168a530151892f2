/**
 * @file
 * AosSystem — one full timing simulation: a workload profile run on the
 * Table IV machine under one of the five system configurations.
 *
 * The harness assembles the whole stack:
 *
 *   SyntheticWorkload -> instrumentation passes -> OpCounter -> OoOCore
 *                                   |                             |
 *                                PaContext                  MCU <-> HBT/BWB
 *                                                                 |
 *                                                           MemorySystem
 *
 * and mirrors the paper's methodology: the warmup phase (heap build-up)
 * is fast-forwarded functionally — bounds inserted, caches and branch
 * predictor warmed — and statistics are collected over the measured
 * window only.
 */

#ifndef AOS_CORE_AOS_SYSTEM_HH
#define AOS_CORE_AOS_SYSTEM_HH

#include <memory>
#include <ostream>

#include "analysis/dataflow/elision_plan.hh"
#include "baselines/system_config.hh"
#include "common/stats.hh"
#include "bounds/bounds_way_buffer.hh"
#include "compiler/aos_bounds_elide_pass.hh"
#include "compiler/aos_elide_pass.hh"
#include "compiler/op_counter.hh"
#include "cpu/ooo_core.hh"
#include "mcu/memory_check_unit.hh"
#include "memsim/memory_system.hh"
#include "os/os_model.hh"
#include "pa/pa_context.hh"
#include "staticcheck/stream_verifier.hh"
#include "workloads/synthetic_workload.hh"

namespace aos::core {

/** Everything a figure harness needs from one run. */
struct RunResult
{
    std::string workload;
    baselines::Mechanism mech = baselines::Mechanism::kBaseline;

    cpu::CoreStats core;
    u64 networkTraffic = 0;       //!< Bytes moved, measured phase only.
    u64 dramAccesses = 0;         //!< DRAM link accesses, measured phase.
    u64 dramWrites = 0;           //!< DRAM writes (LLC writebacks).
    ir::OpMixStats mix;           //!< Op mix, measured phase only.
    mcu::McuStats mcuStats;
    bounds::BwbStats bwb;
    bounds::HbtStats hbt;
    double branchMpki = 0;
    u64 violations = 0;           //!< AOS exceptions logged by the OS.
    u64 resizes = 0;

    compiler::ElideStats elide;   //!< autm elision (options.aosElision).

    // Bounds elision (options.aosBoundsElision, DESIGN.md §11).
    analysis::dataflow::PlanStats belidePlan; //!< Dataflow plan verdicts.
    compiler::BoundsElideStats belide;        //!< Ops actually dropped.

    // Stream-verifier findings (options.verifyStream).
    bool verified = false;        //!< The run was linted online.
    u64 verifyDiagnostics = 0;    //!< Total findings (0 = clean).
    u64 verifySuppressed = 0;     //!< Findings deduplicated or capped.
    std::map<staticcheck::RuleId, u64> verifyRuleCounts;
    std::vector<staticcheck::Diagnostic> verifyFindings;

    /** Flatten into a named stat set (gem5-style dump). */
    StatSet toStatSet() const;
};

class AosSystem
{
  public:
    AosSystem(const workloads::WorkloadProfile &profile,
              const baselines::SystemOptions &options);
    ~AosSystem();

    /** Fast-forward the warmup, run the measured window, report. */
    RunResult run();

    memsim::MemorySystem &memory() { return *_mem; }
    cpu::OoOCore &core() { return *_core; }

  private:
    void buildPipeline();
    void fastForward();

    workloads::WorkloadProfile _profile;
    baselines::SystemOptions _options;

    std::unique_ptr<pa::PaContext> _pa;
    std::unique_ptr<memsim::MemorySystem> _mem;
    std::unique_ptr<os::OsModel> _os;
    std::unique_ptr<bounds::BoundsWayBuffer> _bwb;
    std::unique_ptr<mcu::MemoryCheckUnit> _mcu;
    std::unique_ptr<cpu::OoOCore> _core;
    std::unique_ptr<workloads::SyntheticWorkload> _workload;
    std::unique_ptr<compiler::PassManager> _pipeline;
    compiler::OpCounter *_counter = nullptr;
    compiler::AosElidePass *_elide = nullptr;
    std::unique_ptr<analysis::dataflow::ElisionPlan> _boundsPlan;
    compiler::AosBoundsElidePass *_belide = nullptr;
    std::unique_ptr<staticcheck::StreamVerifier> _verifier;
    std::unique_ptr<staticcheck::VerifyingStream> _verified;
    // Ops fast-forward over-pulled past the phase mark, re-served to
    // the measure loop (fastForward() splices it in front of _stream).
    std::unique_ptr<ir::CarryStream> _ffCarry;
    ir::InstStream *_stream = nullptr; //!< What the core consumes.
};

} // namespace aos::core

#endif // AOS_CORE_AOS_SYSTEM_HH
