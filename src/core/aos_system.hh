/**
 * @file
 * AosSystem — one full timing simulation: a workload profile run on the
 * Table IV machine under one of the five system configurations.
 *
 * The harness assembles the whole stack:
 *
 *   SyntheticWorkload -> instrument() -> OpCounter -> OoOCore
 *                             |                          |
 *                         PaContext               MCU <-> HBT/BWB
 *                                                            |
 *                                                      MemorySystem
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
#include "compiler/pass.hh"
#include "cpu/ooo_core.hh"
#include "mcu/memory_check_unit.hh"
#include "memsim/memory_system.hh"
#include "os/os_model.hh"
#include "pa/pa_context.hh"
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

    /** Flatten into a named stat set (gem5-style dump). */
    StatSet toStatSet() const;
};

/** Extensions layered on a mechanism's instrumentation; neither is in
 *  the paper. */
struct InstrumentOptions
{
    /**
     * Dataflow bounds-elision plan (DESIGN.md §11); not owned. Honoured
     * under AOS and PA+AOS, where AosBoundsElidePass follows the
     * lowering.
     */
    const analysis::dataflow::ElisionPlan *boundsPlan = nullptr;
    /** Autm elision (DESIGN.md §6.2); honoured under PA+AOS only. */
    bool autmElision = false;
};

/** One mechanism's pass chain and handles to its elision passes. */
struct Instrumentation
{
    std::unique_ptr<compiler::PassManager> passes;
    compiler::AosElidePass *elide = nullptr;         //!< Null when off.
    compiler::AosBoundsElidePass *belide = nullptr;  //!< Null when off.
};

/**
 * The one map from a mechanism to its instrumentation pipeline (paper
 * §IV-B): AOS-opt-pass then the backend pass for AOS, PA's pass after
 * them for PA+AOS, then bounds elision and autm elision in that order.
 * Baseline is an empty chain. @p pa signs AOS pointers (unused by the
 * other mechanisms) and, like @p source, must outlive the chain. A
 * caller that counts the op mix adds its OpCounter on top, after the
 * elision passes, so it counts what executes.
 */
Instrumentation instrument(ir::InstStream *source, baselines::Mechanism mech,
                           const pa::PaContext *pa,
                           const InstrumentOptions &options = {});

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
    std::unique_ptr<analysis::dataflow::ElisionPlan> _boundsPlan;
    Instrumentation _chain;
    compiler::OpCounter *_counter = nullptr;
    // Ops fast-forward over-pulled past the phase mark, re-served to
    // the measure loop (fastForward() splices it in front of _stream).
    std::unique_ptr<ir::CarryStream> _ffCarry;
    ir::InstStream *_stream = nullptr; //!< What the core consumes.
};

} // namespace aos::core

#endif // AOS_CORE_AOS_SYSTEM_HH
