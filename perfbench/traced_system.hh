/**
 * @file
 * The benchmark's traced job runner.
 *
 * runTraced() performs one simulation job the way core::AosSystem does:
 * it builds the same public classes in the same order, fast-forwards
 * the warm-up functionally and runs the measured window on the OoO
 * core. Around every layer boundary it records a span (spans.hh), and
 * at the same boundaries it counts the work each layer did.
 *
 * Fast-forward handles each pulled block one layer at a time in
 * program order: all HBT writes of the block, then all functional
 * cache accesses, then all predictor training. That preserves results
 * because HBT state does not depend on memsim and TAGE depends on
 * neither. The benchmark checks the returned RunResult against
 * AosSystem's for every job, so the trace always describes the
 * program that was measured untraced.
 */

#ifndef AOS_PERFBENCH_TRACED_SYSTEM_HH
#define AOS_PERFBENCH_TRACED_SYSTEM_HH

#include "analysis/dataflow/elision_plan.hh"
#include "baselines/system_config.hh"
#include "bounds/hashed_bounds_table.hh"
#include "core/aos_system.hh"
#include "memsim/cache.hh"
#include "perfbench/spans.hh"
#include "workloads/workload_profile.hh"

namespace aos::perfbench {

/** Work done by each layer of one traced job. */
struct TraceCounts
{
    u64 srcOps = 0;         //!< Generator output for the simulation.
    u64 generatedOps = 0;   //!< All generator output, analysis copy too.
    u64 opsOut = 0;         //!< Instrumented ops out of the pipeline.
    u64 pacOps = 0;         //!< pac*/aut*/xpac* ops the passes emitted.

    analysis::dataflow::PlanStats plan;

    bounds::HbtStats ffHbt;      //!< HBT state at the end of warm-up.
    u64 ffMemAccesses = 0;       //!< Functional cache accesses.
    memsim::CacheStats ffL1d;    //!< Cache state at the end of warm-up.
    memsim::CacheStats ffL1b;
    memsim::CacheStats ffL2;
    u64 ffBranches = 0;          //!< Branches trained in warm-up.

    u64 lookups = 0;             //!< Measured-window TAGE lookups.
    u64 mispredicts = 0;
};

/**
 * Run one job like core::AosSystem(profile, options).run(), recording
 * spans in @p log and per-layer work in @p counts. Fault injection and
 * stream verification are not traced; options asking for them throw.
 */
core::RunResult runTraced(const workloads::WorkloadProfile &profile,
                          const baselines::SystemOptions &options,
                          SpanLog &log, TraceCounts &counts);

} // namespace aos::perfbench

#endif // AOS_PERFBENCH_TRACED_SYSTEM_HH
