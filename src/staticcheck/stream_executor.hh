/**
 * @file
 * StreamExecutor — a functional interpreter for lowered (instrumented)
 * micro-op streams.
 *
 * It executes exactly the architectural side of the new instructions —
 * bndstr inserts bounds into a private HBT, bndclr clears them, signed
 * loads/stores undergo the MCU bounds check, autm authenticates the
 * pointer value — and tallies the detections, with no timing model.
 *
 * Its purpose is differential security testing: two streams that claim
 * to be equivalent (e.g. before and after AosElidePass) must produce
 * identical detection profiles on the same attacks. The elision
 * soundness tests in tests/security_test.cc and
 * tests/differential_test.cc are built on this.
 */

#ifndef AOS_STATICCHECK_STREAM_EXECUTOR_HH
#define AOS_STATICCHECK_STREAM_EXECUTOR_HH

#include "bounds/hashed_bounds_table.hh"
#include "ir/micro_op.hh"
#include "pa/pointer_layout.hh"

namespace aos::staticcheck {

/** Architectural event counts from one stream execution. */
struct ExecStats
{
    u64 ops = 0;
    u64 autms = 0;            //!< autm instructions executed.
    u64 authFailures = 0;     //!< autm on an unsigned pointer.
    u64 checkedAccesses = 0;  //!< Signed loads/stores bounds-checked.
    u64 uncheckedAccesses = 0;
    u64 boundsViolations = 0; //!< Checks that found no covering bounds.
    u64 clearFailures = 0;    //!< bndclr double/invalid-free detections.
    u64 bndstrs = 0;
    u64 bndclrs = 0;

    /** Total security detections (what an attack must trip). */
    u64
    detections() const
    {
        return authFailures + boundsViolations + clearFailures;
    }

    /** Same detection profile, category by category. */
    bool
    sameDetections(const ExecStats &other) const
    {
        return authFailures == other.authFailures &&
               boundsViolations == other.boundsViolations &&
               clearFailures == other.clearFailures;
    }
};

class StreamExecutor
{
  public:
    explicit StreamExecutor(pa::PointerLayout layout,
                            unsigned initial_assoc = 1);

    /** Execute one op. */
    void step(const ir::MicroOp &op);

    /** Drain and execute a whole stream. */
    ExecStats run(ir::InstStream &stream);

    /** Execute a materialized op vector. */
    ExecStats run(const std::vector<ir::MicroOp> &ops);

    const ExecStats &stats() const { return _stats; }
    const bounds::HashedBoundsTable &hbt() const { return _hbt; }

  private:
    pa::PointerLayout _layout;
    bounds::HashedBoundsTable _hbt;
    ExecStats _stats;
};

} // namespace aos::staticcheck

#endif // AOS_STATICCHECK_STREAM_EXECUTOR_HH
