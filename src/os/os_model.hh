/**
 * @file
 * OS support for AOS (paper SIV-D).
 *
 * The OS owns the per-process hashed bounds table: it maps the initial
 * table at process creation and services the new class of AOS
 * exceptions raised by the core:
 *
 *  - bndstr failure (row overflow): allocate a table with doubled
 *    associativity; the hardware table manager migrates rows while the
 *    process keeps running (Fig. 10), and the faulting bndstr retries;
 *  - bndclr failure: double free or free() of an invalid address;
 *  - load/store bounds failure: a spatial or temporal memory-safety
 *    violation.
 *
 * For violations the developer-installed handler either terminates the
 * process or records the error and resumes (the paper's two options);
 * OsModel implements both policies and keeps a violation log either
 * way.
 */

#ifndef AOS_OS_OS_MODEL_HH
#define AOS_OS_OS_MODEL_HH

#include <string>
#include <vector>

#include "bounds/hashed_bounds_table.hh"
#include "mcu/memory_check_unit.hh"

namespace aos::os {

/** What the exception handler does with a violation. */
enum class FaultPolicy
{
    kTerminate, //!< Kill the process on the first violation.
    kReport,    //!< Log the violation and resume execution.
};

/** One logged AOS exception. */
struct ViolationRecord
{
    mcu::FaultKind kind = mcu::FaultKind::kNone;
    Addr addr = 0;
    u64 pac = 0;
    u64 seq = 0;
};

/** Thrown under the kTerminate policy. */
class ProcessTerminated : public std::exception
{
  public:
    explicit ProcessTerminated(ViolationRecord record) : _record(record) {}

    const char *
    what() const noexcept override
    {
        return "process terminated by AOS exception";
    }

    const ViolationRecord &record() const { return _record; }

  private:
    ViolationRecord _record;
};

class OsModel
{
  public:
    /** Address where the OS maps the initial bounds table. */
    static constexpr Addr kHbtBase = 0x3000'0000'0000ull;

    /**
     * Violation records kept in memory (bounded ring). A
     * report-and-resume process under sustained attack logs one record
     * per violation; the ring caps that at a fixed footprint while
     * violationCount() keeps the true total.
     */
    static constexpr size_t kDefaultViolationCap = 1024;

    /**
     * Create the process context: maps the HBT at kHbtBase (Table IV:
     * initial 1-way, 4 MB for a 16-bit PAC).
     */
    explicit OsModel(unsigned pac_bits = 16, unsigned initial_assoc = 1,
                     unsigned records_per_way = bounds::kSlotsPerWay,
                     FaultPolicy policy = FaultPolicy::kReport);

    bounds::HashedBoundsTable &hbt() { return _hbt; }

    /**
     * AOS exception entry point, installable as the MCU's onFault
     * handler. Returns true when the faulting instruction should be
     * restarted (bndstr after a resize).
     */
    bool handleFault(mcu::FaultKind kind, const mcu::McqEntry &entry);

    FaultPolicy policy() const { return _policy; }
    void setPolicy(FaultPolicy policy) { _policy = policy; }

    /**
     * The retained violation records (at most kDefaultViolationCap of
     * them, oldest dropped first). Use violationCount() for the true
     * total.
     */
    const std::vector<ViolationRecord> &violations() const
    {
        return _violations;
    }

    /** Total violations ever logged, including dropped records. */
    u64 violationCount() const { return _violationCount; }

    /** Records discarded because the ring was full. */
    u64 violationsDropped() const { return _violationsDropped; }

    u64 resizesServiced() const { return _resizes; }

  private:
    void logViolation(const ViolationRecord &record);

    bounds::HashedBoundsTable _hbt;
    FaultPolicy _policy;
    // Bounded ring: grows to kDefaultViolationCap then overwrites the
    // oldest record (_ringHead is the next overwrite position).
    std::vector<ViolationRecord> _violations;
    size_t _ringHead = 0;
    u64 _violationCount = 0;
    u64 _violationsDropped = 0;
    u64 _resizes = 0;
};

} // namespace aos::os

#endif // AOS_OS_OS_MODEL_HH
