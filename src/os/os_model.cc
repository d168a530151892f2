#include "os/os_model.hh"

namespace aos::os {

OsModel::OsModel(unsigned pac_bits, unsigned initial_assoc,
                 unsigned records_per_way, FaultPolicy policy)
    : _hbt(kHbtBase, pac_bits, initial_assoc, records_per_way),
      _policy(policy)
{
}

void
OsModel::logViolation(const ViolationRecord &record)
{
    ++_violationCount;
    if (_violations.size() < kDefaultViolationCap) {
        _violations.push_back(record);
        return;
    }
    ++_violationsDropped;
    _violations[_ringHead] = record;
    _ringHead = (_ringHead + 1) % kDefaultViolationCap;
}

bool
OsModel::handleFault(mcu::FaultKind kind, const mcu::McqEntry &entry)
{
    if (kind == mcu::FaultKind::kStoreOverflow) {
        // Insufficient row capacity: allocate a larger table and let
        // the table manager migrate in the background; the bndstr
        // retries against the resized table.
        if (!_hbt.resizing()) {
            _hbt.beginResize();
            ++_resizes;
        }
        return true;
    }

    const ViolationRecord record{kind, entry.addr, entry.pac, entry.seq};
    logViolation(record);
    if (_policy == FaultPolicy::kTerminate)
        throw ProcessTerminated(record);
    return false; // report and resume
}

} // namespace aos::os
