#include "mcu/memory_check_unit.hh"

#include "common/logging.hh"

namespace aos::mcu {

namespace {

/** Smallest power of two >= @p n (ring capacity). */
u32
ringCapacity(u32 n)
{
    u32 cap = 1;
    while (cap < n)
        cap *= 2;
    return cap;
}

} // namespace

MemoryCheckUnit::MemoryCheckUnit(const McuConfig &config,
                                 const pa::PointerLayout &layout,
                                 bounds::HashedBoundsTable *hbt,
                                 bounds::BoundsWayBuffer *bwb,
                                 memsim::MemorySystem *mem)
    : _config(config), _layout(layout), _hbt(hbt), _bwb(bwb), _mem(mem)
{
    panic_if(!hbt, "MCU requires a hashed bounds table");
    panic_if(!mem, "MCU requires a memory system");
    const u32 cap = ringCapacity(std::max(config.mcqEntries, 1u));
    _slots.resize(cap);
    _wake.assign(cap, kNever);
    _slotMask = cap - 1;
    _bySeq.reserve(config.mcqEntries);
}

bool
MemoryCheckUnit::enqueue(ir::OpKind kind, Addr addr, u64 size, u64 seq,
                         Tick now)
{
    if (full())
        return false;

    const u32 slot = slotOf(_count);
    McqEntry &entry = _slots[slot];
    entry = McqEntry{};
    entry.valid = true;
    entry.seq = seq;
    entry.addr = addr;
    entry.rawAddr = _layout.strip(addr);
    entry.pac = _layout.pac(addr);
    entry.ahc = _layout.ahc(addr);
    entry.signedPtr = _layout.signed_(addr);
    entry.size = size;
    entry.readyAt = now;

    switch (kind) {
      case ir::OpKind::kLoad:
        entry.type = McqType::kLoadCheck;
        break;
      case ir::OpKind::kStore:
        entry.type = McqType::kStoreCheck;
        break;
      case ir::OpKind::kBndstr:
        entry.type = McqType::kBndstr;
        entry.bndData = bounds::compress(entry.rawAddr, size);
        break;
      case ir::OpKind::kBndclr:
        entry.type = McqType::kBndclr;
        break;
      default:
        panic("op kind %s cannot enter the MCQ", ir::opKindName(kind));
    }

    ++_stats.enqueued;
    _wake[slot] = now;
    _bySeq[seq] = slot;
    ++_count;
    return true;
}

McqEntry *
MemoryCheckUnit::find(u64 seq)
{
    const u32 *slot = _bySeq.find(seq);
    return slot ? &_slots[*slot] : nullptr;
}

const McqEntry *
MemoryCheckUnit::find(u64 seq) const
{
    return const_cast<MemoryCheckUnit *>(this)->find(seq);
}

void
MemoryCheckUnit::markCommitted(u64 seq)
{
    const u32 *slot = _bySeq.find(seq);
    if (!slot)
        return;
    _slots[*slot].committed = true;
    // Commit-gated work (kBndStr mutation) sleeps with wake = kNever;
    // re-arm the slot.
    _wake[*slot] = 0;
}

bool
MemoryCheckUnit::readyToRetire(u64 seq) const
{
    const McqEntry *entry = find(seq);
    if (!entry)
        return true;
    switch (entry->type) {
      case McqType::kLoadCheck:
      case McqType::kStoreCheck:
        return entry->state == McqState::kDone;
      case McqType::kBndstr:
      case McqType::kBndclr:
        // The occupancy check has passed; the table write happens
        // post-commit, so the ROB may retire the instruction.
        return entry->state == McqState::kBndStr ||
               entry->state == McqState::kDone;
    }
    return false;
}

bool
MemoryCheckUnit::faulted(u64 seq, FaultKind *kind) const
{
    const McqEntry *entry = find(seq);
    if (!entry || entry->state != McqState::kFail)
        return false;
    if (kind)
        *kind = entry->fault;
    return true;
}

bool
MemoryCheckUnit::tryForward(McqEntry &entry)
{
    if (!_config.boundsForwarding)
        return false;
    // Search older in-flight bndstr entries with the same PAC whose
    // bounds cover this access (SV-F2). Only entries that have passed
    // their occupancy check (BndStr, or Done with no fault) may
    // forward: an entry still in Init/OccChk can yet fail occupancy in
    // every way, and if the report-and-resume policy then completes it
    // without inserting bounds, an access forwarded against it would
    // have passed a check against bounds that never reached the table.
    for (u32 i = 0; i < _count; ++i) {
        const McqEntry &other = _slots[slotOf(i)];
        if (other.seq >= entry.seq)
            break;
        if (other.type != McqType::kBndstr || other.pac != entry.pac)
            continue;
        if (other.fault != FaultKind::kNone ||
            (other.state != McqState::kBndStr &&
             other.state != McqState::kDone)) {
            continue;
        }
        if (bounds::inBounds(other.bndData, entry.rawAddr)) {
            entry.forwarded = true;
            ++_stats.forwards;
            return true;
        }
    }
    return false;
}

bool
MemoryCheckUnit::hasPendingOlderBndstr(const McqEntry &entry) const
{
    for (u32 i = 0; i < _count; ++i) {
        const McqEntry &other = _slots[slotOf(i)];
        if (other.seq >= entry.seq)
            break;
        if (other.type != McqType::kBndstr || other.pac != entry.pac ||
            other.fault != FaultKind::kNone) {
            continue;
        }
        if (other.state == McqState::kInit ||
            other.state == McqState::kOccChk ||
            other.state == McqState::kIncCnt) {
            return true;
        }
    }
    return false;
}

void
MemoryCheckUnit::startWayAccess(McqEntry &entry, Tick now)
{
    entry.bndAddr = _hbt->wayAddr(entry.pac, entry.way);
    const Cycles latency = _mem->boundsAccess(entry.bndAddr, false);
    entry.readyAt = now + latency;
    ++entry.waysTouched;
    ++_stats.boundsLineLoads;
}

void
MemoryCheckUnit::finishCheck(McqEntry &entry, bool found,
                             unsigned found_way)
{
    if (found) {
        entry.way = found_way;
        entry.state = McqState::kDone;
    } else {
        entry.state = McqState::kIncCnt;
    }
}

void
MemoryCheckUnit::replayYounger(const McqEntry &from)
{
    for (u32 i = 0; i < _count; ++i) {
        const u32 slot = slotOf(i);
        McqEntry &entry = _slots[slot];
        if (entry.seq <= from.seq || entry.pac != from.pac)
            continue;
        if (entry.state == McqState::kDone)
            continue;
        // Keep the entry's readyAt: a way access already in flight
        // still occupies its port, so the replayed walk starts once
        // that access would have returned.
        entry.resetForRetry(entry.readyAt);
        _wake[slot] = entry.readyAt;
        ++_stats.replays;
    }
}

void
MemoryCheckUnit::commitMutation(McqEntry &entry, Tick now)
{
    if (entry.type == McqType::kBndstr) {
        const auto way = _hbt->insert(entry.pac, entry.bndData);
        if (!way) {
            entry.state = McqState::kFail;
            entry.fault = FaultKind::kStoreOverflow;
            ++_stats.storeOverflows;
            return;
        }
        entry.way = *way;
    } else {
        const auto way = _hbt->clear(entry.pac, entry.rawAddr);
        if (!way) {
            // Raced with an older clear of the same bounds: the second
            // free of the pair is the faulting one.
            entry.state = McqState::kFail;
            entry.fault = FaultKind::kClearFailure;
            ++_stats.clearFailures;
            return;
        }
        entry.way = *way;
    }
    _mem->boundsAccess(_hbt->wayAddr(entry.pac, entry.way), true);
    ++_stats.boundsStores;
    replayYounger(entry);
    entry.state = McqState::kDone;
    entry.readyAt = now;
}

void
MemoryCheckUnit::stepEntry(McqEntry &entry, Tick now, unsigned &ports)
{
    if (entry.readyAt > now)
        return;

    switch (entry.state) {
      case McqState::kInit:
        if (entry.type == McqType::kLoadCheck ||
            entry.type == McqType::kStoreCheck) {
            if (!entry.signedPtr) {
                entry.state = McqState::kDone;
                if (!entry.counted) {
                    entry.counted = true;
                    ++_stats.uncheckedOps;
                }
                return;
            }
            if (!entry.counted) {
                entry.counted = true;
                ++_stats.checkedOps;
            }
            if (tryForward(entry)) {
                entry.state = McqState::kDone;
                return;
            }
            entry.way = (_config.useBwb && _bwb)
                            ? _bwb->lookup(entry.rawAddr, entry.ahc,
                                           entry.pac) %
                                  _hbt->ways()
                            : 0;
            entry.count = 0;
            entry.state = McqState::kBndChk;
            entry.started = false;
        } else {
            // bndstr always retrieves way 0 first (SV-C).
            entry.way = 0;
            entry.count = 0;
            entry.state = McqState::kOccChk;
            entry.started = false;
        }
        break;

      case McqState::kOccChk: {
        if (!entry.started) {
            // Acquire a bounds port and issue the way-line load.
            if (ports > 0) {
                --ports;
                startWayAccess(entry, now);
                entry.started = true;
            } else {
                entry.readyAt = now + 1;
            }
            break;
        }
        entry.started = false;
        const bounds::WayLine line = _hbt->readWay(entry.pac, entry.way);
        bool ok = false;
        if (entry.type == McqType::kBndstr) {
            for (unsigned s = 0; s < line.count; ++s) {
                if (line.slots[s] == bounds::kEmpty) {
                    ok = true;
                    break;
                }
            }
        } else {
            for (unsigned s = 0; s < line.count; ++s) {
                if (bounds::matchesBase(line.slots[s], entry.rawAddr)) {
                    ok = true;
                    break;
                }
            }
        }
        entry.state = ok ? McqState::kBndStr : McqState::kIncCnt;
        break;
      }

      case McqState::kBndChk: {
        if (!entry.started) {
            if (ports > 0) {
                --ports;
                startWayAccess(entry, now);
                entry.started = true;
            } else {
                entry.readyAt = now + 1;
            }
            break;
        }
        entry.started = false;
        const bounds::WayLine line = _hbt->readWay(entry.pac, entry.way);
        bool found = false;
        for (unsigned s = 0; s < line.count; ++s) {
            if (bounds::inBounds(line.slots[s], entry.rawAddr)) {
                found = true;
                break;
            }
        }
        finishCheck(entry, found, entry.way);
        break;
      }

      case McqState::kIncCnt:
        ++entry.count;
        if (entry.count >= _hbt->ways()) {
            // The table walk found nothing. Before declaring a
            // violation, consult forwarding once more: an older bndstr
            // may have passed occupancy while this walk was in flight
            // (its bounds are not in the table yet — the insert is
            // post-commit — which is exactly why the walk missed).
            if (entry.type == McqType::kLoadCheck ||
                entry.type == McqType::kStoreCheck) {
                if (tryForward(entry)) {
                    entry.state = McqState::kDone;
                    break;
                }
                if (_config.boundsForwarding &&
                    hasPendingOlderBndstr(entry)) {
                    // An older same-PAC bndstr has not resolved its
                    // occupancy check yet, so this access cannot be
                    // adjudicated: its bounds may be exactly the ones
                    // the walk missed. Wait for the bndstr to pass
                    // occupancy (then forward) or fail (then the miss
                    // stands) instead of raising a premature fault.
                    entry.readyAt = now + 1;
                    break;
                }
            }
            entry.state = McqState::kFail;
            if (entry.type == McqType::kBndstr) {
                entry.fault = FaultKind::kStoreOverflow;
                ++_stats.storeOverflows;
            } else if (entry.type == McqType::kBndclr) {
                entry.fault = FaultKind::kClearFailure;
                ++_stats.clearFailures;
            } else {
                entry.fault = FaultKind::kBoundsViolation;
                ++_stats.boundsFailures;
            }
        } else {
            entry.way = (entry.way + 1) % _hbt->ways();
            entry.state = (entry.type == McqType::kBndstr ||
                           entry.type == McqType::kBndclr)
                              ? McqState::kOccChk
                              : McqState::kBndChk;
            entry.started = false;
        }
        break;

      case McqState::kBndStr:
        if (entry.committed)
            commitMutation(entry, now);
        break;

      case McqState::kFail:
      case McqState::kDone:
        break;
    }
}

void
MemoryCheckUnit::tick(Tick now)
{
    // The micro-architectural table manager migrates rows in the
    // background during a gradual resize (SV-F3).
    if (_hbt->resizing()) {
        for (unsigned i = 0; i < _config.migrationRowsPerCycle; ++i) {
            if (_config.chargeMigrationTraffic &&
                _hbt->migrationRow() < _hbt->rows()) {
                // One row: read old ways, write them to the new table.
                const u64 row = _hbt->migrationRow();
                const unsigned assoc = _hbt->primaryAssoc();
                for (unsigned w = 0; w < assoc; ++w)
                    _mem->boundsAccess(_hbt->wayAddr(row, w), false);
            }
            if (_hbt->migrateRow()) {
                if (_bwb)
                    _bwb->invalidate();
                break;
            }
        }
    }

    unsigned ports = _config.boundsPortsPerCycle;
    for (u32 i = 0; i < _count; ++i) {
        const u32 slot = slotOf(i);
        if (_wake[slot] > now)
            continue;
        McqEntry &entry = _slots[slot];
        stepEntry(entry, now, ports);
        _wake[slot] = wakeOf(entry);
    }

    // Head-of-queue fault handling: raise the AOS exception.
    if (_count > 0 && _slots[_headSlot].state == McqState::kFail) {
        McqEntry &head = _slots[_headSlot];
        bool handled = false;
        if (onFault) {
            handled = onFault(head.fault, head);
        } else if (head.fault == FaultKind::kStoreOverflow) {
            // Default OS policy: resize the HBT and retry (SIV-D).
            if (!_hbt->resizing())
                _hbt->beginResize();
            handled = true;
        }
        if (handled) {
            head.resetForRetry(now + 1);
            _wake[_headSlot] = head.readyAt;
        } else {
            // Report-and-resume policy: the violation was counted when
            // the entry entered Fail; complete the instruction.
            head.state = McqState::kDone;
            _wake[_headSlot] = kNever;
        }
    }
}

void
MemoryCheckUnit::drainRetired()
{
    while (_count > 0) {
        McqEntry &head = _slots[_headSlot];
        if (head.state != McqState::kDone || !head.committed)
            break;
        if (_config.useBwb && _bwb && head.signedPtr && !head.forwarded &&
            (head.type == McqType::kLoadCheck ||
             head.type == McqType::kStoreCheck)) {
            _bwb->update(head.rawAddr, head.ahc, head.pac, head.way);
        }
        _stats.waysTouchedTotal += head.waysTouched;
        head.valid = false;
        _wake[_headSlot] = kNever;
        _bySeq.erase(head.seq);
        _headSlot = (_headSlot + 1) & _slotMask;
        --_count;
    }
}

void
MemoryCheckUnit::restartHead()
{
    if (_count == 0)
        return;
    // readyAt 0: the retried walk may issue on the next tick, exactly
    // as the (stale, past) readyAt the old code left behind allowed.
    _slots[_headSlot].resetForRetry(0);
    _wake[_headSlot] = 0;
}

} // namespace aos::mcu
