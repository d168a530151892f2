#include "bounds/hashed_bounds_table.hh"

#include <algorithm>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace aos::bounds {

HashedBoundsTable::HashedBoundsTable(Addr base, unsigned pac_bits,
                                     unsigned initial_assoc,
                                     unsigned records_per_way,
                                     Addr next_base)
    : _rows(u64{1} << pac_bits), _pacBits(pac_bits),
      _recordsPerWay(records_per_way), _nextBase(next_base)
{
    fatal_if(!isPowerOf2(initial_assoc),
             "HBT associativity must be a power of two");
    fatal_if(records_per_way == 0 || records_per_way > kSlotsPerWay,
             "records per way must be in 1..%u", kSlotsPerWay);
    _primary.base = base;
    _primary.assoc = initial_assoc;
    _primary.recordsPerWay = records_per_way;
    _primary.slots.assign(_rows * initial_assoc * records_per_way, kEmpty);
}

unsigned
HashedBoundsTable::ways() const
{
    return _next ? _next->assoc : _primary.assoc;
}

const HashedBoundsTable::Table &
HashedBoundsTable::resolve(u64 pac, unsigned way, unsigned *local_way) const
{
    *local_way = way;
    if (!_next)
        return _primary;
    // Fig. 10: out-of-way accesses (way >= T1) and migrated rows
    // (pac < RowPtr) go to the new table; otherwise the old table.
    if (way >= _primary.assoc || pac < _rowPtr)
        return *_next;
    return _primary;
}

HashedBoundsTable::Table &
HashedBoundsTable::resolve(u64 pac, unsigned way, unsigned *local_way)
{
    const auto &self = *this;
    return const_cast<Table &>(self.resolve(pac, way, local_way));
}

Addr
HashedBoundsTable::wayAddr(u64 pac, unsigned way) const
{
    unsigned local;
    const Table &table = resolve(pac, way, &local);
    return table.wayAddr(pac, local, log2i(table.assoc));
}

WayLine
HashedBoundsTable::readWay(u64 pac, unsigned way) const
{
    unsigned local;
    const Table &table = resolve(pac, way, &local);
    return WayLine{table.wayAddr(pac, local, log2i(table.assoc)),
                   table.way(pac, local), table.recordsPerWay};
}

std::optional<unsigned>
HashedBoundsTable::insert(u64 pac, Compressed record)
{
    panic_if(record == kEmpty, "cannot insert the empty sentinel");
    const unsigned nways = ways();
    for (unsigned w = 0; w < nways; ++w) {
        unsigned local;
        Table &table = resolve(pac, w, &local);
        Compressed *line = table.way(pac, local);
        for (unsigned s = 0; s < table.recordsPerWay; ++s) {
            if (line[s] == kEmpty) {
                line[s] = record;
                ++_stats.inserts;
                ++_stats.occupied;
                _stats.maxOccupied =
                    std::max(_stats.maxOccupied, _stats.occupied);
                return w;
            }
        }
    }
    ++_stats.insertFailures;
    return std::nullopt;
}

std::optional<unsigned>
HashedBoundsTable::clear(u64 pac, Addr raw_addr)
{
    const unsigned nways = ways();
    for (unsigned w = 0; w < nways; ++w) {
        unsigned local;
        Table &table = resolve(pac, w, &local);
        Compressed *line = table.way(pac, local);
        for (unsigned s = 0; s < table.recordsPerWay; ++s) {
            if (line[s] != kEmpty && matchesBase(line[s], raw_addr)) {
                line[s] = kEmpty;
                ++_stats.clears;
                --_stats.occupied;
                return w;
            }
        }
    }
    ++_stats.clearFailures;
    return std::nullopt;
}

std::optional<unsigned>
HashedBoundsTable::check(u64 pac, Addr addr, unsigned start_way,
                         unsigned *ways_touched) const
{
    const unsigned nways = ways();
    unsigned touched = 0;
    // The FSM starts at the BWB-hinted way, then wraps through the
    // remaining ways (way iteration of SV-A2 with the SV-C shortcut).
    for (unsigned i = 0; i < nways; ++i) {
        const unsigned w = (start_way + i) % nways;
        const WayLine line = readWay(pac, w);
        ++touched;
        // Parallel check of the records in this line.
        for (unsigned s = 0; s < line.count; ++s) {
            if (inBounds(line.slots[s], addr)) {
                if (ways_touched)
                    *ways_touched = touched;
                return w;
            }
        }
    }
    if (ways_touched)
        *ways_touched = touched;
    return std::nullopt;
}

void
HashedBoundsTable::beginResize()
{
    if (_next.has_value())
        return;
    // Build the doubled table fully before touching any member state:
    // if the allocation throws (std::bad_alloc, or the onResizeAlloc
    // test hook), the table is left exactly as it was — still valid at
    // its old capacity, with further inserts to the full row failing
    // cleanly until a later resize attempt succeeds.
    Table next;
    next.base = _nextBase;
    next.assoc = _primary.assoc * 2;
    next.recordsPerWay = _recordsPerWay;
    const u64 slots = _rows * next.assoc * _recordsPerWay;
    if (onResizeAlloc)
        onResizeAlloc(slots);
    next.slots.assign(slots, kEmpty);
    // Reserve a disjoint address range for the table after this one
    // (way lines are 64 B regardless of record width).
    _nextBase += (_rows << (log2i(u64{next.assoc}) + 6)) * 2;
    _next = std::move(next);
    _rowPtr = 0;
    ++_stats.resizes;
}

bool
HashedBoundsTable::migrateRow()
{
    panic_if(!_next.has_value(), "no resize in progress");
    if (_rowPtr >= _rows) {
        // Migration complete: retire the old table.
        _primary = std::move(*_next);
        _next.reset();
        return true;
    }
    const u64 row = _rowPtr;
    for (unsigned w = 0; w < _primary.assoc; ++w) {
        const Compressed *src = _primary.way(row, w);
        Compressed *dst = _next->way(row, w);
        std::copy(src, src + _recordsPerWay, dst);
        std::fill(_primary.way(row, w),
                  _primary.way(row, w) + _recordsPerWay, kEmpty);
        // (source cleared only for hygiene; Fig. 10 routing already
        // directs migrated-row accesses to the new table)
    }
    ++_rowPtr;
    ++_stats.migratedRows;
    if (_rowPtr >= _rows) {
        _primary = std::move(*_next);
        _next.reset();
        return true;
    }
    return false;
}

void
HashedBoundsTable::finishResize()
{
    while (_next.has_value() && !migrateRow()) {
    }
}

unsigned
HashedBoundsTable::rowOccupancy(u64 pac) const
{
    unsigned count = 0;
    const unsigned nways = ways();
    for (unsigned w = 0; w < nways; ++w) {
        const WayLine line = readWay(pac, w);
        for (unsigned s = 0; s < line.count; ++s) {
            if (line.slots[s] != kEmpty)
                ++count;
        }
    }
    return count;
}

} // namespace aos::bounds
