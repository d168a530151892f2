#include "bounds/bounds_way_buffer.hh"

#include <algorithm>
#include <bit>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace aos::bounds {

BoundsWayBuffer::BoundsWayBuffer(unsigned entries) : _capacity(entries)
{
    fatal_if(entries == 0, "BWB needs at least one entry");
    _entries.resize(entries);
    // More buckets than entries, so hash chains stay short.
    const unsigned log2_buckets = std::bit_width(entries);
    _buckets.assign(size_t{1} << log2_buckets, kNil);
    _bucketShift = 32 - log2_buckets;
}

u32
BoundsWayBuffer::tagFor(Addr addr, u64 ahc, u64 pac)
{
    u64 window;
    switch (ahc) {
      case 1:
        window = bits(addr, 20, 7);
        break;
      case 2:
        window = bits(addr, 23, 10);
        break;
      default:
        window = bits(addr, 25, 12);
        break;
    }
    return static_cast<u32>(((pac & mask(16)) << 16) | (window << 2) |
                            (ahc & 0x3));
}

u32
BoundsWayBuffer::find(u32 tag) const
{
    u32 idx = _buckets[bucketOf(tag)];
    while (idx != kNil && _entries[idx].tag != tag)
        idx = _entries[idx].chain;
    return idx;
}

void
BoundsWayBuffer::unlinkRecency(u32 idx)
{
    Entry &entry = _entries[idx];
    (entry.newer == kNil ? _front : _entries[entry.newer].older) =
        entry.older;
    (entry.older == kNil ? _back : _entries[entry.older].newer) =
        entry.newer;
}

void
BoundsWayBuffer::pushFront(u32 idx)
{
    Entry &entry = _entries[idx];
    entry.newer = kNil;
    entry.older = _front;
    (_front == kNil ? _back : _entries[_front].newer) = idx;
    _front = idx;
}

void
BoundsWayBuffer::touch(u32 idx)
{
    if (idx == _front)
        return;
    unlinkRecency(idx);
    pushFront(idx);
}

unsigned
BoundsWayBuffer::lookup(Addr addr, u64 ahc, u64 pac)
{
    const u32 idx = find(tagFor(addr, ahc, pac));
    if (idx == kNil) {
        ++_stats.misses;
        return 0;
    }
    ++_stats.hits;
    touch(idx);
    return _entries[idx].way;
}

void
BoundsWayBuffer::update(Addr addr, u64 ahc, u64 pac, unsigned way)
{
    const u32 tag = tagFor(addr, ahc, pac);
    ++_stats.updates;
    u32 idx = find(tag);
    if (idx != kNil) {
        _entries[idx].way = way;
        touch(idx);
        return;
    }
    if (_used < _capacity) {
        idx = _used++;
    } else {
        // Evict the least recently used entry from its hash chain.
        idx = _back;
        unlinkRecency(idx);
        u32 *link = &_buckets[bucketOf(_entries[idx].tag)];
        while (*link != idx)
            link = &_entries[*link].chain;
        *link = _entries[idx].chain;
    }
    Entry &entry = _entries[idx];
    entry.tag = tag;
    entry.way = way;
    u32 &head = _buckets[bucketOf(tag)];
    entry.chain = head;
    head = idx;
    pushFront(idx);
}

void
BoundsWayBuffer::invalidate()
{
    _used = 0;
    std::fill(_buckets.begin(), _buckets.end(), kNil);
    _front = _back = kNil;
}

} // namespace aos::bounds
