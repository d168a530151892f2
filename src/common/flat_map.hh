/**
 * @file
 * Open-addressed u64-keyed hash map for hot simulator paths.
 *
 * The instrumentation passes, the heap allocator and the dataflow
 * pre-pass all keep address-keyed side tables that are hit once or
 * more per micro-op. std::unordered_map spends most of its time in
 * node allocation, pointer chasing and rehash storms there (it was
 * ~40% of a throughput-bench profile); this map stores slots inline in
 * one power-of-two array with linear probing and backward-shift
 * deletion.
 *
 * Most keys are 16-byte-aligned chunk bases, and the allocator carves
 * them back to back, so a key's neighbours are inserted and looked up
 * together. idealIndex() therefore keeps one 4 KiB page's keys in one
 * short run of slots: a Fibonacci hash of the page picks where the
 * run starts, and the key's offset in the page picks the slot within
 * it. Consecutive bases then land within a few kilobytes of the table,
 * which the caches and the TLB still hold, instead of each costing a
 * miss on a random line of a multi-megabyte array. The key's low
 * nibble (always 0 for chunk bases) spreads otherwise dense keys, such
 * as consecutive integers, across sixteen strides of the table, so
 * they do not pile onto one slot.
 *
 * Semantics match the std::unordered_map subset the simulator uses:
 * find/operator[]/erase/count/clear/size. No iteration is provided on
 * purpose — hot-path tables must not grow order-dependent behavior.
 * Key 0 is valid (kept in a dedicated side slot).
 */

#ifndef AOS_COMMON_FLAT_MAP_HH
#define AOS_COMMON_FLAT_MAP_HH

#include <bit>
#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace aos {

template <typename V>
class FlatU64Map
{
  public:
    explicit FlatU64Map(size_t initial_capacity = 16)
    {
        rehash(tableFor(initial_capacity));
    }

    /** Value for @p key, default-constructing it if absent. */
    V &
    operator[](u64 key)
    {
        if (key == 0) {
            if (!_hasZero) {
                _hasZero = true;
                _zeroVal = V{};
                ++_size;
            }
            return _zeroVal;
        }
        if ((_size + 1) * 4 > _slots.size() * 3)
            rehash(_slots.size() * 2);
        size_t i = idealIndex(key, _mask + 1);
        while (_slots[i].key != 0 && _slots[i].key != key)
            i = (i + 1) & _mask;
        if (_slots[i].key == 0) {
            _slots[i].key = key;
            _slots[i].val = V{};
            ++_size;
        }
        return _slots[i].val;
    }

    /** Pointer to @p key's value, or nullptr when absent. */
    V *
    find(u64 key)
    {
        if (key == 0)
            return _hasZero ? &_zeroVal : nullptr;
        size_t i = idealIndex(key, _mask + 1);
        while (_slots[i].key != 0) {
            if (_slots[i].key == key)
                return &_slots[i].val;
            i = (i + 1) & _mask;
        }
        return nullptr;
    }

    const V *
    find(u64 key) const
    {
        return const_cast<FlatU64Map *>(this)->find(key);
    }

    size_t count(u64 key) const { return find(key) ? 1 : 0; }

    /** Remove @p key; returns 1 if it was present, 0 otherwise. */
    size_t
    erase(u64 key)
    {
        if (key == 0) {
            if (!_hasZero)
                return 0;
            _hasZero = false;
            --_size;
            return 1;
        }
        size_t i = idealIndex(key, _mask + 1);
        while (_slots[i].key != key) {
            if (_slots[i].key == 0)
                return 0;
            i = (i + 1) & _mask;
        }
        --_size;
        // Backward-shift deletion: pull displaced entries over the
        // hole so probe chains never see a tombstone.
        size_t j = i;
        for (;;) {
            _slots[i].key = 0;
            for (;;) {
                j = (j + 1) & _mask;
                if (_slots[j].key == 0)
                    return 1;
                const size_t k = idealIndex(_slots[j].key, _mask + 1);
                if (!cyclicBetween(i, j, k))
                    break;
            }
            _slots[i] = _slots[j];
            i = j;
        }
    }

    /** Drop all entries, keeping the table allocation. */
    void
    clear()
    {
        for (Slot &s : _slots)
            s.key = 0;
        _hasZero = false;
        _size = 0;
    }

    /** Pre-size the table for @p n entries without rehash churn. */
    void
    reserve(size_t n)
    {
        const size_t want = tableFor(n);
        if (want > _slots.size())
            rehash(want);
    }

    size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /**
     * The slot where @p key's probe starts in a table of @p cap slots
     * (a power of two, at least 16). A key's page selects a run of 256
     * slots by Fibonacci hashing; bits 4..11 (the 16-byte granule in
     * the page) pick the slot in the run, and bits 0..3 shift it by
     * multiples of cap / 16.
     */
    static size_t
    idealIndex(u64 key, size_t cap)
    {
        const size_t run = static_cast<size_t>(
            ((key >> 12) * 0x9e3779b97f4a7c15ull) >> 32);
        const size_t granule = (key >> 4) & 0xff;
        const size_t nibble = static_cast<size_t>(key & 0xf)
                              << (std::countr_zero(cap) - 4);
        return (run + granule + nibble) & (cap - 1);
    }

  private:
    struct Slot
    {
        u64 key = 0;
        V val{};
    };

    /** Table size (power of two) that holds @p n at <= 3/4 load. */
    static size_t
    tableFor(size_t n)
    {
        size_t cap = 16;
        while (cap * 3 < n * 4)
            cap *= 2;
        return cap;
    }

    /** True when @p k lies cyclically in (i, j]. */
    static bool
    cyclicBetween(size_t i, size_t j, size_t k)
    {
        return i <= j ? (i < k && k <= j) : (i < k || k <= j);
    }

    void
    rehash(size_t new_cap)
    {
        std::vector<Slot> old = std::move(_slots);
        _slots.assign(new_cap, Slot{});
        _mask = new_cap - 1;
        for (const Slot &s : old) {
            if (s.key == 0)
                continue;
            size_t i = idealIndex(s.key, new_cap);
            while (_slots[i].key != 0)
                i = (i + 1) & _mask;
            _slots[i] = s;
        }
    }

    std::vector<Slot> _slots;
    size_t _mask = 0;
    size_t _size = 0;
    bool _hasZero = false;
    V _zeroVal{};
};

} // namespace aos

#endif // AOS_COMMON_FLAT_MAP_HH
