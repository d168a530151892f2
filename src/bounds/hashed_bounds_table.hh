/**
 * @file
 * The hashed bounds table (HBT) with gradual resizing (paper SV-B,
 * SV-F3, Fig. 10).
 *
 * The HBT is a per-process table of compressed bounds indexed by PAC:
 * 2^pacBits rows, each row a set of ways, each way one 64-byte line
 * holding eight 8-byte bounds records. Addressing follows Eq. 1/2:
 *
 *   RowOffset = PAC << (log2(assoc) + 6)
 *   BndAddr   = BND_BASE + RowOffset + (Way << 6)
 *
 * When an insertion finds every slot of a row occupied, the OS
 * allocates a new table with doubled associativity and a
 * micro-architectural table manager migrates rows one at a time while
 * the process keeps running. During migration, accesses resolve to the
 * old or the new table per Fig. 10: way >= oldAssoc or row < RowPtr go
 * to the new table, everything else to the old one.
 *
 * The table's backing storage lives at simulated addresses (the
 * returned way addresses are what the MCU sends to the cache
 * hierarchy), but the contents are held host-side in this object.
 */

#ifndef AOS_BOUNDS_HASHED_BOUNDS_TABLE_HH
#define AOS_BOUNDS_HASHED_BOUNDS_TABLE_HH

#include <functional>
#include <optional>
#include <vector>

#include "bounds/compression.hh"
#include "common/types.hh"

namespace aos::bounds {

/** Records per 64-byte way line with 8-byte compressed bounds. */
inline constexpr unsigned kSlotsPerWay = 8;

/** Records per way line with 16-byte uncompressed bounds (ablation). */
inline constexpr unsigned kWideSlotsPerWay = 4;

/** Statistics of table behaviour (feeds Fig. 17 and SIX-A.1). */
struct HbtStats
{
    u64 inserts = 0;
    u64 insertFailures = 0; //!< Row-full events that forced a resize.
    u64 clears = 0;
    u64 clearFailures = 0;  //!< bndclr that found no matching bounds.
    u64 resizes = 0;
    u64 migratedRows = 0;
    u64 occupied = 0;       //!< Currently live records.
    u64 maxOccupied = 0;
};

/** One row/way line view: the records at a way address. */
struct WayLine
{
    Addr addr = 0;                  //!< Simulated 64-byte-aligned address.
    const Compressed *slots = nullptr; //!< count records.
    unsigned count = 0;             //!< Records in this line.
};

class HashedBoundsTable
{
  public:
    /**
     * @param base Simulated base address of the initial table.
     * @param pac_bits PAC width (rows = 2^pac_bits).
     * @param initial_assoc Initial number of ways (paper: 1).
     * @param records_per_way Bounds records per 64-byte way line: 8
     *        with compression (default), 4 with 16-byte bounds (the
     *        Fig. 15 no-compression ablation).
     * @param next_base Where the OS maps each successive resized table;
     *        consecutive tables get disjoint address ranges.
     */
    HashedBoundsTable(Addr base, unsigned pac_bits,
                      unsigned initial_assoc = 1,
                      unsigned records_per_way = kSlotsPerWay,
                      Addr next_base = 0x3800'0000'0000ull);

    /** Records per way line (8 compressed / 4 wide). */
    unsigned recordsPerWay() const { return _recordsPerWay; }

    /** Total ways currently addressable (new table's assoc if resizing). */
    unsigned ways() const;

    /** Associativity of the committed (old) table. */
    unsigned primaryAssoc() const { return _primary.assoc; }

    bool resizing() const { return _next.has_value(); }

    /** Simulated address of (pac, way), resolved per Fig. 10. */
    Addr wayAddr(u64 pac, unsigned way) const;

    /** Read the eight records of (pac, way), resolved per Fig. 10. */
    WayLine readWay(u64 pac, unsigned way) const;

    /**
     * Occupancy-check + store for bndstr: scan ways from 0 looking for
     * an empty slot; on success write the record and return the way
     * used. Returns nullopt when the whole row is full (bounds-store
     * failure -> AOS exception -> OS resize).
     */
    std::optional<unsigned> insert(u64 pac, Compressed record);

    /**
     * bndclr: find the record whose lower bound equals @p raw_addr and
     * zero it. Returns the way on success, nullopt on failure (double
     * free / invalid free).
     */
    std::optional<unsigned> clear(u64 pac, Addr raw_addr);

    /**
     * Bounds check for a load/store at @p addr, starting the way
     * search at @p start_way (the BWB hint). @p ways_touched returns
     * how many way lines were read. Returns the way containing valid
     * bounds, or nullopt (bounds-checking failure).
     */
    std::optional<unsigned> check(u64 pac, Addr addr, unsigned start_way,
                                  unsigned *ways_touched) const;

    /**
     * Begin doubling the associativity. The caller (OS model) decides
     * when; rows migrate via migrateRow(). A call while a resize is
     * already in flight is a no-op. Offers the strong exception
     * guarantee: if allocating the doubled table throws, the table is
     * unchanged and still usable at its old capacity.
     */
    void beginResize();

    /**
     * Test hook invoked just before beginResize() allocates the
     * doubled table, with the new table's slot count. Throwing from it
     * models OS allocation failure.
     */
    std::function<void(u64 slots)> onResizeAlloc;

    /** Migrate one row; returns true when migration completed. */
    bool migrateRow();

    /** Run the whole migration to completion (functional use). */
    void finishResize();

    u64 rows() const { return _rows; }

    /** Simulated base address of the primary table. */
    Addr base() const { return _primary.base; }

    /** Next row to migrate during an in-progress resize. */
    u64 migrationRow() const { return _rowPtr; }

    const HbtStats &stats() const { return _stats; }

    /** Number of live records in row @p pac (testing / collision study). */
    unsigned rowOccupancy(u64 pac) const;

  private:
    struct Table
    {
        Addr base = 0;
        unsigned assoc = 0;
        unsigned recordsPerWay = kSlotsPerWay;
        std::vector<Compressed> slots; // rows * assoc * recordsPerWay

        Compressed *
        way(u64 pac, unsigned w)
        {
            return &slots[(pac * assoc + w) * recordsPerWay];
        }

        const Compressed *
        way(u64 pac, unsigned w) const
        {
            return &slots[(pac * assoc + w) * recordsPerWay];
        }

        Addr
        wayAddr(u64 pac, unsigned w, unsigned assoc_log2) const
        {
            return base + (pac << (assoc_log2 + 6)) +
                   (static_cast<Addr>(w) << 6);
        }
    };

    /** Resolve (pac, way) to table + local way index per Fig. 10. */
    const Table &resolve(u64 pac, unsigned way, unsigned *local_way) const;
    Table &resolve(u64 pac, unsigned way, unsigned *local_way);

    u64 _rows;
    unsigned _pacBits;
    unsigned _recordsPerWay;
    Table _primary;
    std::optional<Table> _next;
    u64 _rowPtr = 0;    //!< First row not yet migrated.
    Addr _nextBase;     //!< Address where the next table will be mapped.
    HbtStats _stats;
};

} // namespace aos::bounds

#endif // AOS_BOUNDS_HASHED_BOUNDS_TABLE_HH
