/**
 * @file
 * A TAGE conditional branch predictor (Seznec's L-TAGE family, which
 * Table IV lists as the simulated core's predictor).
 *
 * A bimodal base predictor is backed by several partially tagged
 * tables indexed with geometrically increasing global-history lengths.
 * The longest-history matching table provides the prediction; useful
 * counters and the standard allocation-on-mispredict policy manage the
 * entries. The loop predictor of full L-TAGE is omitted (it contributes
 * little on non-loop-dominated streams and nothing to the AOS/baseline
 * relative comparison).
 *
 * The global history is word-packed, and each table's index and tag
 * hashes read per-table folded registers that are updated in O(1) per
 * outcome (Seznec & Michaud, JILP 2006) rather than re-folded from the
 * history on every lookup.
 */

#ifndef AOS_CPU_TAGE_HH
#define AOS_CPU_TAGE_HH

#include <array>
#include <vector>

#include "common/bitfield.hh"
#include "common/types.hh"

namespace aos::cpu {

/** Predictor statistics. */
struct TageStats
{
    u64 lookups = 0;
    u64 mispredicts = 0;
    u64 providerTagged = 0; //!< Predictions from a tagged table.

    double
    mispredictRate() const
    {
        return lookups ? static_cast<double>(mispredicts) / lookups : 0.0;
    }
};

/** The global branch history: 131 outcomes, the newest at bit 0. */
class GlobalHistory
{
  public:
    static constexpr unsigned kBits = 131;

    /** Outcome @p i branches ago (0 = the newest). */
    bool
    bit(unsigned i) const
    {
        return (_words[i / 64] >> (i % 64)) & 1;
    }

    /** Shift @p taken in as the newest outcome. */
    void
    push(bool taken)
    {
        _words[2] = ((_words[2] << 1) | (_words[1] >> 63)) &
                    mask(kBits - 128);
        _words[1] = (_words[1] << 1) | (_words[0] >> 63);
        _words[0] = (_words[0] << 1) | (taken ? 1 : 0);
    }

  private:
    std::array<u64, 3> _words{};
};

/**
 * The newest @p length history bits XOR-folded down to @p width bits,
 * kept up to date in O(1) per outcome.
 *
 * The fold splits the history into q = length / width full chunks and
 * an r = length % width bit tail. Full chunk k holds h[kw..kw+w-1] with
 * h[kw] at bit w-1; the tail holds h[qw..qw+r-1] right-aligned, with
 * h[qw] at bit r-1. The two parts are kept in separate registers, since
 * a shift moves their bits in different ways:
 *  - the full chunks rotate right by one, the new outcome enters at bit
 *    w-1, and h[qw-1], which leaves them for the tail, lands on bit w-1
 *    as well and is XORed out there;
 *  - the tail shifts right by one (its oldest bit drops out) and takes
 *    h[qw-1], or the new outcome when q = 0, at bit r-1.
 */
class FoldedHistory
{
  public:
    FoldedHistory() = default;

    FoldedHistory(unsigned length, unsigned width)
        : _width(width), _chunkBits(length / width * width),
          _tailBits(length % width)
    {
    }

    /** The folded value. */
    u64 value() const { return _chunks ^ _tail; }

    /** Fold in @p taken; call before @p history shifts it in. */
    void
    update(const GlobalHistory &history, bool taken)
    {
        const u64 in = taken ? 1 : 0;
        const u64 to_tail =
            _chunkBits ? (history.bit(_chunkBits - 1) ? 1 : 0) : in;
        if (_chunkBits) {
            const u64 top = _width - 1;
            _chunks = ((_chunks >> 1) | ((_chunks & 1) << top)) ^
                      ((in ^ to_tail) << top);
        }
        if (_tailBits)
            _tail = (_tail >> 1) | (to_tail << (_tailBits - 1));
    }

  private:
    unsigned _width = 0;
    unsigned _chunkBits = 0; //!< q * width: history bits in full chunks.
    unsigned _tailBits = 0;  //!< r: history bits in the tail.
    u64 _chunks = 0;
    u64 _tail = 0;
};

class Tage
{
  public:
    static constexpr unsigned kNumTables = 4;

    Tage();

    /**
     * Predict the direction of the branch at @p pc, then train with its
     * actual @p taken outcome. Returns the prediction.
     */
    bool resolve(Addr pc, bool taken);

    const TageStats &stats() const { return _stats; }

  private:
    struct TaggedEntry
    {
        u16 tag = 0;
        i8 ctr = 0;      //!< 3-bit signed counter, taken if >= 0.
        u8 useful = 0;   //!< 2-bit usefulness.
        bool valid = false;
    };

    static constexpr unsigned kBaseBits = 13;
    static constexpr unsigned kTableBits = 10;
    static constexpr unsigned kTagBits = 9;
    static constexpr std::array<unsigned, kNumTables> kHistLen{5, 15, 44,
                                                               130};

    /** One lookup's hashes and outcome, computed once, reused to train. */
    struct Lookup
    {
        std::array<u64, kNumTables> index{};
        std::array<u16, kNumTables> tag{};
        u64 baseIndex = 0;
        int provider = -1; //!< Longest matching table; -1 = bimodal.
        bool providerPred = false;
        bool altPred = false;
        bool prediction = false;
    };

    Lookup lookup(Addr pc) const;
    void train(const Lookup &l, bool taken);

    std::vector<u8> _bimodal; //!< 2-bit counters.
    std::array<std::vector<TaggedEntry>, kNumTables> _tables;
    GlobalHistory _history;
    // Per table: the history folded to the index width, the tag width
    // and one bit less than the tag width.
    std::array<FoldedHistory, kNumTables> _indexFold;
    std::array<FoldedHistory, kNumTables> _tagFold;
    std::array<FoldedHistory, kNumTables> _tagFoldShort;

    u64 _useAltOnNa = 0; //!< "use alt on newly allocated" counter.
    u64 _tick = 0;       //!< Periodic useful-bit aging.

    TageStats _stats;
};

} // namespace aos::cpu

#endif // AOS_CPU_TAGE_HH
