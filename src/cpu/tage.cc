#include "cpu/tage.hh"

namespace aos::cpu {

Tage::Tage() : _bimodal(u64{1} << kBaseBits, 2)
{
    for (unsigned t = 0; t < kNumTables; ++t) {
        _tables[t].resize(u64{1} << kTableBits);
        _indexFold[t] = FoldedHistory(kHistLen[t], kTableBits);
        _tagFold[t] = FoldedHistory(kHistLen[t], kTagBits);
        _tagFoldShort[t] = FoldedHistory(kHistLen[t], kTagBits - 1);
    }
}

Tage::Lookup
Tage::lookup(Addr pc) const
{
    Lookup l;
    for (unsigned t = 0; t < kNumTables; ++t) {
        l.index[t] = ((pc >> 2) ^ (pc >> (kTableBits - t)) ^
                      _indexFold[t].value()) &
                     mask(kTableBits);
        const u64 h = _tagFold[t].value() ^ (_tagFoldShort[t].value() << 1);
        l.tag[t] = static_cast<u16>(((pc >> 2) ^ h) & mask(kTagBits));
    }

    l.baseIndex = (pc >> 2) & mask(kBaseBits);
    const bool base_pred = _bimodal[l.baseIndex] >= 2;
    l.altPred = base_pred;

    // Longest history match provides; second longest is the alternate.
    for (int t = kNumTables - 1; t >= 0; --t) {
        const TaggedEntry &entry = _tables[t][l.index[t]];
        if (entry.valid && entry.tag == l.tag[t]) {
            if (l.provider < 0) {
                l.provider = t;
                l.providerPred = entry.ctr >= 0;
            } else {
                l.altPred = entry.ctr >= 0;
                break;
            }
        }
    }

    if (l.provider < 0) {
        l.prediction = base_pred;
        return l;
    }
    const TaggedEntry &entry = _tables[l.provider][l.index[l.provider]];
    const bool weak = entry.ctr == 0 || entry.ctr == -1;
    // Newly allocated, weak entries may be less reliable than the
    // alternate prediction (TAGE's use_alt_on_na heuristic).
    l.prediction = weak && entry.useful == 0 && _useAltOnNa >= 8
                       ? l.altPred
                       : l.providerPred;
    return l;
}

bool
Tage::resolve(Addr pc, bool taken)
{
    const Lookup l = lookup(pc);
    ++_stats.lookups;
    if (l.provider >= 0)
        ++_stats.providerTagged;
    if (l.prediction != taken)
        ++_stats.mispredicts;
    train(l, taken);
    return l.prediction;
}

void
Tage::train(const Lookup &l, bool taken)
{
    // Update the provider (or the bimodal table).
    if (l.provider >= 0) {
        TaggedEntry &entry = _tables[l.provider][l.index[l.provider]];
        if (taken && entry.ctr < 3)
            ++entry.ctr;
        else if (!taken && entry.ctr > -4)
            --entry.ctr;
        if (l.providerPred != l.altPred) {
            if (l.providerPred == taken) {
                if (entry.useful < 3)
                    ++entry.useful;
            } else if (entry.useful > 0) {
                --entry.useful;
            }
            // Track whether alt would have been better for new entries.
            const bool weak = entry.ctr == 0 || entry.ctr == -1;
            if (weak && entry.useful == 0) {
                if (l.altPred == taken) {
                    if (_useAltOnNa < 15)
                        ++_useAltOnNa;
                } else if (_useAltOnNa > 0) {
                    --_useAltOnNa;
                }
            }
        }
    } else {
        u8 &ctr = _bimodal[l.baseIndex];
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
    }

    // Allocate a longer-history entry on a mispredict.
    if (l.prediction != taken && l.provider < 3) {
        bool allocated = false;
        for (unsigned t = l.provider + 1; t < kNumTables && !allocated;
             ++t) {
            TaggedEntry &entry = _tables[t][l.index[t]];
            if (!entry.valid || entry.useful == 0) {
                entry.valid = true;
                entry.tag = l.tag[t];
                entry.ctr = taken ? 0 : -1;
                entry.useful = 0;
                allocated = true;
            }
        }
        if (!allocated) {
            // Decay usefulness so future allocations can succeed.
            for (unsigned t = l.provider + 1; t < kNumTables; ++t) {
                TaggedEntry &entry = _tables[t][l.index[t]];
                if (entry.useful > 0)
                    --entry.useful;
            }
        }
    }

    // Periodic aging of useful bits.
    if (++_tick % 262144 == 0) {
        for (auto &table : _tables) {
            for (auto &entry : table)
                entry.useful >>= 1;
        }
    }

    // Fold the outcome in, then shift it into the global history.
    for (unsigned t = 0; t < kNumTables; ++t) {
        _indexFold[t].update(_history, taken);
        _tagFold[t].update(_history, taken);
        _tagFoldShort[t].update(_history, taken);
    }
    _history.push(taken);
}

} // namespace aos::cpu
