/**
 * @file
 * The Arm PA / AOS signing primitives.
 *
 * PaContext models the per-process pointer-authentication state: the
 * QARMA keys (held in privileged registers, invisible to user space in
 * the threat model) and the pointer layout. It implements both the
 * baseline Armv8.3-A primitives needed by the PA configuration
 * (pacia/autia for return-address and code-pointer signing) and the new
 * AOS instructions of paper SIV-A:
 *
 *   pacma/pacmb  sign a data pointer with a PAC plus a 2-bit AHC
 *                derived from the allocation size;
 *   xpacm        strip both PAC and AHC;
 *   autm         authenticate that a pointer was signed by AOS
 *                (nonzero AHC) without stripping it.
 *
 * bndstr/bndclr are bounds-table instructions and live in aos::bounds /
 * aos::mcu; this module is purely about pointer bits.
 */

#ifndef AOS_PA_PA_CONTEXT_HH
#define AOS_PA_PA_CONTEXT_HH

#include <vector>

#include "pa/pointer_layout.hh"
#include "qarma/qarma64.hh"
#include "qarma/qarma_sliced.hh"

namespace aos::pa {

/** Which architected key register a signing instruction uses. */
enum class PaKey { kInstA, kInstB, kDataA, kDataB, kModifierM };

/** Result of an authentication instruction. */
enum class AuthResult { kPass, kFail };

/** Per-process pointer-authentication state and signing operations. */
class PaContext
{
  public:
    /**
     * @param layout Pointer bit layout (PAC/VA widths).
     * @param seed Seed from which the five architected keys are derived
     *        (a real OS would generate them at exec() time).
     */
    explicit PaContext(PointerLayout layout = PointerLayout(),
                       u64 seed = 0x6a09e667f3bcc908ull);

    /** Use the paper's published key/context pair (SVI) for key M. */
    void
    setKeyM(const qarma::Key128 &key)
    {
        _scheds[4] = qarma::Qarma64::expandKey(key);
    }

    const PointerLayout &layout() const { return _layout; }

    /**
     * Compute the PAC for @p ptr under @p modifier with key @p key,
     * truncated to the layout's PAC width (the QARMA tweak is the
     * modifier, as in Armv8.3-A).
     */
    u64 computePac(Addr ptr, u64 modifier, PaKey key) const;

    /**
     * pacma: sign a data pointer returned by malloc(). Embeds
     * PAC(strip(ptr), modifier) and AHC(ptr, size). Passing size == 0
     * models the xzr re-sign after free().
     */
    Addr pacma(Addr ptr, u64 modifier, u64 size) const;

    /** pacmb: same as pacma with the B-family key. */
    Addr pacmb(Addr ptr, u64 modifier, u64 size) const;

    /** xpacm: strip PAC and AHC, recovering the raw address. */
    Addr xpacm(Addr ptr) const { return _layout.strip(ptr); }

    /**
     * autm: authenticate an AOS-signed pointer by checking for a
     * nonzero AHC (paper SIV-A). Does not strip the pointer.
     */
    AuthResult autm(Addr ptr) const;

    /** pacia: sign a code pointer (return address) with key IA. */
    Addr pacia(Addr ptr, u64 modifier) const;

    /**
     * autia: authenticate a pacia-signed pointer. On success returns
     * the stripped pointer; on failure flags kFail (a real core would
     * poison the pointer so later use faults).
     */
    AuthResult autia(Addr ptr, u64 modifier, Addr *stripped) const;

    /** Verify that the PAC embedded in @p ptr matches key M. */
    bool pacMatches(Addr ptr, u64 modifier) const;

    /**
     * Batched data-pointer signing (DESIGN.md §14): sign @p n pointers
     * under one key in a single bit-sliced QARMA sweep. out[i] is
     * bit-identical to pacma()/pacmb() of the same request; @p out must
     * not alias the inputs. This is the queue drain behind PacBatch — callers
     * that accumulate a window of sign requests (the AOS backend pass,
     * the functional runtime) go through here instead of one cipher
     * call per pointer.
     */
    void batchPac(const Addr *ptrs, const u64 *modifiers,
                  const u64 *sizes, size_t n, PaKey key,
                  Addr *out) const;

  private:
    Addr signData(Addr ptr, u64 modifier, u64 size, PaKey key) const;

    PointerLayout _layout;
    qarma::Qarma64 _cipher;
    qarma::QarmaSliced _sliced;
    // The five architected keys, each held only as its expanded
    // schedule: computePac signs millions of pointers per run, and
    // re-deriving w1/k1 per block is pure waste.
    qarma::Qarma64::Schedule _scheds[5];
};

/**
 * A deferred-signing queue over PaContext::batchPac — the software
 * analogue of the paper's pipelined PAC unit: producers enqueue sign
 * requests as they are discovered, the whole window is signed in one
 * bit-sliced sweep at flush(), and consumers read results by slot.
 * Buffers are pooled: clear() keeps capacity, so a steady-state
 * producer (the AOS backend pass window) never reallocates.
 */
class PacBatch
{
  public:
    /** @param pa Signing context; @param key Key slot for every request. */
    explicit PacBatch(const PaContext *pa,
                      PaKey key = PaKey::kModifierM)
        : _pa(pa), _key(key)
    {
    }

    /** Queue one pacma-style request; returns its result slot. */
    size_t
    enqueue(Addr ptr, u64 modifier, u64 size)
    {
        _ptrs.push_back(ptr);
        _modifiers.push_back(modifier);
        _sizes.push_back(size);
        return _ptrs.size() - 1;
    }

    /** Sign everything queued in one batchPac sweep. */
    void
    flush()
    {
        _out.resize(_ptrs.size());
        _pa->batchPac(_ptrs.data(), _modifiers.data(), _sizes.data(),
                      _ptrs.size(), _key, _out.data());
    }

    /** Signed pointer for request @p slot (valid after flush()). */
    Addr result(size_t slot) const { return _out[slot]; }

    size_t pending() const { return _ptrs.size(); }

    /** Drop all requests/results, keeping the pooled capacity. */
    void
    clear()
    {
        _ptrs.clear();
        _modifiers.clear();
        _sizes.clear();
        _out.clear();
    }

  private:
    const PaContext *_pa;
    PaKey _key;
    std::vector<Addr> _ptrs;
    std::vector<u64> _modifiers;
    std::vector<u64> _sizes;
    std::vector<Addr> _out;
};

} // namespace aos::pa

#endif // AOS_PA_PA_CONTEXT_HH
