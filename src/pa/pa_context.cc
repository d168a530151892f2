#include "pa/pa_context.hh"

#include "common/random.hh"

namespace aos::pa {

PaContext::PaContext(PointerLayout layout, u64 seed)
    : _layout(layout), _cipher(qarma::Sbox::kSigma1, 7),
      _sliced(qarma::Sbox::kSigma1, 7)
{
    Rng rng(seed);
    for (auto &schedule : _scheds) {
        qarma::Key128 key;
        key.w0 = rng.next();
        key.k0 = rng.next();
        schedule = qarma::Qarma64::expandKey(key);
    }
}

u64
PaContext::computePac(Addr ptr, u64 modifier, PaKey key) const
{
    const auto &ks = _scheds[static_cast<unsigned>(key)];
    const u64 ct = _cipher.encrypt(_layout.strip(ptr), modifier, ks);
    return ct & mask(_layout.pacSize());
}

Addr
PaContext::signData(Addr ptr, u64 modifier, u64 size, PaKey key) const
{
    const Addr raw = _layout.strip(ptr);
    const u64 pac = computePac(raw, modifier, key);
    const u64 ahc = _layout.computeAhc(raw, size);
    return _layout.compose(raw, pac, ahc);
}

Addr
PaContext::pacma(Addr ptr, u64 modifier, u64 size) const
{
    return signData(ptr, modifier, size, PaKey::kModifierM);
}

Addr
PaContext::pacmb(Addr ptr, u64 modifier, u64 size) const
{
    return signData(ptr, modifier, size, PaKey::kDataB);
}

AuthResult
PaContext::autm(Addr ptr) const
{
    return _layout.signed_(ptr) ? AuthResult::kPass : AuthResult::kFail;
}

Addr
PaContext::pacia(Addr ptr, u64 modifier) const
{
    const Addr raw = _layout.strip(ptr);
    const u64 pac = computePac(raw, modifier, PaKey::kInstA);
    // Code pointers carry no AHC: the PAC alone occupies the upper
    // bits, matching baseline Armv8.3-A return-address signing.
    return _layout.compose(raw, pac, 0);
}

AuthResult
PaContext::autia(Addr ptr, u64 modifier, Addr *stripped) const
{
    const Addr raw = _layout.strip(ptr);
    const u64 expected = computePac(raw, modifier, PaKey::kInstA);
    if (stripped)
        *stripped = raw;
    return _layout.pac(ptr) == expected ? AuthResult::kPass
                                        : AuthResult::kFail;
}

void
PaContext::batchPac(const Addr *ptrs, const u64 *modifiers,
                    const u64 *sizes, size_t n, PaKey key,
                    Addr *out) const
{
    const auto &ks = _scheds[static_cast<unsigned>(key)];
    const u64 pacMask = mask(_layout.pacSize());
    // out doubles as the plaintext buffer: strip into it, run the
    // sliced sweep in place, then compose. strip() is a single mask,
    // so recomputing the raw address in the compose loop is free.
    for (size_t i = 0; i < n; ++i)
        out[i] = _layout.strip(ptrs[i]);
    _sliced.encrypt(out, modifiers, n, ks, out);
    for (size_t i = 0; i < n; ++i) {
        const Addr raw = _layout.strip(ptrs[i]);
        out[i] = _layout.compose(raw, out[i] & pacMask,
                                 _layout.computeAhc(raw, sizes[i]));
    }
}

bool
PaContext::pacMatches(Addr ptr, u64 modifier) const
{
    const Addr raw = _layout.strip(ptr);
    return _layout.pac(ptr) ==
           computePac(raw, modifier, PaKey::kModifierM);
}

} // namespace aos::pa
