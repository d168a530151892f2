#include "qarma/qarma_sliced.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "qarma/qarma_sliced_kernel.hh"

namespace aos::qarma {

using sliceddetail::LinTab;
using sliceddetail::LinTabs;
using sliceddetail::SboxTab;
using sliceddetail::encryptChunk;
using sliceddetail::transpose64;

namespace {

// ---------------------------------------------------------------------
// Plane-network tables, derived from the scalar implementation.
// ---------------------------------------------------------------------

/**
 * Probe @p f with every single-bit input to recover its matrix, and
 * verify GF(2)-linearity on random pairs so a non-linear layer can
 * never be silently mis-sliced.
 */
LinTab
deriveLinear(u64 (*f)(u64), const char *what)
{
    u64 col[64];
    for (unsigned i = 0; i < 64; ++i)
        col[i] = f(u64{1} << i);

    panic_if(f(0) != 0, "qarma sliced: %s is not linear (f(0) != 0)",
             what);
    Rng rng(0x51ced0001ull);
    for (unsigned trial = 0; trial < 16; ++trial) {
        const u64 a = rng.next(), b = rng.next();
        panic_if(f(a ^ b) != (f(a) ^ f(b)),
                 "qarma sliced: %s is not GF(2)-linear", what);
    }

    LinTab tab{};
    for (unsigned o = 0; o < 64; ++o) {
        unsigned n = 0;
        for (unsigned i = 0; i < 64; ++i) {
            if ((col[i] >> o) & 1) {
                panic_if(n >= 3,
                         "qarma sliced: %s has >3 terms for bit %u",
                         what, o);
                tab.src[o][n++] = static_cast<u8>(i);
            }
        }
        panic_if(n == 0, "qarma sliced: %s drops bit %u", what, o);
        tab.nsrc[o] = static_cast<u8>(n);
    }
    return tab;
}

u64
probeFwdLin(u64 x)
{
    return Qarma64::mixColumns(Qarma64::shuffleCells(x));
}

u64
probeBwdLin(u64 x)
{
    return Qarma64::shuffleCellsInv(Qarma64::mixColumns(x));
}

u64
probeReflLin(u64 x)
{
    return Qarma64::shuffleCellsInv(
        Qarma64::mixColumns(Qarma64::shuffleCells(x)));
}

// ---------------------------------------------------------------------
// 64x64 bit transpose (lane-major words <-> bit planes).
// ---------------------------------------------------------------------

void
verifyTranspose()
{
    Rng rng(0x51ced0002ull);
    u64 a[64], ref[64];
    for (unsigned i = 0; i < 64; ++i)
        ref[i] = a[i] = rng.next();
    transpose64(a);
    for (unsigned p = 0; p < 64; ++p) {
        for (unsigned j = 0; j < 64; ++j) {
            panic_if(((a[p] >> j) & 1) != ((ref[j] >> p) & 1),
                     "qarma sliced: transpose self-check failed");
        }
    }
}

const LinTabs &
linTabs()
{
    static const LinTabs tabs = [] {
        verifyTranspose();
        LinTabs t;
        t.fwdLin = deriveLinear(probeFwdLin, "mix∘shuffle");
        t.bwdLin = deriveLinear(probeBwdLin, "shuffleInv∘mix");
        t.reflLin = deriveLinear(probeReflLin, "reflector");
        t.fwdTweak = deriveLinear(Qarma64::forwardTweak, "forward tweak");
        t.bwdTweak = deriveLinear(Qarma64::backwardTweak, "backward tweak");
        return t;
    }();
    return tabs;
}

/**
 * Per-sigma S-box tables recovered by probing the scalar subCells on
 * single-cell values, followed by a one-time end-to-end check of the
 * sliced kernel against the scalar cipher for that sigma.
 */
SboxTab
makeSboxTab(Sbox sbox)
{
    const unsigned idx = static_cast<unsigned>(sbox);
    SboxTab tab{};
    const Qarma64 probe(sbox, 7);
    for (unsigned v = 0; v < 16; ++v) {
        // Feeding a single-nibble value puts it in cell 15 (the LSB
        // nibble), so the LSB nibble of the output is its image.
        tab.fwd[v] = static_cast<u8>(probe.subCells(v) & 0xf);
        tab.inv[v] = static_cast<u8>(probe.subCellsInv(v) & 0xf);
    }
    // End-to-end self-check: one full 64-lane batch against the
    // scalar cipher, for the round counts AOS instantiates.
    Rng rng(0x51ced0003ull ^ idx);
    u64 pt[64], tw[64], ct[64];
    for (unsigned j = 0; j < 64; ++j) {
        pt[j] = rng.next();
        tw[j] = rng.next();
    }
    for (unsigned r : {5u, 7u}) {
        const Qarma64 scalar(sbox, r);
        const auto ks = Qarma64::expandKey({rng.next(), rng.next()});
        encryptChunk<u64>(linTabs(), tab, r, ks, pt, tw, 64, ct);
        for (unsigned j = 0; j < 64; ++j) {
            panic_if(ct[j] != scalar.encrypt(pt[j], tw[j], ks),
                     "qarma sliced: kernel disagrees with scalar "
                     "(sigma%u, r=%u, lane %u)",
                     idx, r, j);
        }
    }
    return tab;
}

const SboxTab &
sboxTab(Sbox sbox)
{
    switch (sbox) {
      case Sbox::kSigma0: {
        static const SboxTab tab = makeSboxTab(Sbox::kSigma0);
        return tab;
      }
      case Sbox::kSigma1: {
        static const SboxTab tab = makeSboxTab(Sbox::kSigma1);
        return tab;
      }
      case Sbox::kSigma2: {
        static const SboxTab tab = makeSboxTab(Sbox::kSigma2);
        return tab;
      }
    }
    panic("invalid QARMA S-box selector");
}

/** 512-lane kernel compiled in AND runnable on this host. */
bool
simd512Usable()
{
#if defined(AOS_QARMA_HAVE_VEC512)
    return __builtin_cpu_supports("avx512f");
#else
    return false;
#endif
}

SlicedKernel
resolveKernel(SlicedKernel requested)
{
    if (requested != SlicedKernel::kAuto) {
        panic_if(requested == SlicedKernel::kSimd512 && !simd512Usable(),
                 "QarmaSliced: 512-lane kernel not available "
                 "(not compiled in, or host lacks AVX-512)");
        return requested;
    }
    const std::string knob = envString("AOS_QARMA_KERNEL", "auto");
    if (knob == "auto" || knob.empty()) {
        return simd512Usable() ? SlicedKernel::kSimd512
                               : SlicedKernel::kSliced64;
    }
    if (knob == "scalar")
        return SlicedKernel::kScalar;
    if (knob == "sliced")
        return SlicedKernel::kSliced64;
    if (knob == "simd512") {
        fatal_if(!simd512Usable(),
                 "AOS_QARMA_KERNEL=simd512 but the 512-lane kernel is "
                 "not available on this build/host");
        return SlicedKernel::kSimd512;
    }
    fatal("AOS_QARMA_KERNEL: unknown kernel '%s' "
          "(auto|scalar|sliced|simd512)",
          knob.c_str());
}

} // namespace

QarmaSliced::QarmaSliced(Sbox sbox, unsigned rounds, SlicedKernel kernel)
    : _sbox(sbox), _rounds(rounds), _kernel(resolveKernel(kernel)),
      _scalar(sbox, rounds)
{
    if (_kernel != SlicedKernel::kScalar) {
        // Force table derivation (and its self-checks) up front.
        linTabs();
        sboxTab(sbox);
    }
}

bool
QarmaSliced::simd512Available()
{
    return simd512Usable();
}

unsigned
QarmaSliced::lanes() const
{
    switch (_kernel) {
      case SlicedKernel::kScalar:
        return 1;
      case SlicedKernel::kSliced64:
        return 64;
      case SlicedKernel::kSimd512:
        return 512;
      case SlicedKernel::kAuto:
        break;
    }
    panic("QarmaSliced: unresolved kernel");
}

void
QarmaSliced::encrypt(const u64 *pt, const u64 *tw, size_t n,
                     const Qarma64::Schedule &ks, u64 *ct) const
{
    size_t i = 0;
    if (_kernel != SlicedKernel::kScalar) {
        const LinTabs &lt = linTabs();
        const SboxTab &sb = sboxTab(_sbox);
        const size_t lane_width = lanes();
        while (n - i >= kMinSlicedBatch) {
            const size_t take = std::min(lane_width, n - i);
#if defined(AOS_QARMA_HAVE_VEC512)
            if (_kernel == SlicedKernel::kSimd512)
                sliceddetail::encryptChunk512(lt, sb, _rounds, ks,
                                              pt + i, tw + i, take,
                                              ct + i);
            else
#endif
                encryptChunk<u64>(lt, sb, _rounds, ks, pt + i, tw + i,
                                  take, ct + i);
            i += take;
        }
    }
    for (; i < n; ++i)
        ct[i] = _scalar.encrypt(pt[i], tw[i], ks);
}

} // namespace aos::qarma
