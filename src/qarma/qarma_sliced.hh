/**
 * @file
 * Batched bit-sliced QARMA-64 (DESIGN.md §14).
 *
 * The scalar Qarma64 signs one 64-bit block at a time; the PAC batch
 * path (pa::PaContext::batchPac) signs whole windows of pointers under
 * one key. This kernel transposes up to 64 blocks into 64 bit-planes —
 * plane p holds bit p of every block — and evaluates the cipher once
 * over the planes: the cell shuffle, MixColumns and the tweak update
 * become plane-permutation/XOR networks, the S-box becomes a 16-term
 * minterm gate network per cell, and key/round constants (equal across
 * the batch) reduce to conditional plane complements.
 *
 * All linear layers are *derived from the scalar implementation* at
 * first use: each is probed with single-bit inputs and verified for
 * GF(2)-linearity, so the sliced kernel is bit-exact with Qarma64 by
 * construction, not by parallel maintenance. The frozen PAC vectors
 * and the batch-vs-scalar property test in tests/pac_vectors_test.cc
 * pin this down.
 *
 * Lane width: the portable kernel slices over u64 (64 blocks); with
 * AVX-512 (AOS_QARMA_HAVE_VEC512) an 8x64 vector instantiation runs
 * 512 blocks per chunk.
 * Batches smaller than kMinSlicedBatch fall back to the scalar cipher
 * (transposition would dominate); the tail of any batch does too.
 *
 * AOS_QARMA_KERNEL=auto|scalar|sliced|simd512 overrides dispatch
 * ("auto" = the 512-lane kernel where the build and host support it,
 * else the 64-lane one; the sanitizer stage of scripts/check.sh runs
 * the suite under "scalar" so both paths stay clean). The 512-lane
 * instantiation is compiled into its own AVX-512 translation unit when
 * the toolchain accepts the flags, and is selected only after a
 * runtime cpu-support check, so the binary stays runnable on older
 * hosts.
 */

#ifndef AOS_QARMA_QARMA_SLICED_HH
#define AOS_QARMA_QARMA_SLICED_HH

#include <cstddef>

#include "qarma/qarma64.hh"

namespace aos::qarma {

/** Which implementation a QarmaSliced instance dispatches to. */
enum class SlicedKernel
{
    kAuto,     //!< Widest available (env AOS_QARMA_KERNEL can narrow).
    kScalar,   //!< Per-block Qarma64 (reference / sanitizer baseline).
    kSliced64, //!< 64-lane bit-sliced over u64 planes.
    kSimd512,  //!< 512-lane bit-sliced over 8x64 vector planes (AVX-512).
};

/** Batched QARMA-64 encryption, bit-exact with Qarma64. */
class QarmaSliced
{
  public:
    /**
     * @param sbox S-box family (must match the scalar instance).
     * @param rounds Forward rounds r.
     * @param kernel Dispatch override; kAuto consults AOS_QARMA_KERNEL
     *               and falls back to the widest compiled-in kernel.
     */
    explicit QarmaSliced(Sbox sbox = Sbox::kSigma1, unsigned rounds = 7,
                         SlicedKernel kernel = SlicedKernel::kAuto);

    /**
     * Encrypt @p n blocks: ct[i] = Qarma64::encrypt(pt[i], tw[i], ks).
     * Arbitrary n; full lanes go through the sliced kernel, ragged
     * tails shorter than kMinSlicedBatch through the scalar cipher.
     * In-place operation (ct == pt) is allowed.
     */
    void encrypt(const u64 *pt, const u64 *tw, size_t n,
                 const Qarma64::Schedule &ks, u64 *ct) const;

    /** The kernel actually selected after env/compile-time dispatch. */
    SlicedKernel kernel() const { return _kernel; }

    /** Lane count of the selected kernel (1 for scalar). */
    unsigned lanes() const;

    /**
     * True when the 512-lane kernel was compiled in (build detected
     * the AVX-512 flags) AND the running host supports AVX-512.
     */
    static bool simd512Available();

    /** Below this batch size slicing loses to the scalar cipher. */
    static constexpr size_t kMinSlicedBatch = 16;

  private:
    Sbox _sbox;
    unsigned _rounds;
    SlicedKernel _kernel;
    Qarma64 _scalar;
};

} // namespace aos::qarma

#endif // AOS_QARMA_QARMA_SLICED_HH
