/**
 * @file
 * Frozen before/after regression vectors for the QARMA/PA hot path.
 *
 * These vectors were produced by the straightforward per-cell QARMA
 * implementation (pre LUT-packing and key-schedule caching) and pin
 * the optimized code paths bit-exactly: encrypt, decrypt, the cached
 * Schedule overloads, PaContext::computePac, and the full pacma
 * sign-with-AHC composition. Any future "optimization" that changes a
 * single ciphertext bit fails here before it can skew a figure.
 *
 * Key/tweak/plaintext material is pseudorandom (xorshift, fixed seed);
 * the PaContext vectors use the default pointer layout and seed with
 * PaKey::kModifierM, matching the simulator's bounds-PAC use.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "pa/pa_context.hh"
#include "qarma/qarma64.hh"
#include "qarma/qarma_sliced.hh"

namespace aos {
namespace {

using qarma::Key128;
using qarma::Qarma64;
using qarma::Sbox;

struct QarmaVector
{
    unsigned box;   //!< Index into {kSigma0, kSigma1, kSigma2}.
    unsigned rounds;
    u64 w0, k0, pt, tweak, ct;
};

constexpr QarmaVector kQarmaVectors[] = {
    {0, 5, 0x3f2800d6569e01b4ull, 0x606f949a3cebd0b7ull, 0xc69bba40dddccad6ull, 0xbdc162a6bf8906c3ull, 0xe2efce0bf9990b6full},
    {0, 5, 0xacccfee2b873c40eull, 0x2208ba58d97fe006ull, 0x7942b05e77b9de46ull, 0xf7bfd187e61dfc7aull, 0x8b5741f2418a965bull},
    {0, 5, 0x6ba9915de3259902ull, 0x0bf76c2887c5d2b0ull, 0xd7eda3f877c2f515ull, 0x73e1da3f024c95bfull, 0xa7ab278cd95fec38ull},
    {0, 5, 0xa4338db77b728354ull, 0x04175a80ffea3352ull, 0x79774e11a59b73b4ull, 0xb13b0ca3dedc2853ull, 0x21384291a4f62a51ull},
    {0, 6, 0x82237f5562e7e4c3ull, 0x6d4d5a297ad77bcaull, 0x0cb68093bdff67bdull, 0xa099ad97a5ced632ull, 0xd8d4047c8e4addb2ull},
    {0, 6, 0x8b3948712dca871eull, 0xa554d8b5c6f31590ull, 0xf76802b85c7f97bbull, 0x189af48e0d7de654ull, 0x71f9f1e53a6dd859ull},
    {0, 6, 0x0010c6e3e3e40898ull, 0x5f299b8f9120e689ull, 0xde716cac90e22504ull, 0x9c985c99f576204eull, 0x5dc90c075162815aull},
    {0, 6, 0x7fc3cac960011f8eull, 0xa09e71eaad153e31ull, 0xaa7f578deadcb80dull, 0xae08554e955ca23dull, 0x0057aeeb5487404bull},
    {0, 7, 0x2c3d52d8a36b3439ull, 0x931bd6f73645cc11ull, 0x9ca95bef374a63c9ull, 0x9e43fbf63d59254eull, 0x07b538f5185e6d96ull},
    {0, 7, 0x6cb401a3aacb0484ull, 0x057f0b8d58d5338dull, 0x9e6b1f65640ddaaaull, 0x857a914f41d82b9full, 0x5101c6e57fef8b74ull},
    {0, 7, 0x69f087c394329c08ull, 0xb0a47cd6ba5cfb30ull, 0x92d4e82b02fc8ec6ull, 0x5906df6076b4065bull, 0xf30ba5dc7e541f2bull},
    {0, 7, 0x8bc43332aabd9897ull, 0x48ea85919f502666ull, 0x1646de40d3ffdfaaull, 0x7f7b750243708a95ull, 0xca5b2a1fbcee0443ull},
    {1, 5, 0x07d59e1a57066ec0ull, 0x47d82684cbd1d21dull, 0x1e8cb663a18356f9ull, 0x0efe9a42f0e2ce14ull, 0x2ddfae3c9f94b668ull},
    {1, 5, 0x8fa1813209620e88ull, 0x21c427daa5086895ull, 0xbf4fb308a542fd04ull, 0xbc638cc0c8ebb9feull, 0xd357aa131f5c4418ull},
    {1, 5, 0x098c6ba1a6b1d10dull, 0xda63489bd07751efull, 0x17f6f28c5926248cull, 0xa683ae425b06cbc5ull, 0x4162c132af82bc4cull},
    {1, 5, 0x373cfc1de95e9712ull, 0xd68690230ab3aebcull, 0xeda4dfa25858e6e1ull, 0x1dbc199b88d5cf6cull, 0x59bbbfc9046b48acull},
    {1, 6, 0x731210e44cbe3ff2ull, 0x39ee5cec924cff0dull, 0xa1e7a6544cd005b3ull, 0xbea4d46c820ea978ull, 0x181f23193604f0b2ull},
    {1, 6, 0x092b0dbad9dbea2aull, 0xb4142183892b977eull, 0x004b74600993dfd0ull, 0x996b56a2ce530c6full, 0x34f918c04c124595ull},
    {1, 6, 0x10b48c74ddef51b7ull, 0x47f5288aa01e02d4ull, 0x8bc1517865260bd1ull, 0xa263bb4e3a189386ull, 0x383c19cae9377b77ull},
    {1, 6, 0x054a0c84347a8321ull, 0x3a6ddab24e189e67ull, 0x48969a881259d69bull, 0xb5154a45e937a3f6ull, 0x7e838a059c5b3631ull},
    {1, 7, 0x857efa6a3911f131ull, 0xeee2f441ea1fbe93ull, 0x882a2f7c93aa452eull, 0xa0b9a700fcf19a24ull, 0x1c7e326b393300acull},
    {1, 7, 0x82aeefbb120a7010ull, 0x22246f81695060f0ull, 0x7ad78d27cbe6fc31ull, 0xaf02d623995a1d89ull, 0x2d45f10d30045006ull},
    {1, 7, 0xa4a8beff1cbaebf2ull, 0xd5b4915cd40d22a5ull, 0x2c85a0b8a9f931a0ull, 0xb87a9149d754abc3ull, 0xfe52b3bdd72d150dull},
    {1, 7, 0xf26f05a520009254ull, 0x3f32e6bb74ce8670ull, 0xe54781a3efb0877cull, 0x2203b2ee2645b972ull, 0x5134ee7d0c35e49dull},
    {2, 5, 0xc163725881492e80ull, 0xcb1cbd157e6a1cddull, 0x81fc75e932c25fa4ull, 0xad73e69f7ff2b21bull, 0x1671095f6a262b35ull},
    {2, 5, 0x42e49eb6889cb1bfull, 0x86e482165aae071cull, 0x1d293f23255d1c12ull, 0xb8c7ee9a5286e2aaull, 0xeb1fe2a05509ab28ull},
    {2, 5, 0x5e98ba1f101005efull, 0x9412bbb456c4be24ull, 0x30fec80a64323e58ull, 0x1f260cf8a3f6cc24ull, 0xe48c82a60f2d6498ull},
    {2, 5, 0x0a6a87ba27fea8bcull, 0xabae0ada8cd6faedull, 0x09cd17ae4b9c4c58ull, 0xf4ae5c46bc1362c0ull, 0x1293d3f644da9edcull},
    {2, 6, 0xb2fe7504b1e1f405ull, 0xc15ba201d32596adull, 0xeadaf93206b3d6c0ull, 0x35b829b1b649016dull, 0x7cbc7fabed9cbcb4ull},
    {2, 6, 0x3663cdd6b716682full, 0x1d428ccd4c99af3full, 0x6a6b180da2ceb3a1ull, 0xfb61c1ab115fe686ull, 0xba83031711c0b022ull},
    {2, 6, 0xd75dd26f9dc238cbull, 0x6ee2eb49a99aee7aull, 0xa060cabc0bf10526ull, 0xf2ee7b53725b6eacull, 0x1b5edabd4f295125ull},
    {2, 6, 0x079b4251c953f371ull, 0xdc14592a11fda8d7ull, 0xa5d8667e83228646ull, 0x9aa855edc3d992caull, 0x0d6f4fc1a16a16f0ull},
    {2, 7, 0x1dae7e8a7abdd36full, 0x4ca7391d5d439309ull, 0x9df31169a9a2f66full, 0xce0b0116dc07c843ull, 0xb39d0f6d8bf6a7bbull},
    {2, 7, 0xbd339ba86763b713ull, 0xfb0f292f30d8d4bdull, 0x2b421e9d96b3ea54ull, 0x7666774e4d2e9880ull, 0x79e54d1a629220ecull},
    {2, 7, 0xfad233938260e5b1ull, 0xbb69408ef19f683aull, 0x4d5ea2c25675186aull, 0x538d3cf9bd26a8daull, 0x3501894b57bdf15dull},
    {2, 7, 0xab6d8a90f4fb930bull, 0xcc44d808144dc6edull, 0xf5820ea623894620ull, 0x7bbb2df51c03dcacull, 0x0838d63fa41aa6feull},
};

constexpr Sbox kBoxes[] = {Sbox::kSigma0, Sbox::kSigma1, Sbox::kSigma2};

struct PacVector
{
    u64 ptr, mod, pac;
};

// PaContext{} (default layout and seed), PaKey::kModifierM.
constexpr PacVector kPacVectors[] = {
    {0x00001fdb6d737015ull, 0xe4bc037f8e1d33b5ull, 0x0000000000004481ull},
    {0x0000352fd91f4492ull, 0xf98d47cc14d81e9bull, 0x000000000000670full},
    {0x00001e9769e96866ull, 0x3b62ec15d6006336ull, 0x000000000000e4bdull},
    {0x000035dcad326e70ull, 0xbeda07c1386596acull, 0x00000000000041e6ull},
    {0x000007c6fca77681ull, 0x350789c5c60bb82cull, 0x00000000000091c7ull},
    {0x00003fbef0d4245cull, 0xe87a83090a9f1b14ull, 0x000000000000bb1bull},
    {0x00002d429c6a6022ull, 0x76761fafb70afc62ull, 0x000000000000d03aull},
    {0x000004331763b11aull, 0xfda175163e7270f8ull, 0x000000000000c29cull},
};

struct PacmaVector
{
    u64 ptr, mod, size, signedPtr;
};

constexpr PacmaVector kPacmaVectors[] = {
    {0x000034a694bfaa00ull, 0x984e7583e525730dull, 2747, 0xd860f4a694bfaa00ull},
    {0x00002c5d081a9800ull, 0xb4ac8daa53695a6full, 811, 0x91c2ec5d081a9800ull},
    {0x00002fb394669000ull, 0x6da0ad5edc57f25dull, 2825, 0xe7332fb394669000ull},
    {0x00003863aa08a000ull, 0x127ac24aaf212a2cull, 904, 0xa6547863aa08a000ull},
    {0x00001300c4a8bd00ull, 0xfb180d707e334345ull, 1171, 0xf3a35300c4a8bd00ull},
    {0x0000005673c6f600ull, 0xace5bcb1f34f8187ull, 3924, 0xe880005673c6f600ull},
    {0x00001bffc5912d00ull, 0x1e7b88f758be11a0ull, 1427, 0xc7ba9bffc5912d00ull},
    {0x000011f402797700ull, 0x1bbb460af58557a6ull, 1177, 0xe7ba11f402797700ull},
};

TEST(PacVectors, QarmaEncryptMatchesFrozenVectors)
{
    for (const QarmaVector &v : kQarmaVectors) {
        const Qarma64 cipher(kBoxes[v.box], v.rounds);
        const Key128 key{v.w0, v.k0};
        EXPECT_EQ(cipher.encrypt(v.pt, v.tweak, key), v.ct)
            << "box=" << v.box << " rounds=" << v.rounds;
    }
}

TEST(PacVectors, QarmaDecryptMatchesFrozenVectors)
{
    for (const QarmaVector &v : kQarmaVectors) {
        const Qarma64 cipher(kBoxes[v.box], v.rounds);
        const Key128 key{v.w0, v.k0};
        EXPECT_EQ(cipher.decrypt(v.ct, v.tweak, key), v.pt)
            << "box=" << v.box << " rounds=" << v.rounds;
    }
}

TEST(PacVectors, CachedScheduleMatchesKeyOverloads)
{
    // The Schedule overloads are the hot path (PaContext); they must
    // agree with the Key128 overloads on every vector.
    for (const QarmaVector &v : kQarmaVectors) {
        const Qarma64 cipher(kBoxes[v.box], v.rounds);
        const Key128 key{v.w0, v.k0};
        const Qarma64::Schedule ks = Qarma64::expandKey(key);
        EXPECT_EQ(cipher.encrypt(v.pt, v.tweak, ks), v.ct);
        EXPECT_EQ(cipher.decrypt(v.ct, v.tweak, ks), v.pt);
    }
}

TEST(PacVectors, ComputePacMatchesFrozenVectors)
{
    pa::PaContext ctx;
    for (const PacVector &v : kPacVectors)
        EXPECT_EQ(ctx.computePac(v.ptr, v.mod, pa::PaKey::kModifierM),
                  v.pac);
}

TEST(PacVectors, PacmaMatchesFrozenVectors)
{
    pa::PaContext ctx;
    for (const PacmaVector &v : kPacmaVectors)
        EXPECT_EQ(ctx.pacma(v.ptr, v.mod, v.size), v.signedPtr);
}

// ---- batch kernel vs scalar property tests (DESIGN.md §14) --------------

/** Every kernel the build compiled in and this host can run. */
std::vector<qarma::SlicedKernel>
availableKernels()
{
    using qarma::QarmaSliced;
    using qarma::SlicedKernel;
    std::vector<SlicedKernel> kernels = {SlicedKernel::kScalar,
                                         SlicedKernel::kSliced64};
    if (QarmaSliced::simd512Available())
        kernels.push_back(SlicedKernel::kSimd512);
    return kernels;
}

TEST(PacVectors, BatchEncryptMatchesScalarForRaggedBatches)
{
    // Property: for every compiled-in kernel, every S-box family and
    // round count AOS instantiates, and batch sizes straddling the
    // lane widths (1..513, full lanes, ragged tails, sub-slicing
    // sizes), the batch kernel is bit-identical to the scalar cipher.
    const size_t sizes[] = {1,  2,   7,   15,  16,  17,  63, 64,
                            65, 100, 127, 128, 129, 200, 511, 513};
    Rng rng(0xba7c4'0001ull);
    for (const qarma::SlicedKernel kernel : availableKernels()) {
        for (const Sbox box : kBoxes) {
            for (const unsigned rounds : {5u, 7u}) {
                const qarma::QarmaSliced sliced(box, rounds, kernel);
                const Qarma64 scalar(box, rounds);
                const auto ks =
                    Qarma64::expandKey({rng.next(), rng.next()});
                for (const size_t n : sizes) {
                    std::vector<u64> pt(n), tw(n), ct(n);
                    for (size_t i = 0; i < n; ++i) {
                        pt[i] = rng.next();
                        tw[i] = rng.next();
                    }
                    sliced.encrypt(pt.data(), tw.data(), n, ks,
                                   ct.data());
                    for (size_t i = 0; i < n; ++i) {
                        ASSERT_EQ(ct[i],
                                  scalar.encrypt(pt[i], tw[i], ks))
                            << "kernel=" << static_cast<int>(kernel)
                            << " box=" << static_cast<int>(box)
                            << " rounds=" << rounds << " n=" << n
                            << " lane=" << i;
                    }
                }
            }
        }
    }
}

TEST(PacVectors, BatchEncryptInPlaceAliasing)
{
    // ct == pt is documented as legal; the transpose must not read
    // lanes it already wrote.
    Rng rng(0xba7c4'0002ull);
    for (const qarma::SlicedKernel kernel : availableKernels()) {
        const qarma::QarmaSliced sliced(Sbox::kSigma1, 7, kernel);
        const Qarma64 scalar(Sbox::kSigma1, 7);
        const auto ks = Qarma64::expandKey({rng.next(), rng.next()});
        const size_t n = 200;
        std::vector<u64> buf(n), tw(n), ref(n);
        for (size_t i = 0; i < n; ++i) {
            buf[i] = rng.next();
            tw[i] = rng.next();
            ref[i] = scalar.encrypt(buf[i], tw[i], ks);
        }
        sliced.encrypt(buf.data(), tw.data(), n, ks, buf.data());
        EXPECT_EQ(buf, ref) << "kernel=" << static_cast<int>(kernel);
    }
}

TEST(PacVectors, BatchPacMatchesScalarPacma)
{
    // PaContext::batchPac must agree with per-pointer pacma() on
    // arbitrary request windows, including the size == 0 re-signs the
    // free() path issues and windows below the slicing threshold.
    pa::PaContext ctx;
    Rng rng(0xba7c4'0003ull);
    for (const size_t n : {size_t{1}, size_t{5}, size_t{16}, size_t{64},
                           size_t{200}, size_t{513}}) {
        std::vector<Addr> ptrs(n), out(n);
        std::vector<u64> mods(n), sizes(n);
        for (size_t i = 0; i < n; ++i) {
            ptrs[i] = rng.next() & 0x00003fffffffffffull;
            mods[i] = rng.next();
            sizes[i] = (i % 7 == 0) ? 0 : rng.below(8192);
        }
        ctx.batchPac(ptrs.data(), mods.data(), sizes.data(), n,
                     pa::PaKey::kModifierM, out.data());
        for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(out[i], ctx.pacma(ptrs[i], mods[i], sizes[i]))
                << "n=" << n << " slot=" << i;
        }
    }
}

TEST(PacVectors, PacBatchQueueDrainsThroughBatchPac)
{
    // The deferred-signing queue: slots come back in enqueue order and
    // clear() keeps the pool reusable.
    pa::PaContext ctx;
    pa::PacBatch batch(&ctx);
    Rng rng(0xba7c4'0004ull);
    for (int round = 0; round < 3; ++round) {
        const size_t n = 40 + 7 * round;
        std::vector<Addr> ptrs(n);
        std::vector<u64> mods(n), sizes(n);
        for (size_t i = 0; i < n; ++i) {
            ptrs[i] = rng.next() & 0x00003fffffffffffull;
            mods[i] = rng.next();
            sizes[i] = rng.below(4096);
            EXPECT_EQ(batch.enqueue(ptrs[i], mods[i], sizes[i]), i);
        }
        EXPECT_EQ(batch.pending(), n);
        batch.flush();
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(batch.result(i),
                      ctx.pacma(ptrs[i], mods[i], sizes[i]));
        batch.clear();
        EXPECT_EQ(batch.pending(), 0u);
    }
}

} // namespace
} // namespace aos
