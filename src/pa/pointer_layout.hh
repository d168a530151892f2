/**
 * @file
 * The AOS pointer bit layout: AHC | PAC | virtual address.
 *
 * AOS stores two metadata fields in the unused upper bits of a 64-bit
 * data pointer (paper Fig. 6):
 *
 *   - a 2-bit address hashing code (AHC). Nonzero AHC marks the pointer
 *     as signed (protected) and encodes which bits of the address are
 *     invariant across the object (paper Alg. 1);
 *   - a PAC of pacSize bits computed by QARMA over the raw address.
 *
 * The paper interleaves the PAC around AArch64's bit 55; we use a
 * contiguous layout (documented in DESIGN.md) which is functionally
 * identical:
 *
 *   bit 63........62  61..............(62-pacSize)  (61-pacSize)......0
 *        AHC (2 bits)  PAC (pacSize bits)            virtual address
 *
 * vaSize + pacSize + 2 must be <= 64; the defaults (46 + 16 + 2) match
 * the paper's 16-bit PAC configuration (Table IV).
 */

#ifndef AOS_PA_POINTER_LAYOUT_HH
#define AOS_PA_POINTER_LAYOUT_HH

#include "common/bitfield.hh"
#include "common/types.hh"

namespace aos::pa {

/** Immutable description of where AHC/PAC/VA live in a pointer. */
class PointerLayout
{
  public:
    /**
     * @param pac_size PAC width in bits (the paper supports 11..32).
     * @param va_size Virtual address width in bits.
     */
    explicit PointerLayout(unsigned pac_size = 16, unsigned va_size = 46);

    unsigned pacSize() const { return _pacSize; }
    unsigned vaSize() const { return _vaSize; }

    /** Number of distinct PAC values = rows in the HBT. */
    u64 pacSpace() const { return u64{1} << _pacSize; }

    /** The raw virtual address with all metadata bits cleared. */
    Addr
    strip(Addr ptr) const
    {
        return ptr & mask(_vaSize);
    }

    /** Extract the PAC field. */
    u64
    pac(Addr ptr) const
    {
        return bits(ptr, 61, 62 - _pacSize);
    }

    /** Extract the 2-bit AHC field. */
    u64
    ahc(Addr ptr) const
    {
        return bits(ptr, 63, 62);
    }

    /** True iff the pointer carries a nonzero AHC, i.e. is signed. */
    bool signed_(Addr ptr) const { return ahc(ptr) != 0; }

    /** Compose a pointer from raw address + metadata fields. */
    Addr
    compose(Addr raw_addr, u64 pac_value, u64 ahc_value) const
    {
        Addr ptr = strip(raw_addr);
        ptr = insertBits(ptr, 61, 62 - _pacSize, pac_value);
        ptr = insertBits(ptr, 63, 62, ahc_value);
        return ptr;
    }

    /**
     * Pointer-fault replay hook (ObligationChecker phase 3): flip one
     * bit of the metadata field. Bit 0 is the PAC LSB; bits pacSize
     * and pacSize+1 are the AHC, so a draw over [0, pacSize+2) strikes
     * the whole signature.
     */
    Addr
    flipMetaBit(Addr ptr, unsigned bit) const
    {
        return ptr ^ (Addr{1} << (62 - _pacSize + bit % (_pacSize + 2)));
    }

    /** Pointer-fault replay hook: flip one virtual-address bit. */
    Addr
    flipVaBit(Addr ptr, unsigned bit) const
    {
        return ptr ^ (Addr{1} << (bit % _vaSize));
    }

    /**
     * The address hashing code of paper Algorithm 1. Classifies the
     * object [addr, addr+size) by which address bits are invariant
     * inside it: 1 for <=64-byte (bin) objects, 2 for <=256-byte
     * objects, 3 otherwise. Always nonzero, so signing with any size
     * (including the xzr re-sign after free()) marks the pointer.
     */
    u64 computeAhc(Addr addr, u64 size) const;

  private:
    unsigned _pacSize;
    unsigned _vaSize;
};

} // namespace aos::pa

#endif // AOS_PA_POINTER_LAYOUT_HH
