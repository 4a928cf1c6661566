/**
 * @file
 * The Hybrid Privilege Table (HPT) memory layout (Section 4.1).
 *
 * The HPT lives in trusted memory and consists of three structures,
 * each an array indexed by domain id:
 *
 *  - instruction bitmaps: one execute bit per instruction type,
 *  - register bitmaps: two bits (read, write) per controlled CSR,
 *  - bit-mask arrays: one 64-bit write mask per bit-maskable CSR.
 *
 * Their base addresses are held in the inst-cap, csr-cap and
 * csr-bit-mask registers (Table 2). This class computes addresses only;
 * storage is guest physical memory, so domain-0 software (or the
 * host-side configurator) writes the tables with ordinary stores and
 * the PCU reads them on privilege-cache misses.
 */

#ifndef ISAGRID_ISAGRID_HPT_HH_
#define ISAGRID_ISAGRID_HPT_HH_

#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace isagrid {

/**
 * The three HPT structures. The value is the entry-type field of the
 * unified privilege cache's tag (Section 4.3).
 */
enum class HptKind : std::uint64_t
{
    InstBitmap = 1, RegBitmap = 2, BitMask = 3,
};

/** Address computation for the three HPT structures (see file docs). */
class HptLayout
{
  public:
    /** Bits per in-memory word (and per cache entry payload). */
    static constexpr std::uint32_t wordBits = 64;
    /** CSRs covered by one register-bitmap word (2 bits each). */
    static constexpr std::uint32_t csrsPerWord = wordBits / 2;

    HptLayout() = default;

    /**
     * @param num_inst_types  instruction bitmap length in bits
     * @param num_csrs        register bitmap length in CSRs
     * @param num_maskable    bit-mask array length in CSRs
     */
    HptLayout(std::uint32_t num_inst_types, std::uint32_t num_csrs,
              std::uint32_t num_maskable)
        : numInstTypes(num_inst_types), numCsrs(num_csrs),
          numMaskable(num_maskable)
    {
    }

    std::uint32_t
    numInstGroups() const
    {
        return (numInstTypes + wordBits - 1) / wordBits;
    }

    std::uint32_t
    numRegGroups() const
    {
        return (numCsrs + csrsPerWord - 1) / csrsPerWord;
    }

    std::uint32_t numMaskEntries() const { return numMaskable; }

    /** Bytes occupied by one domain's instruction bitmap. */
    std::uint64_t instStride() const { return numInstGroups() * 8ull; }

    /** Bytes occupied by one domain's register bitmap. */
    std::uint64_t regStride() const { return numRegGroups() * 8ull; }

    /** Bytes occupied by one domain's bit-mask array. */
    std::uint64_t maskStride() const { return numMaskable * 8ull; }

    /** Address of the word holding instruction group @p group. */
    Addr
    instWordAddr(Addr base, DomainId domain, std::uint32_t group) const
    {
        ISAGRID_ASSERT(group < numInstGroups(), "group %u", group);
        return base + domain * instStride() + group * 8ull;
    }

    /** Address of the word holding register-bitmap group @p group. */
    Addr
    regWordAddr(Addr base, DomainId domain, std::uint32_t group) const
    {
        ISAGRID_ASSERT(group < numRegGroups(), "group %u", group);
        return base + domain * regStride() + group * 8ull;
    }

    /** Address of the bit-mask of maskable CSR @p mask_index. */
    Addr
    maskAddr(Addr base, DomainId domain, CsrIndex mask_index) const
    {
        ISAGRID_ASSERT(mask_index < numMaskable, "mask %u", mask_index);
        return base + domain * maskStride() + mask_index * 8ull;
    }

    /** Register-bitmap group id of a CSR index. */
    static std::uint32_t regGroupOf(CsrIndex csr) { return csr / csrsPerWord; }

    /** Bit position of the *read* bit within its word. */
    static std::uint32_t
    regReadBit(CsrIndex csr)
    {
        return (csr % csrsPerWord) * 2;
    }

    /** Bit position of the *write* bit within its word. */
    static std::uint32_t
    regWriteBit(CsrIndex csr)
    {
        return (csr % csrsPerWord) * 2 + 1;
    }

    /** Instruction-bitmap group id of an instruction type. */
    static std::uint32_t instGroupOf(InstTypeId type) { return type / wordBits; }

    /** Bit position of an instruction type within its word. */
    static std::uint32_t instBitOf(InstTypeId type) { return type % wordBits; }

    /**
     * The bit-mask write-permission equation of Section 4.1:
     * permitted iff (V_csr XOR V_write) AND NOT M == 0.
     */
    static bool
    maskPermits(RegVal v_csr, RegVal v_write, RegVal mask)
    {
        return ((v_csr ^ v_write) & ~mask) == 0;
    }

    std::uint32_t instTypes() const { return numInstTypes; }
    std::uint32_t csrs() const { return numCsrs; }
    std::uint32_t maskable() const { return numMaskable; }

  private:
    std::uint32_t numInstTypes = 0;
    std::uint32_t numCsrs = 0;
    std::uint32_t numMaskable = 0;
};

} // namespace isagrid

#endif // ISAGRID_ISAGRID_HPT_HH_
