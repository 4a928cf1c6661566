/**
 * @file
 * ISA-Grid's privilege decisions, stated once for the PCU and every
 * static analysis (Sections 4.1, 4.2 and 4.4).
 *
 * Each rule reads the HPT or SGT through a word source and returns a
 * Verdict: the fault the PCU raises (None when the check passes), and
 * for a CSR write decided by the bit-mask array, the mask word. The
 * source is a template parameter, resolved at compile time, so the
 * PCU's check path has no indirect call:
 *
 *   RegVal reg(GridReg r) const;             // the Table 2 registers
 *   const HptLayout &layout() const;
 *   bool word(HptKind kind, DomainId d, std::uint32_t index, Addr addr,
 *             std::uint64_t &out);           // one HPT word
 *   bool entry(GateId id, Addr addr, SgtEntry &out);  // one SGT entry
 *
 * word() and entry() return false when the read leaves physical
 * memory: the PCU raises MemoryFault for such a walk. A CSR is named
 * by its register-bitmap and bit-mask indices (IsaModel::csrBitmapIndex
 * and csrMaskIndex; invalidCsrIndex where it has none). The PCU's source
 * is its cached walk (privilege caches, bypass register, stalls); the
 * analyses' is PolicyView, a bus-checked direct read of guest memory.
 */

#ifndef ISAGRID_ISAGRID_PRIVILEGE_RULES_HH_
#define ISAGRID_ISAGRID_PRIVILEGE_RULES_HH_

#include <cstdint>

#include "isa/grid_regs.hh"
#include "isa/inst.hh"
#include "isagrid/hpt.hh"
#include "isagrid/sgt.hh"
#include "sim/logging.hh"

namespace isagrid {

/** Outcome of one privilege rule, before any operand value is known. */
struct Verdict
{
    /** The PCU's fault; None when the check passes. */
    FaultType fault = FaultType::None;
    /**
     * A CSR write without the write bit that went to the bit-mask
     * array: with fault None, the equation over the old and new value
     * decides (see write()); with MemoryFault, the mask word lies off
     * the bus.
     */
    bool masked = false;
    RegVal mask = 0;  //!< the bit-mask word on the masked path
    SgtEntry entry{}; //!< the SGT entry a gate call read

    /** The check passes whatever the operand values. */
    bool allowed() const { return fault == FaultType::None && !masked; }

    /** A masked write whose mask word was read: the values decide. */
    bool
    maskDecides() const
    {
        return masked && fault == FaultType::None;
    }

    /** The fault of a CSR write of @p new_value over @p old_value. */
    FaultType
    write(RegVal old_value, RegVal new_value) const
    {
        if (maskDecides() &&
            !HptLayout::maskPermits(old_value, new_value, mask))
            return FaultType::CsrMaskViolation;
        return fault;
    }
};

namespace rules {

/**
 * Domain-nr bounds every switch destination (0: no domains configured,
 * nothing to bound). The SGT's dest_domain and a trusted-stack frame's
 * source domain are raw guest-memory words: switching into an
 * unconfigured domain would read its HPT rows from unrelated memory,
 * and a huge id would overflow the privilege-cache tag field.
 */
template <class Source>
bool
configuredDomain(const Source &src, DomainId d)
{
    const RegVal domains = src.reg(GridReg::DomainNr);
    return domains == 0 || d < domains;
}

/** Execute permission of instruction type @p type in domain @p d. */
template <class Source>
Verdict
instruction(Source &src, DomainId d, InstTypeId type)
{
    // Domain-0 holds every privilege by default (Section 4.4).
    if (d == 0)
        return {};
    const HptLayout &hpt = src.layout();
    ISAGRID_ASSERT(type < hpt.instTypes(), "inst type %u", type);
    const std::uint32_t group = HptLayout::instGroupOf(type);
    std::uint64_t word = 0;
    if (!src.word(HptKind::InstBitmap, d, group,
                  hpt.instWordAddr(src.reg(GridReg::InstCap), d, group),
                  word))
        return {FaultType::MemoryFault};
    if (!((word >> HptLayout::instBitOf(type)) & 1))
        return {FaultType::InstPrivilege};
    return {};
}

/** The register-bitmap word holding CSR index @p index of @p d. */
template <class Source>
bool
regWord(Source &src, DomainId d, CsrIndex index, std::uint64_t &word)
{
    const std::uint32_t group = HptLayout::regGroupOf(index);
    return src.word(HptKind::RegBitmap, d, group,
                    src.layout().regWordAddr(src.reg(GridReg::CsrCap), d,
                                             group),
                    word);
}

/** Read permission of the CSR at register-bitmap index @p index. */
template <class Source>
Verdict
csrRead(Source &src, DomainId d, CsrIndex index)
{
    if (d == 0 || index == invalidCsrIndex)
        return {}; // an uncontrolled CSR is outside ISA-Grid's scope
    std::uint64_t word = 0;
    if (!regWord(src, d, index, word))
        return {FaultType::MemoryFault};
    if (!((word >> HptLayout::regReadBit(index)) & 1))
        return {FaultType::CsrPrivilege};
    return {};
}

/**
 * The bit-mask path of a CSR write: the domain's mask word at
 * bit-mask index @p mask_index (all bits for domain-0). A CSR without
 * a bit-mask entry has no such path: the write is a CsrPrivilege fault.
 */
template <class Source>
Verdict
csrMask(Source &src, DomainId d, CsrIndex mask_index)
{
    if (d == 0)
        return {FaultType::None, true, ~RegVal{0}};
    if (mask_index == invalidCsrIndex)
        return {FaultType::CsrPrivilege};
    std::uint64_t mask = 0;
    if (!src.word(HptKind::BitMask, d, mask_index,
                  src.layout().maskAddr(src.reg(GridReg::CsrBitMask), d,
                                        mask_index),
                  mask))
        return {FaultType::MemoryFault, true};
    return {FaultType::None, true, mask};
}

/**
 * Write permission of an explicitly accessed CSR: the write bit grants
 * the full write; without it a bit-maskable CSR defers to the
 * equation (V_csr ^ V_write) & ~M == 0 (Verdict::write()).
 */
template <class Source>
Verdict
csrWrite(Source &src, DomainId d, CsrIndex index, CsrIndex mask_index)
{
    if (d == 0 || index == invalidCsrIndex)
        return {};
    std::uint64_t word = 0;
    if (!regWord(src, d, index, word))
        return {FaultType::MemoryFault};
    if ((word >> HptLayout::regWriteBit(index)) & 1)
        return {};
    return csrMask(src, d, mask_index);
}

/**
 * A CSR instruction's access to ISA-Grid register @p reg (Table 2):
 * domain and pdomain are readable from every domain and moved only by
 * the switching engine, never written, even from domain-0 (Section
 * 5.1); every other register is domain-0's alone.
 */
inline Verdict
gridReg(DomainId d, GridReg reg, bool write)
{
    const bool domain_reg =
        reg == GridReg::Domain || reg == GridReg::PDomain;
    if (write ? domain_reg || d != 0 : !domain_reg && d != 0)
        return {FaultType::CsrPrivilege};
    return {};
}

/**
 * hccall/hccalls through gate @p gate executed at @p pc: the id must
 * name an SGT entry, the entry must lie in memory, the gate fires
 * only at its registered address (property (i)) and its destination
 * must be a configured domain. The verdict carries the entry read.
 */
template <class Source>
Verdict
gateCall(Source &src, GateId gate, Addr pc)
{
    Verdict v;
    if (gate >= src.reg(GridReg::GateNr)) {
        v.fault = FaultType::GateFault;
    } else if (!src.entry(gate,
                          sgtEntryAddr(src.reg(GridReg::GateAddr), gate),
                          v.entry)) {
        v.fault = FaultType::MemoryFault;
    } else if (v.entry.gate_addr != pc ||
               !configuredDomain(src, v.entry.dest_domain)) {
        v.fault = FaultType::GateFault;
    }
    return v;
}

/**
 * hcrets popping a frame whose source domain is @p return_domain: it
 * may never re-enter domain-0 (Section 4.4) — domain-0 owns every
 * privilege and an attacker-controlled return would otherwise land
 * there at a non-registered destination — nor an unconfigured domain.
 */
template <class Source>
Verdict
frameReturn(const Source &src, DomainId return_domain)
{
    if (return_domain == 0 || !configuredDomain(src, return_domain))
        return {FaultType::GateFault};
    return {};
}

} // namespace rules

} // namespace isagrid

#endif // ISAGRID_ISAGRID_PRIVILEGE_RULES_HH_
