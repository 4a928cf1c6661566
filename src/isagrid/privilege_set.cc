#include "isagrid/privilege_set.hh"

#include "isa/riscv/opcodes.hh"
#include "isa/x86/opcodes.hh"

namespace isagrid {

PrivilegeSet::PrivilegeSet(const IsaModel &isa, const PhysMem &mem,
                           const PrivilegeCheckUnit &pcu)
    : isa_(isa), mem_(mem),
      hpt(isa.numInstTypes(), isa.numControlledCsrs(),
          isa.numMaskableCsrs()),
      csrCapBase(pcu.gridReg(GridReg::CsrCap)),
      instCapBase(pcu.gridReg(GridReg::InstCap)),
      maskBase(pcu.gridReg(GridReg::CsrBitMask)),
      domainNr(pcu.gridReg(GridReg::DomainNr))
{
}

RegVal
PrivilegeSet::word(Addr addr) const
{
    // Out-of-memory table addresses read as zero (deny), like the
    // static analyses; the PCU refuses the same walk with MemoryFault.
    if (addr >= mem_.size() || mem_.size() - addr < 8)
        return 0;
    return mem_.read64(addr);
}

DomainId
PrivilegeSet::numDomains() const
{
    return domainNr;
}

bool
PrivilegeSet::csrReadable(DomainId domain, std::uint32_t csr_addr) const
{
    if (domain == 0)
        return true;
    CsrIndex index = isa_.csrBitmapIndex(csr_addr);
    if (index == invalidCsrIndex)
        return true; // uncontrolled CSRs are unrestricted
    Addr addr = hpt.regWordAddr(csrCapBase, domain,
                                HptLayout::regGroupOf(index));
    return (word(addr) >> HptLayout::regReadBit(index)) & 1;
}

bool
PrivilegeSet::csrWritable(DomainId domain, std::uint32_t csr_addr) const
{
    if (domain == 0)
        return true;
    CsrIndex index = isa_.csrBitmapIndex(csr_addr);
    if (index == invalidCsrIndex)
        return true;
    Addr addr = hpt.regWordAddr(csrCapBase, domain,
                                HptLayout::regGroupOf(index));
    return (word(addr) >> HptLayout::regWriteBit(index)) & 1;
}

RegVal
PrivilegeSet::csrMask(DomainId domain, std::uint32_t csr_addr) const
{
    CsrIndex mask_index = isa_.csrMaskIndex(csr_addr);
    if (mask_index == invalidCsrIndex)
        return 0;
    return word(hpt.maskAddr(maskBase, domain, mask_index));
}

bool
PrivilegeSet::instAllowed(DomainId domain, InstTypeId type) const
{
    if (domain == 0)
        return true;
    Addr addr = hpt.instWordAddr(instCapBase, domain,
                                 HptLayout::instGroupOf(type));
    return (word(addr) >> HptLayout::instBitOf(type)) & 1;
}

bool
PrivilegeSet::implicitInput(const IsaModel &isa, std::uint32_t csr_addr)
{
    if (isa.name() == "x86")
        return csr_addr == x86::CSR_IDTR;
    return csr_addr == riscv::CSR_STVEC || csr_addr == riscv::CSR_SEPC;
}

std::vector<std::uint32_t>
PrivilegeSet::highCsrs(DomainId target) const
{
    std::vector<std::uint32_t> high;
    for (std::uint32_t csr : isa_.controlledCsrAddrs()) {
        if (isa_.isGridReg(csr))
            continue;
        if (implicitInput(isa_, csr))
            continue;
        if (csrReadable(target, csr))
            continue;
        high.push_back(csr);
    }
    return high;
}

} // namespace isagrid
