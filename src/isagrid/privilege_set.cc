#include "isagrid/privilege_set.hh"

#include "isa/riscv/opcodes.hh"
#include "isa/x86/opcodes.hh"

namespace isagrid {

bool
PrivilegeSet::implicitInput(const IsaModel &isa, std::uint32_t csr_addr)
{
    if (isa.name() == "x86")
        return csr_addr == x86::CSR_IDTR;
    return csr_addr == riscv::CSR_STVEC || csr_addr == riscv::CSR_SEPC;
}

std::vector<std::uint32_t>
PrivilegeSet::highCsrs(const PolicyView &policy, DomainId target)
{
    const IsaModel &isa = policy.isa();
    const auto &csrs = isa.controlledCsrAddrs(); // in bitmap-index order
    std::vector<std::uint32_t> high;
    for (CsrIndex i = 0; i < csrs.size(); ++i) {
        if (isa.isGridReg(csrs[i]))
            continue;
        if (implicitInput(isa, csrs[i]))
            continue;
        if (policy.csrRead(target, i).allowed())
            continue;
        high.push_back(csrs[i]);
    }
    return high;
}

} // namespace isagrid
