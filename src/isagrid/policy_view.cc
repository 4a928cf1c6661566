#include "isagrid/policy_view.hh"

#include "isagrid/pcu.hh"

namespace isagrid {

namespace {

bool
onBus(const PhysMem &mem, Addr addr, std::uint64_t size)
{
    return addr < mem.size() && mem.size() - addr >= size;
}

} // namespace

PolicySnapshot
PolicySnapshot::fromPcu(const PrivilegeCheckUnit &pcu)
{
    PolicySnapshot snap;
    for (std::uint8_t r = 0; r < numGridRegs; ++r)
        snap.regs[r] = pcu.gridReg(static_cast<GridReg>(r));
    return snap;
}

PolicyView::PolicyView(const IsaModel &isa, const PhysMem &mem,
                       const PolicySnapshot &snap)
    : isa_(isa), mem(mem), snap(snap),
      hpt(isa.numInstTypes(), isa.numControlledCsrs(),
          isa.numMaskableCsrs())
{
    ISAGRID_ASSERT(hpt.numInstGroups() == 1,
                   "%u-word instruction-bitmap row: the one-word read no "
                   "longer models the bypass register's row refill",
                   hpt.numInstGroups());
}

Verdict
PolicyView::gate(GateId id) const
{
    SgtEntry e;
    entry(id, sgtEntryAddr(snap.reg(GridReg::GateAddr), id), e);
    return gateCall(id, e.gate_addr);
}

std::array<PolicyTable, 5>
PolicyView::tables() const
{
    const DomainId domains = numDomains();
    const RegVal hcsb = reg(GridReg::Hcsb);
    const RegVal hcsl = reg(GridReg::Hcsl);
    return {{
        {"instruction bitmaps", reg(GridReg::InstCap),
         hpt.instStride() * domains},
        {"register bitmaps", reg(GridReg::CsrCap),
         hpt.regStride() * domains},
        {"bit-mask arrays", reg(GridReg::CsrBitMask),
         hpt.maskStride() * domains},
        {"switching gate table", reg(GridReg::GateAddr),
         SgtEntry::sizeBytes * numGates()},
        {"trusted stack", hcsb, hcsl > hcsb ? hcsl - hcsb : 0},
    }};
}

bool
PolicyView::word(HptKind, DomainId, std::uint32_t, Addr addr,
                 std::uint64_t &out) const
{
    if (!onBus(mem, addr, 8))
        return false;
    out = mem.read64(addr);
    return true;
}

bool
PolicyView::entry(GateId, Addr addr, SgtEntry &out) const
{
    auto at = [this](Addr a) -> RegVal {
        return onBus(mem, a, 8) ? mem.read64(a) : 0;
    };
    out = {at(addr), at(addr + 8), at(addr + 16)};
    return onBus(mem, addr, SgtEntry::sizeBytes);
}

} // namespace isagrid
