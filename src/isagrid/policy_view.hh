/**
 * @file
 * The analyses' view of a domain configuration: the Table 2 register
 * snapshot and the privilege rules evaluated against guest memory.
 */

#ifndef ISAGRID_ISAGRID_POLICY_VIEW_HH_
#define ISAGRID_ISAGRID_POLICY_VIEW_HH_

#include <array>
#include <cstdint>

#include "isa/grid_regs.hh"
#include "isa/isa_model.hh"
#include "isagrid/hpt.hh"
#include "isagrid/privilege_rules.hh"
#include "isagrid/sgt.hh"
#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace isagrid {

class PrivilegeCheckUnit;

/**
 * The domain configuration under analysis: the Table 2 register
 * values. Everything else (HPT words, SGT entries) is read from guest
 * memory through these bases, exactly as the PCU would on a cache miss.
 */
struct PolicySnapshot
{
    std::array<RegVal, numGridRegs> regs{};

    RegVal reg(GridReg r) const
    {
        return regs[static_cast<std::size_t>(r)];
    }

    /** Capture the live register values of a configured PCU. */
    static PolicySnapshot fromPcu(const PrivilegeCheckUnit &pcu);
};

/** One privilege table's extent in guest memory. */
struct PolicyTable
{
    const char *name;
    Addr base;
    std::uint64_t bytes;
};

/**
 * The privilege rules (privilege_rules.hh) over guest memory read
 * directly through the snapshot's base registers, as the PCU reads it
 * on a privilege-cache miss: a verdict here is the PCU's outcome for
 * the same check, MemoryFault for a walk off the bus included
 * (docs/isa_extension.md §6).
 *
 * The instruction check reads one word where the PCU's bypass register
 * (on by default) refills the domain's whole instruction-bitmap row;
 * both ISA models fit the row in one word, which the constructor
 * asserts, so the two agree.
 */
class PolicyView
{
  public:
    PolicyView(const IsaModel &isa, const PhysMem &mem,
               const PolicySnapshot &snap);

    const IsaModel &isa() const { return isa_; }
    DomainId numDomains() const { return snap.reg(GridReg::DomainNr); }
    GateId numGates() const { return snap.reg(GridReg::GateNr); }

    Verdict
    inst(DomainId d, InstTypeId type) const
    {
        return rules::instruction(*this, d, type);
    }
    /** CSRs by register-bitmap and bit-mask index (privilege_rules.hh). */
    Verdict
    csrRead(DomainId d, CsrIndex index) const
    {
        return rules::csrRead(*this, d, index);
    }
    Verdict
    csrWrite(DomainId d, CsrIndex index, CsrIndex mask_index) const
    {
        return rules::csrWrite(*this, d, index, mask_index);
    }
    /** The bit-mask path alone, whatever the write bit says. */
    Verdict
    csrMask(DomainId d, CsrIndex mask_index) const
    {
        return rules::csrMask(*this, d, mask_index);
    }
    Verdict
    gateCall(GateId id, Addr pc) const
    {
        return rules::gateCall(*this, id, pc);
    }
    /** A call through gate @p id at the address its entry registers. */
    Verdict gate(GateId id) const;
    Verdict
    frameReturn(DomainId return_domain) const
    {
        return rules::frameReturn(*this, return_domain);
    }

    /**
     * The three HPT structures (sized by domain-nr), the SGT (by
     * gate-nr) and the trusted stack, in that order.
     */
    std::array<PolicyTable, 5> tables() const;

    // --- word source of the privilege rules ---

    RegVal reg(GridReg r) const { return snap.reg(r); }
    const HptLayout &layout() const { return hpt; }
    bool word(HptKind, DomainId, std::uint32_t, Addr addr,
              std::uint64_t &out) const;
    /** Off the bus, the words that lie in memory and zero for the rest. */
    bool entry(GateId, Addr addr, SgtEntry &out) const;

  private:
    const IsaModel &isa_;
    const PhysMem &mem;
    PolicySnapshot snap;
    HptLayout hpt;
};

} // namespace isagrid

#endif // ISAGRID_ISAGRID_POLICY_VIEW_HH_
