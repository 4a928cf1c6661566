/**
 * @file
 * The privilege-set ↔ taint-seed mapping of the contract checkers.
 *
 * ISA-Grid's noninterference claim is stated per domain: a domain
 * confined to privilege set P must not observe or influence
 * architectural state outside P. PrivilegeSet derives, from the
 * PolicyView of a configuration (the PCU's own read rules), the *high*
 * state of a target domain: the controlled CSRs the domain may not
 * read (the taint seeds of the self-composition oracle) and the free
 * trusted-memory bytes hidden behind the HPT carve-up.
 *
 * CSRs the trap machinery consumes implicitly (the trap vector and the
 * saved trap PC) are excluded from the high set: they are trusted
 * configuration installed by domain-0, not another domain's secret,
 * and perturbing them would redirect execution wholesale rather than
 * model an information flow.
 */

#ifndef ISAGRID_ISAGRID_PRIVILEGE_SET_HH_
#define ISAGRID_ISAGRID_PRIVILEGE_SET_HH_

#include <cstdint>
#include <vector>

#include "isagrid/domain_manager.hh"
#include "isagrid/policy_view.hh"

namespace isagrid {

/** The high state of a domain under one configuration. */
struct PrivilegeSet
{
    /**
     * True when @p csr_addr is consumed implicitly by trap entry or
     * trap return (stvec / sepc on RISC-V, the IDTR on x86) — trusted
     * configuration, never a valid taint seed.
     */
    static bool implicitInput(const IsaModel &isa,
                              std::uint32_t csr_addr);

    /**
     * The high CSR set of @p target: every controlled CSR outside the
     * domain's read set, minus the implicit trap inputs. These are the
     * taint seeds the self-composition oracle perturbs.
     */
    static std::vector<std::uint32_t> highCsrs(const PolicyView &policy,
                                               DomainId target);

    /**
     * The free trusted-memory range [first, second): bytes inside
     * [Tmemb, Tmeml) behind the carved HPT/SGT/trusted-stack
     * structures. No software outside domain-0 can address them, so
     * they are high for every other domain.
     */
    static std::pair<Addr, Addr>
    freeTrustedMemory(const DomainManager &dm,
                      const DomainManagerConfig &config)
    {
        return {dm.trustedStackLimit(),
                config.tmem_base + config.tmem_size};
    }
};

} // namespace isagrid

#endif // ISAGRID_ISAGRID_PRIVILEGE_SET_HH_
