/**
 * @file
 * Relational (two-copy) strengthening of the model checker.
 *
 * The model checker (src/modelcheck) explores single executions of the
 * domain-switch transition system and asks reachability questions.
 * Noninterference is not a reachability property of one execution: it
 * relates *two* executions that agree on everything a target domain T
 * may read and differ arbitrarily above T's privilege set. This module
 * lifts the checker's per-bit CSR abstraction to that relational
 * setting — each abstract state describes a *pair* of runs:
 *
 *   state = (current domain, trusted-stack frames — shared, since the
 *            pair executes the same instructions while low-equivalent —
 *            per-controlled-CSR diff mask D[i]: bits on which the two
 *            copies of CSR i may differ,
 *            per-domain carry set: the high CSRs whose differing values
 *            a domain's registers may hold after a permitted read)
 *
 * The initial diff is maximal (D[i] = ~0) exactly on T's high CSRs —
 * the controlled CSRs outside T's read set (PrivilegeSet::highCsrs
 * semantics). One explorer (modelcheck/explorer.hh) walks the domain
 * switches — gate calls and hcrets pops — for both analyses; this
 * module supplies only its abstraction (the diff and carry sets) and
 * its successors: permitted CSR writes and permitted CSR *reads*
 * (which move a diff into a domain's registers). Two relational
 * properties are checked:
 *
 *  - rel-mask-observe: T itself performs a masked write of a high CSR
 *    whose diff escapes the mask (D[i] & ~M != 0). The bit-mask
 *    equation (old ^ new) & ~M == 0 then accepts in one copy and
 *    faults in the other — a fault channel through which T reads the
 *    hidden bits. Reported as a Violation.
 *  - rel-high-flow: a domain whose registers carry high data performs
 *    a full write of a CSR T may read — a persistent-state flow that
 *    outlives the writer's execution window. Reported as a Warning
 *    (the register abstraction has no per-register precision).
 *
 * Both are PLAUSIBLE until the targeted dynamic experiments in
 * contract.cc confirm or discharge them. Values returned across gates
 * in registers are deliberately *not* treated as flows: the gate
 * calling convention is the architecture's declassification interface
 * (a service reading its own CSR and handing the value to its caller
 * is the intended contract), matching the per-window scoping of the
 * dynamic oracle.
 */

#ifndef ISAGRID_CONTRACT_RELCHECK_HH_
#define ISAGRID_CONTRACT_RELCHECK_HH_

#include "contract/contract.hh"

namespace isagrid {

/**
 * Explore the relational state space for one target domain and append
 * the PLAUSIBLE findings. @p initial_domain names the domain of the
 * pair's shared start state (0 for a booted kernel image, the payload
 * domain for attack images).
 */
void runRelationalCheck(const IsaModel &isa, const PhysMem &mem,
                        const PolicySnapshot &snap,
                        const std::vector<CodeRegion> &regions,
                        DomainId initial_domain, DomainId target,
                        const ContractOptions &options,
                        std::vector<ContractFinding> &findings,
                        ContractStats &stats);

} // namespace isagrid

#endif // ISAGRID_CONTRACT_RELCHECK_HH_
