#include "contract/relcheck.hh"

#include <set>
#include <tuple>

#include "isa/state.hh"
#include "isagrid/privilege_set.hh"
#include "modelcheck/explorer.hh"

namespace isagrid {

namespace {

/** One controlled CSR with its Section 4.1 indices. */
struct TrackedCsr
{
    std::uint32_t addr = 0;
    CsrIndex bitmap_index = invalidCsrIndex;
    CsrIndex mask_index = invalidCsrIndex;
    bool high = false; //!< outside the target's read set
};

/**
 * The per-target relational exploration: the Explorer walks the
 * domain switches, this analysis adds the pair abstraction (see
 * relcheck.hh) as abstraction words — diff[i] for tracked CSR i at
 * word i, then carry[d] per domain at word csrs.size() + d.
 */
struct RelChecker
{
    const PolicyView &policy;
    DomainId target;
    std::vector<ContractFinding> &findings;

    std::vector<TrackedCsr> csrs;
    std::size_t carryWords = 1; //!< one per configured domain
    Explorer ex;
    std::set<std::tuple<std::string, DomainId, std::uint32_t>> reported;

    RelChecker(const SwitchImage &image, DomainId target,
               const ContractOptions &options,
               std::vector<ContractFinding> &findings)
        : policy(image.policy), target(target), findings(findings),
          ex(image, options.max_states, options.depth_bound)
    {
        const IsaModel &isa = policy.isa();
        ArchState probe;
        probe.zero_reg_hardwired = isa.name() != "x86";
        isa.initState(probe);

        for (std::uint32_t addr : isa.controlledCsrAddrs()) {
            if (isa.isGridReg(addr))
                continue;
            if (!probe.csrs.exists(addr))
                continue;
            TrackedCsr c;
            c.addr = addr;
            c.bitmap_index = isa.csrBitmapIndex(addr);
            c.mask_index = isa.csrMaskIndex(addr);
            if (c.bitmap_index == invalidCsrIndex)
                continue;
            c.high = !PrivilegeSet::implicitInput(isa, addr) &&
                     !policy.csrRead(target, c.bitmap_index).allowed();
            // The carry sets are 64-bit: cap the tracked list (both
            // ISA models control far fewer CSRs than that).
            if (csrs.size() < 64)
                csrs.push_back(c);
        }
        if (policy.numDomains() != 0)
            carryWords = policy.numDomains();
    }

    void
    addFinding(Severity severity, std::string check, DomainId domain,
               std::uint32_t csr_addr, std::string message,
               std::vector<TraceStep> trace,
               std::vector<std::uint32_t> src_csrs)
    {
        if (!reported.emplace(check, domain, csr_addr).second)
            return;
        ContractFinding f;
        f.severity = severity;
        f.check = std::move(check);
        f.domain = domain;
        f.csr_addr = csr_addr;
        f.message = std::move(message);
        f.trace = std::move(trace);
        f.src_csrs = std::move(src_csrs);
        f.verdict = ContractVerdict::Plausible;
        findings.push_back(std::move(f));
    }

    std::vector<std::uint32_t>
    carriedAddrs(std::uint64_t carry) const
    {
        std::vector<std::uint32_t> addrs;
        for (std::size_t i = 0; i < csrs.size(); ++i) {
            if (carry & (std::uint64_t{1} << i))
                addrs.push_back(csrs[i].addr);
        }
        return addrs;
    }

    // --- Explorer hooks: switches carry no relational property ---
    void discovered(std::uint32_t) {}
    void gateFault(std::uint32_t, GateId) {}
    void gateEntered(std::uint32_t, GateId, DomainId) {}

    /** Permitted CSR reads and writes of the current domain. */
    void
    expand(std::uint32_t id)
    {
        const DomainId d = ex.domain(id);
        if (d == 0)
            return; // domain-0 is the trusted base of the contract
        const std::size_t carry_word = csrs.size() + d;
        const std::uint64_t carry =
            d < carryWords ? ex.abstraction(id)[carry_word] : 0;

        for (std::size_t i = 0; i < csrs.size(); ++i) {
            const TrackedCsr &c = csrs[i];
            const RegVal diff = ex.abstraction(id)[i];

            // --- permitted reads: a differing value moves into the
            // reader's registers ---
            if (diff != 0 && d < carryWords &&
                policy.csrRead(d, c.bitmap_index).allowed() &&
                (carry & (std::uint64_t{1} << i)) == 0) {
                ex.successor(id)[carry_word] |= std::uint64_t{1} << i;
                ex.follow(*this, id, [&] {
                    TraceStep step;
                    step.kind = TraceStep::Kind::Inst;
                    step.csr_addr = c.addr;
                    step.domain_before = step.domain_after = d;
                    step.note = "permitted read of a CSR whose copies "
                                "differ (diff " + hexAddr(diff) + ")";
                    return step;
                });
            }

            // --- permitted writes ---
            const Verdict write =
                policy.csrWrite(d, c.bitmap_index, c.mask_index);
            if (write.allowed()) {
                // Full write: the written value comes from registers —
                // equal across the pair unless the writer carries high
                // data.
                auto step = [&] {
                    TraceStep s;
                    s.kind = TraceStep::Kind::CsrWrite;
                    s.csr_addr = c.addr;
                    s.domain_before = s.domain_after = d;
                    s.note = carry != 0
                                 ? "full write from registers that may "
                                   "carry high data"
                                 : "full write of a value equal in both "
                                   "copies";
                    return s;
                };
                if (carry != 0 &&
                    policy.csrRead(target, c.bitmap_index).allowed()) {
                    std::vector<TraceStep> trace = ex.pathTo(id);
                    trace.push_back(step());
                    addFinding(
                        Severity::Warning, "rel-high-flow", d, c.addr,
                        "domain " + std::to_string(d) +
                            " may copy high state of domain " +
                            std::to_string(target) + " into CSR " +
                            hexAddr(c.addr) + ", which domain " +
                            std::to_string(target) + " reads",
                        std::move(trace), carriedAddrs(carry));
                }
                ex.successor(id)[i] = carry != 0 ? ~RegVal{0} : 0;
                ex.follow(*this, id, step);
                continue;
            }
            if (!write.maskDecides() || write.mask == 0)
                continue; // every write faults
            const RegVal mask = write.mask;
            if ((diff & ~mask) != 0) {
                // The bit-mask equation consults the live old value:
                // with the copies differing outside the mask, one copy
                // accepts what the other faults — a fault channel.
                if (d == target) {
                    std::vector<TraceStep> trace = ex.pathTo(id);
                    TraceStep step;
                    step.kind = TraceStep::Kind::CsrWrite;
                    step.csr_addr = c.addr;
                    step.flip = mask;
                    step.masked = true;
                    step.expect = write.write(0, diff & ~mask);
                    step.domain_before = step.domain_after = d;
                    step.note = "masked write; diff " + hexAddr(diff) +
                                " escapes mask " + hexAddr(mask);
                    trace.push_back(std::move(step));
                    addFinding(
                        Severity::Violation, "rel-mask-observe", d,
                        c.addr,
                        "domain " + std::to_string(d) +
                            " holds a bit-mask " + hexAddr(mask) +
                            " on CSR " + hexAddr(c.addr) +
                            " it cannot read: the mask-equation "
                            "fault tells it the hidden bits " +
                            hexAddr(diff & ~mask),
                        std::move(trace), {c.addr});
                }
                // For other domains the pair's outcomes may disagree
                // and the executions desynchronize — outside the
                // lockstep abstraction, so the branch is pruned.
                continue;
            }
            // Diff inside the mask: legality is identical in both
            // copies. The accepted write replaces the value with one
            // that differs at most inside the mask (and only if the
            // writer carries high data).
            ex.successor(id)[i] = carry != 0 ? mask : 0;
            ex.follow(*this, id, [&] {
                TraceStep step;
                step.kind = TraceStep::Kind::CsrWrite;
                step.csr_addr = c.addr;
                step.flip = mask;
                step.masked = true;
                step.domain_before = step.domain_after = d;
                step.note = "masked write, mask " + hexAddr(mask);
                return step;
            });
        }
    }

    ExplorerStats
    run(DomainId initial_domain)
    {
        std::vector<RegVal> init(csrs.size() + carryWords, 0);
        for (std::size_t i = 0; i < csrs.size(); ++i)
            init[i] = csrs[i].high ? ~RegVal{0} : 0;
        return ex.run(*this, initial_domain, init);
    }
};

} // namespace

void
runRelationalCheck(const SwitchImage &image, DomainId initial_domain,
                   DomainId target, const ContractOptions &options,
                   std::vector<ContractFinding> &findings,
                   ContractStats &stats)
{
    RelChecker checker(image, target, options, findings);
    ExplorerStats explored = checker.run(initial_domain);
    stats.rel_states += explored.states;
    stats.rel_transitions += explored.transitions;
}

} // namespace isagrid
