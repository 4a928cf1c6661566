#include "contract/selfcomp.hh"

#include "isagrid/privilege_set.hh"
#include "verify/image_scan.hh" // hexAddr

namespace isagrid {

namespace {

const char *
stopName(StopReason reason)
{
    switch (reason) {
      case StopReason::Halted: return "halted";
      case StopReason::MaxInstructions: return "running";
      case StopReason::UnhandledFault: return "unhandled-fault";
    }
    return "?";
}

/** One target-domain execution window of the reference run. */
struct Window
{
    std::uint64_t start = 0; //!< first step whose pre-step domain is T
    std::uint64_t end = 0;   //!< one past the last such step
};

/**
 * Step the reference machine and record the windows in which
 * @p target executes. The pre-step current domain attributes each
 * step: a gate instruction executed *in* T still belongs to T's
 * window even though it leaves the domain.
 */
std::vector<Window>
findWindows(Machine &machine, DomainId target, std::uint64_t max_insts,
            std::uint64_t max_windows)
{
    std::vector<Window> windows;
    bool open = false;
    for (std::uint64_t step = 0; step < max_insts; ++step) {
        bool in_target = machine.pcu().currentDomain() == target;
        if (in_target && !open) {
            if (windows.size() == max_windows)
                break;
            windows.push_back({step, step});
            open = true;
        } else if (!in_target && open) {
            windows.back().end = step;
            open = false;
        }
        RunResult r = machine.core().run(1);
        if (r.reason != StopReason::MaxInstructions) {
            // The final instruction still executed (and is observable).
            if (open)
                windows.back().end = step + 1;
            return windows;
        }
    }
    if (open)
        windows.back().end = max_insts;
    return windows;
}

/** Build, position and deterministically fast-forward one copy. */
std::unique_ptr<Machine>
fork(const ContractScenario &scenario, std::uint64_t steps)
{
    auto machine = scenario.build();
    scenario.position(*machine);
    if (steps > 0)
        machine->core().run(steps);
    return machine;
}

/**
 * Lockstep the pair through [window.start, window.end); returns the
 * first divergence as (step, pc, description), or nullopt.
 */
struct Divergence
{
    std::uint64_t step = 0;
    Addr pc = 0;
    std::string what;
};

std::optional<Divergence>
lockstep(Machine &a, Machine &b, DomainId target, const Window &window,
         const std::vector<std::uint32_t> &low_csrs,
         const ContractOptions &options, ContractStats &stats)
{
    for (std::uint64_t step = window.start; step < window.end; ++step) {
        Addr pc = a.core().state().pc;
        RunResult ra = a.core().run(1);
        RunResult rb = b.core().run(1);
        ++stats.steps_compared;
        if (ra.reason != rb.reason || ra.fault != rb.fault ||
            ra.fault_pc != rb.fault_pc || ra.halt_code != rb.halt_code) {
            return Divergence{step, pc,
                              std::string("run outcome differs: ") +
                                  stopName(ra.reason) + "/" +
                                  faultName(ra.fault) + " vs " +
                                  stopName(rb.reason) + "/" +
                                  faultName(rb.fault)};
        }
        auto diff = compareObservable(a, b, target, low_csrs,
                                      options.compare_timing);
        if (diff)
            return Divergence{step, pc, *diff};
        if (ra.reason != StopReason::MaxInstructions)
            break; // both stopped identically
    }
    return std::nullopt;
}

} // namespace

std::string
Perturbation::describe() const
{
    if (is_memory) {
        return "trusted memory [" + hexAddr(mem_lo) + ", " +
               hexAddr(mem_hi) + ")";
    }
    return "csr " + hexAddr(csr_addr) + " (bits " + hexAddr(flip) + ")";
}

std::vector<Perturbation>
planPerturbation(Machine &machine, DomainId target,
                 const ContractOptions &options)
{
    std::vector<Perturbation> seeds;
    const PolicyView policy(machine.isa(), machine.mem(),
                            PolicySnapshot::fromPcu(machine.pcu()));
    for (std::uint32_t csr : PrivilegeSet::highCsrs(policy, target)) {
        if (!machine.core().state().csrs.exists(csr))
            continue;
        Perturbation p;
        p.csr_addr = csr;
        p.flip = ~RegVal{0};
        seeds.push_back(p);
    }
    if (options.perturb_memory) {
        auto [lo, hi] = PrivilegeSet::freeTrustedMemory(
            machine.domains(), machine.config().domains);
        if (lo < hi && hi <= machine.mem().size()) {
            Perturbation p;
            p.is_memory = true;
            p.mem_lo = lo;
            p.mem_hi = hi;
            seeds.push_back(p);
        }
    }
    return seeds;
}

void
applyPerturbation(Machine &machine,
                  const std::vector<Perturbation> &seeds,
                  TaintTracker *taint)
{
    for (const Perturbation &seed : seeds) {
        if (seed.is_memory) {
            for (Addr a = seed.mem_lo; a + 8 <= seed.mem_hi; a += 8)
                machine.mem().write64(a, ~machine.mem().read64(a));
            if (taint) {
                for (Addr a = seed.mem_lo; a < seed.mem_hi;
                     a += TaintTracker::pageSize) {
                    taint->seedPage(a);
                }
            }
        } else {
            CsrFile &csrs = machine.core().state().csrs;
            csrs.write(seed.csr_addr,
                       csrs.read(seed.csr_addr) ^ seed.flip);
            if (taint)
                taint->seedCsr(seed.csr_addr, seed.flip);
        }
    }
}

std::optional<std::string>
compareObservable(Machine &a, Machine &b, DomainId target,
                  const std::vector<std::uint32_t> &low_csrs,
                  bool compare_timing)
{
    const ArchState &sa = a.core().state();
    const ArchState &sb = b.core().state();
    if (sa.pc != sb.pc) {
        return "pc differs: " + hexAddr(sa.pc) + " vs " +
               hexAddr(sb.pc);
    }
    if (sa.mode != sb.mode)
        return std::string("privilege mode differs");
    if (a.pcu().currentDomain() != b.pcu().currentDomain()) {
        return "current domain differs: " +
               std::to_string(a.pcu().currentDomain()) + " vs " +
               std::to_string(b.pcu().currentDomain());
    }
    for (unsigned r = 0; r < a.isa().numRegs(); ++r) {
        if (sa.reg(r) != sb.reg(r)) {
            return "r" + std::to_string(r) + " differs: " +
                   hexAddr(sa.reg(r)) + " vs " + hexAddr(sb.reg(r));
        }
    }
    if (compare_timing && a.core().cycles() != b.core().cycles()) {
        return "cycle count differs: " +
               std::to_string(a.core().cycles()) + " vs " +
               std::to_string(b.core().cycles()) +
               " (timing channel, domain " + std::to_string(target) +
               ")";
    }
    for (std::uint32_t csr : low_csrs) {
        if (sa.csrs.read(csr) != sb.csrs.read(csr)) {
            return "readable csr " + hexAddr(csr) + " differs: " +
                   hexAddr(sa.csrs.read(csr)) + " vs " +
                   hexAddr(sb.csrs.read(csr));
        }
    }
    return std::nullopt;
}

void
runSelfComposition(const ContractScenario &scenario,
                   const ContractOptions &options,
                   std::vector<ContractFinding> &findings,
                   ContractStats &stats)
{
    // Enumerate targets from a throwaway build when unspecified.
    std::vector<DomainId> targets = options.domains;
    if (targets.empty()) {
        auto probe = scenario.build();
        DomainId domains = probe->pcu().gridReg(GridReg::DomainNr);
        for (DomainId d = 1; d < domains; ++d)
            targets.push_back(d);
    }

    for (DomainId target : targets) {
        auto ref = scenario.build();
        scenario.position(*ref);
        std::vector<Window> windows =
            findWindows(*ref, target, options.max_insts,
                        options.max_windows);
        stats.windows += windows.size();

        for (const Window &window : windows) {
            ++stats.forks;
            auto a = fork(scenario, window.start);
            auto b = fork(scenario, window.start);

            std::vector<Perturbation> seeds =
                planPerturbation(*b, target, options);
            if (seeds.empty())
                continue; // nothing is high for this domain

            // The low CSR list, from the unperturbed copy's live HPT.
            std::vector<std::uint32_t> low_csrs;
            {
                const PolicyView policy(
                    a->isa(), a->mem(), PolicySnapshot::fromPcu(a->pcu()));
                for (std::uint32_t csr :
                     a->isa().controlledCsrAddrs()) {
                    if (a->isa().isGridReg(csr))
                        continue;
                    if (!a->core().state().csrs.exists(csr))
                        continue;
                    if (policy.csrRead(target, a->isa().csrBitmapIndex(csr))
                            .allowed())
                        low_csrs.push_back(csr);
                }
            }

            TaintTracker taint(b->isa());
            applyPerturbation(*b, seeds, &taint);
            b->core().setStepHook(&taint);
            auto div = lockstep(*a, *b, target, window, low_csrs,
                                options, stats);
            b->core().setStepHook(nullptr);
            if (!div)
                continue;

            // Attribute the divergence: re-run the window with one
            // seed at a time and keep the seeds that reproduce it.
            std::vector<std::string> origins;
            if (seeds.size() > 1) {
                for (const Perturbation &seed : seeds) {
                    ++stats.forks;
                    auto a1 = fork(scenario, window.start);
                    auto b1 = fork(scenario, window.start);
                    applyPerturbation(*b1, {seed}, nullptr);
                    if (lockstep(*a1, *b1, target, window, low_csrs,
                                 options, stats)) {
                        origins.push_back(seed.describe());
                    }
                }
            } else {
                origins.push_back(seeds.front().describe());
            }

            ContractFinding finding;
            finding.severity = Severity::Violation;
            finding.check = "dyn-divergence";
            finding.domain = target;
            finding.step = div->step;
            finding.pc = div->pc;
            finding.verdict = ContractVerdict::Confirmed;
            finding.divergence = div->what;
            if (taint.controlTainted())
                finding.divergence += "; control flow became tainted";
            if (origins.size() == 1 && !seeds.empty()) {
                // A single-origin CSR divergence names the carrier.
                for (const Perturbation &seed : seeds) {
                    if (!seed.is_memory &&
                        seed.describe() == origins.front()) {
                        finding.csr_addr = seed.csr_addr;
                    }
                }
            }
            finding.message =
                "domain " + std::to_string(target) +
                " distinguishes high states at step " +
                std::to_string(div->step) + " (pc " + hexAddr(div->pc) +
                "): " + div->what;
            if (!origins.empty()) {
                finding.message += "; origin: ";
                for (std::size_t i = 0; i < origins.size(); ++i) {
                    if (i)
                        finding.message += ", ";
                    finding.message += origins[i];
                }
            }
            findings.push_back(std::move(finding));
            break; // first violation per target bounds the cost
        }
    }
}

} // namespace isagrid
