/**
 * @file
 * The scenario registry behind tools/isagrid_bench: each entry is a
 * self-contained re-run of one of the paper-reproduction benchmarks
 * (its own Machine, kernel and workload), so scenarios can execute on
 * concurrent threads and be timed individually.
 *
 * Scenarios return *guest* totals (cycles, instructions); the runner
 * adds host wall time and derives insts/sec. Every scenario honours
 * ScenarioOptions::decode_cache_entries and ::block_engine, which
 * only change host speed — the guest totals are identical either way
 * (enforced by tests/test_decode_cache.cc and
 * tests/test_block_equivalence.cc).
 */

#include <fstream>

#include "bench_common.hh"

#include "attacks/attacks.hh"
#include "kernel/layout.hh"
#include "kernel/syscalls.hh"

namespace isagrid {
namespace bench {

namespace {

MachineConfig
baseConfig(const ScenarioOptions &opts, PcuConfig pcu)
{
    MachineConfig mc;
    mc.pcu = pcu;
    mc.decode_cache_entries = opts.decode_cache_entries;
    mc.block_engine = opts.block_engine;
    mc.block_hot_threshold = opts.block_hot_threshold;
    return mc;
}

void
accumulate(ScenarioResult &acc, const RunResult &r)
{
    acc.guest_cycles += r.cycles;
    acc.guest_instructions += r.instructions;
}

/**
 * Metrics export for single-machine scenarios (ScenarioOptions::
 * metrics_out). Sampling is finer than the PerfConfig defaults: these
 * runs are untimed, so overhead does not matter, and the short bench
 * workloads need tighter epochs to yield a usable series.
 */
void
maybeEnableMetrics(Machine &machine, const ScenarioOptions &opts)
{
    if (opts.metrics_out.empty())
        return;
    PerfConfig config;
    config.metrics_interval = 100'000;
    config.profile_interval = 10'000;
    machine.enableMetrics(config);
}

void
maybeWriteMetrics(Machine &machine, const ScenarioOptions &opts,
                  const RunResult &r)
{
    if (opts.metrics_out.empty() || !machine.perf())
        return;
    machine.perf()->finalize(r.instructions, r.cycles);
    std::ofstream os(opts.metrics_out);
    if (!os)
        fatal("cannot write %s", opts.metrics_out.c_str());
    machine.perf()->writeJson(os);
}

// --- fig5: LMbench suite under the decomposed RISC-V kernel ---------

ScenarioResult
lmbenchScenario(KernelMode mode, PcuConfig pcu,
                const ScenarioOptions &opts)
{
    auto machine = Machine::rocket(baseConfig(opts, pcu));
    // More iterations than the Figure 5 binary (300): these scenarios
    // track *host* speed, so simulation must dominate machine and
    // kernel setup for the wall time to mean anything.
    Addr entry = buildLmbenchSuite(*machine, 5000);
    KernelConfig config;
    config.mode = mode;
    KernelBuilder builder(*machine, config);
    KernelImage image = builder.build(entry);
    maybeEnableMetrics(*machine, opts);
    RunResult r = machine->run(image.boot_pc, 500'000'000);
    if (r.reason != StopReason::Halted)
        fatal("lmbench scenario did not halt: %s", faultName(r.fault));
    maybeWriteMetrics(*machine, opts, r);
    ScenarioResult res;
    accumulate(res, r);
    return res;
}

// --- fig6/fig7: application workloads ------------------------------

ScenarioResult
appsScenario(bool x86, KernelMode mode, const ScenarioOptions &opts)
{
    MachineConfig mc = baseConfig(opts, PcuConfig::config8E());
    ScenarioResult res;
    for (const AppProfile &profile : AppProfile::all()) {
        KernelConfig config;
        config.mode = mode;
        std::unique_ptr<Machine> keep;
        runAppOnKernel(x86, profile, config, mc.pcu, nullptr, &keep,
                       &mc);
        res.guest_cycles += keep->core().cycles();
        res.guest_instructions += keep->core().instructions();
    }
    return res;
}

// --- table1: the attack corpus --------------------------------------

ScenarioResult
attacksScenario(bool x86, const ScenarioOptions &opts)
{
    ScenarioResult res;
    for (const AttackScenario &scenario : attackScenarios(x86)) {
        if (scenario.x86_only && !x86)
            continue;
        for (bool with_isagrid : {true, false}) {
            if (scenario.requires_isagrid && !with_isagrid)
                continue;
            PreparedAttack prepared =
                prepareAttack(scenario, x86, with_isagrid);
            Machine &m = *prepared.machine;
            m.core().setDecodeCache(opts.decode_cache_entries);
            m.core().setBlockEngine(
                opts.block_engine ? opts.block_hot_threshold : 0);
            m.core().reset(prepared.payload_entry);
            if (with_isagrid) {
                m.pcu().setGridReg(GridReg::Domain,
                                   prepared.payload_domain);
            }
            accumulate(res, m.core().run(100'000));
        }
    }
    return res;
}

// --- table4: domain-switching microbenchmarks ------------------------

constexpr unsigned kSites = 16;
constexpr unsigned kIters = 400;

struct GatePlan
{
    Addr gate_pc;
    AsmIface::Label dest;
    DomainId dest_domain;
};

/** The Table 4 measured loop (warmup pass + kIters x kSites body). */
RunResult
runSwitchLoop(Machine &machine,
              const std::function<void(AsmIface &, unsigned)> &body,
              std::vector<GatePlan> *gates = nullptr)
{
    auto ap = machine.isa().name() == "x86"
                  ? makeX86Asm(layout::userCodeBase)
                  : makeRiscvAsm(layout::userCodeBase);
    AsmIface &a = *ap;
    unsigned u0 = a.regUser(0), m = a.regArg(2);

    a.li(a.regSp(), layout::userStackTop);
    body(a, ~0u); // warmup pass
    a.li(m, 1);
    a.simmark(m);
    a.li(u0, kIters);
    auto loop = a.newLabel();
    a.bind(loop);
    for (unsigned s = 0; s < kSites; ++s)
        body(a, s);
    a.loopDec(u0, loop);
    a.li(m, 2);
    a.simmark(m);
    a.li(a.regArg(0), 0);
    a.halt(a.regArg(0));
    a.loadInto(machine.mem());

    if (gates) {
        for (const auto &g : *gates) {
            machine.domains().registerGate(
                g.gate_pc, a.labelAddr(g.dest), g.dest_domain);
        }
        machine.domains().publish();
    }
    machine.core().reset(layout::userCodeBase);
    RunResult r = machine.core().run(200'000'000);
    if (r.reason != StopReason::Halted)
        fatal("switching scenario did not halt: %s",
              faultName(r.fault));
    return r;
}

/** hccall ping-pong between two basic domains (Table 4's gate row). */
ScenarioResult
hccallScenario(bool x86, const ScenarioOptions &opts)
{
    MachineConfig mc = baseConfig(opts, PcuConfig::config8E());
    auto machine = x86 ? Machine::gem5x86(mc) : Machine::rocket(mc);
    DomainId d1 = machine->domains().createBaselineDomain();
    DomainId d2 = machine->domains().createBaselineDomain();
    maybeEnableMetrics(*machine, opts);
    std::vector<GatePlan> gates;
    RunResult r = runSwitchLoop(
        *machine,
        [&](AsmIface &a, unsigned site) {
            GateId id = gates.size();
            a.li(a.regGate(), id);
            Addr pc = a.here();
            auto dest = a.newLabel();
            a.hccall(a.regGate());
            a.bind(dest);
            gates.push_back({pc, dest, (site % 2) ? d1 : d2});
        },
        &gates);
    maybeWriteMetrics(*machine, opts, r);
    ScenarioResult res;
    accumulate(res, r);
    return res;
}

/** Empty-syscall round trips under a monolithic kernel. */
ScenarioResult
syscallScenario(bool x86, bool pti, const ScenarioOptions &opts)
{
    MachineConfig mc = baseConfig(opts, PcuConfig::config8E());
    auto machine = x86 ? Machine::gem5x86(mc) : Machine::rocket(mc);
    auto ap = x86 ? makeX86Asm(layout::userCodeBase)
                  : makeRiscvAsm(layout::userCodeBase);
    AsmIface &a = *ap;
    unsigned u0 = a.regUser(0), m = a.regArg(2);
    a.li(a.regSp(), layout::userStackTop);
    a.li(a.regArg(0), std::uint64_t(Sys::Getpid));
    a.syscallInst(); // warmup
    a.li(m, 1);
    a.simmark(m);
    a.li(u0, kIters);
    auto loop = a.newLabel();
    a.bind(loop);
    a.li(a.regArg(0), std::uint64_t(Sys::Getpid));
    a.syscallInst();
    a.loopDec(u0, loop);
    a.li(m, 2);
    a.simmark(m);
    a.li(a.regArg(0), 0);
    a.halt(a.regArg(0));
    a.loadInto(machine->mem());

    KernelConfig config;
    config.mode = KernelMode::Monolithic;
    config.pti = pti;
    KernelBuilder builder(*machine, config);
    KernelImage image = builder.build(layout::userCodeBase);
    maybeEnableMetrics(*machine, opts);
    RunResult r = machine->run(image.boot_pc, 200'000'000);
    if (r.reason != StopReason::Halted)
        fatal("syscall scenario did not halt: %s", faultName(r.fault));
    maybeWriteMetrics(*machine, opts, r);
    ScenarioResult res;
    accumulate(res, r);
    return res;
}

} // namespace

std::vector<Scenario>
allScenarios()
{
    std::vector<Scenario> s;
    auto add = [&](std::string group, std::string name, auto fn) {
        s.push_back({std::move(group), std::move(name),
                     std::function<ScenarioResult(
                         const ScenarioOptions &)>(fn)});
    };

    add("fig5", "lmbench_native", [](const ScenarioOptions &o) {
        return lmbenchScenario(KernelMode::Monolithic,
                               PcuConfig::config8E(), o);
    });
    add("fig5", "lmbench_16E", [](const ScenarioOptions &o) {
        return lmbenchScenario(KernelMode::Decomposed,
                               PcuConfig::config16E(), o);
    });
    add("fig5", "lmbench_8E", [](const ScenarioOptions &o) {
        return lmbenchScenario(KernelMode::Decomposed,
                               PcuConfig::config8E(), o);
    });
    add("fig5", "lmbench_8EN", [](const ScenarioOptions &o) {
        return lmbenchScenario(KernelMode::Decomposed,
                               PcuConfig::config8EN(), o);
    });

    add("fig6", "apps_riscv_native", [](const ScenarioOptions &o) {
        return appsScenario(false, KernelMode::Monolithic, o);
    });
    add("fig6", "apps_riscv_8E", [](const ScenarioOptions &o) {
        return appsScenario(false, KernelMode::Decomposed, o);
    });

    add("fig7", "apps_x86_native", [](const ScenarioOptions &o) {
        return appsScenario(true, KernelMode::Monolithic, o);
    });
    add("fig7", "apps_x86_8E", [](const ScenarioOptions &o) {
        return appsScenario(true, KernelMode::Decomposed, o);
    });

    add("table1", "attacks_riscv", [](const ScenarioOptions &o) {
        return attacksScenario(false, o);
    });
    add("table1", "attacks_x86", [](const ScenarioOptions &o) {
        return attacksScenario(true, o);
    });

    add("table4", "hccall_pingpong_riscv", [](const ScenarioOptions &o) {
        return hccallScenario(false, o);
    });
    add("table4", "hccall_pingpong_x86", [](const ScenarioOptions &o) {
        return hccallScenario(true, o);
    });
    add("table4", "syscall_riscv", [](const ScenarioOptions &o) {
        return syscallScenario(false, false, o);
    });
    add("table4", "syscall_x86", [](const ScenarioOptions &o) {
        return syscallScenario(true, false, o);
    });
    add("table4", "syscall_x86_pti", [](const ScenarioOptions &o) {
        return syscallScenario(true, true, o);
    });

    return s;
}

} // namespace bench
} // namespace isagrid
