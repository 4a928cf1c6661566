/**
 * @file
 * isagrid-contract — domain noninterference checker: taint-guided
 * self-composition plus a relational strengthening of the model
 * checker, with every PLAUSIBLE static finding discharged or
 * confirmed by a targeted dynamic experiment.
 *
 * Builds a mini-kernel configuration (or one of the attack scenarios)
 * and checks the universal contract — a domain confined to privilege
 * set P observes nothing outside P (docs/contracts.md):
 *
 *   isagrid-contract [options]
 *     --arch=riscv|x86          target prototype       [riscv]
 *     --mode=native|decomposed|nested                  [decomposed]
 *     --timer=N                 timer interrupt period [0 = off]
 *     --tstacks                 per-thread trusted stacks
 *     --attack=NAME             check an attack-scenario image
 *     --list-attacks            print scenario names and exit
 *     --domain=N                only check target domain N
 *     --max-insts=N             reference-run budget   [200000]
 *     --max-windows=N           windows per domain     [32]
 *     --depth=N                 relational depth bound [6]
 *     --max-states=N            relational state cap   [65536]
 *     --static-only             relational checker only
 *     --dynamic-only            self-composition oracle only
 *     --no-memory               do not perturb trusted memory
 *     --no-timing               ignore cycle-count divergence
 *     --fail-on=violation|warning  exit-1 threshold    [violation]
 *     --json                    machine-readable report
 *     --stats                   exploration statistics line
 *
 * Exit status: 0 when the contract holds at the --fail-on threshold,
 * 1 when it does not, 2 on usage errors, 3 when the two checkers
 * disagree — a finding left PLAUSIBLE after a full (static +
 * dynamic) run, which is always a bug in one of the checkers.
 *
 * Examples:
 *   isagrid-contract --arch=x86 --mode=nested --stats
 *   isagrid-contract --attack="Mask-probe side channel" --json
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "attacks/attacks.hh"
#include "cli.hh"
#include "contract/contract.hh"
#include "kernel/kernel_builder.hh"
#include "kernel/layout.hh"
#include "verify/report_common.hh"

using namespace isagrid;

namespace {

struct Options
{
    bool x86 = false;
    KernelMode mode = KernelMode::Decomposed;
    Cycle timer = 0;
    bool tstacks = false;
    std::string attack;
    bool list_attacks = false;
    bool json = false;
    bool stats = false;
    Severity fail_on = Severity::Violation;
    ContractOptions contract;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--arch=riscv|x86] "
                 "[--mode=native|decomposed|nested]\n"
                 "  [--timer=N] [--tstacks] [--attack=NAME] "
                 "[--list-attacks]\n"
                 "  [--domain=N] [--max-insts=N] [--max-windows=N]\n"
                 "  [--depth=N] [--max-states=N]\n"
                 "  [--static-only] [--dynamic-only] [--no-memory] "
                 "[--no-timing]\n"
                 "  [--fail-on=violation|warning] [--json] [--stats]\n",
                 argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (eatOption(argv[i], "--arch", v)) {
            if (v == "x86")
                opt.x86 = true;
            else if (v != "riscv")
                usage(argv[0]);
        } else if (eatOption(argv[i], "--mode", v)) {
            if (v == "native")
                opt.mode = KernelMode::Monolithic;
            else if (v == "decomposed")
                opt.mode = KernelMode::Decomposed;
            else if (v == "nested")
                opt.mode = KernelMode::NestedMonitor;
            else
                usage(argv[0]);
        } else if (eatOption(argv[i], "--timer", v)) {
            opt.timer = count(argv[0], v, usage);
        } else if (eatOption(argv[i], "--attack", v)) {
            if (v.empty())
                usage(argv[0]);
            opt.attack = v;
        } else if (eatOption(argv[i], "--domain", v)) {
            opt.contract.domains.push_back(count(argv[0], v, usage));
        } else if (eatOption(argv[i], "--max-insts", v)) {
            opt.contract.max_insts = count(argv[0], v, usage);
        } else if (eatOption(argv[i], "--max-windows", v)) {
            opt.contract.max_windows = count(argv[0], v, usage);
        } else if (eatOption(argv[i], "--depth", v)) {
            opt.contract.depth_bound = countUnsigned(argv[0], v, usage);
        } else if (eatOption(argv[i], "--max-states", v)) {
            opt.contract.max_states = count(argv[0], v, usage);
        } else if (eatOption(argv[i], "--fail-on", v)) {
            if (!parseFailOn(v, false, opt.fail_on))
                usage(argv[0]);
        } else if (std::strcmp(argv[i], "--list-attacks") == 0) {
            opt.list_attacks = true;
        } else if (std::strcmp(argv[i], "--tstacks") == 0) {
            opt.tstacks = true;
        } else if (std::strcmp(argv[i], "--static-only") == 0) {
            opt.contract.run_dynamic = false;
        } else if (std::strcmp(argv[i], "--dynamic-only") == 0) {
            opt.contract.run_static = false;
        } else if (std::strcmp(argv[i], "--no-memory") == 0) {
            opt.contract.perturb_memory = false;
        } else if (std::strcmp(argv[i], "--no-timing") == 0) {
            opt.contract.compare_timing = false;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            opt.json = true;
        } else if (std::strcmp(argv[i], "--stats") == 0) {
            opt.stats = true;
        } else {
            usage(argv[0]);
        }
    }
    if (!opt.contract.run_static && !opt.contract.run_dynamic)
        usage(argv[0]);
    return opt;
}

ContractScenario
kernelScenario(const Options &opt)
{
    ContractScenario scenario;
    KernelConfig config;
    config.mode = opt.mode;
    config.timer_interval = opt.timer;
    config.per_thread_tstack = opt.tstacks;
    bool x86 = opt.x86;
    scenario.build = [x86, config]() {
        auto machine = x86 ? Machine::gem5x86() : Machine::rocket();
        auto ua = x86 ? makeX86Asm(layout::userCodeBase)
                      : makeRiscvAsm(layout::userCodeBase);
        ua->li(ua->regArg(0), 0);
        ua->halt(ua->regArg(0));
        ua->loadInto(machine->mem());
        KernelBuilder builder(*machine, config);
        builder.build(layout::userCodeBase);
        return machine;
    };
    // Probe build once for the start PC and the code map.
    auto probe = opt.x86 ? Machine::gem5x86() : Machine::rocket();
    auto pa = opt.x86 ? makeX86Asm(layout::userCodeBase)
                      : makeRiscvAsm(layout::userCodeBase);
    pa->li(pa->regArg(0), 0);
    pa->halt(pa->regArg(0));
    pa->loadInto(probe->mem());
    KernelBuilder builder(*probe, config);
    KernelImage image = builder.build(layout::userCodeBase);
    scenario.start_pc = image.boot_pc;
    scenario.code_regions = image.code_regions;
    return scenario;
}

ContractScenario
attackScenario(const Options &opt)
{
    for (const AttackScenario &s : attackScenarios(opt.x86)) {
        if (s.name != opt.attack)
            continue;
        bool x86 = opt.x86;
        ContractScenario scenario;
        scenario.build = [s, x86]() {
            PreparedAttack prepared = prepareAttack(s, x86, true);
            return std::move(prepared.machine);
        };
        PreparedAttack prepared = prepareAttack(s, opt.x86, true);
        scenario.start_pc = prepared.payload_entry;
        scenario.start_domain = prepared.payload_domain;
        scenario.code_regions = prepared.image.code_regions;
        return scenario;
    }
    fatal("unknown attack scenario '%s' for %s (try --list-attacks)",
          opt.attack.c_str(), opt.x86 ? "x86" : "riscv");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);

    if (opt.list_attacks) {
        for (const AttackScenario &s : attackScenarios(opt.x86))
            std::printf("%s\n", s.name.c_str());
        return 0;
    }

    ContractScenario scenario = opt.attack.empty()
                                    ? kernelScenario(opt)
                                    : attackScenario(opt);
    ContractReport report = checkContract(scenario, opt.contract);

    if (opt.json)
        std::printf("%s\n", report.json().c_str());
    else
        std::printf("%s", report.text().c_str());
    if (opt.stats) {
        std::fprintf(stderr,
                     "contract-stats: windows=%llu steps=%llu "
                     "forks=%llu rel_states=%llu rel_transitions=%llu "
                     "discharges=%llu\n",
                     (unsigned long long)report.stats.windows,
                     (unsigned long long)report.stats.steps_compared,
                     (unsigned long long)report.stats.forks,
                     (unsigned long long)report.stats.rel_states,
                     (unsigned long long)report.stats.rel_transitions,
                     (unsigned long long)report.stats.discharges);
    }

    // A full run must leave nothing PLAUSIBLE: every static finding
    // is either discharged or dynamically confirmed. A leftover means
    // the checkers disagree — a bug in one of them.
    if (opt.contract.run_static && opt.contract.run_dynamic &&
        report.plausible() > 0)
        return 3;

    return failingCount(report.violations(), report.warnings(), 0,
                        opt.fail_on) > 0 ? 1 : 0;
}
