/**
 * @file
 * isagrid-xscan — superset disassembly and unintended-instruction
 * privilege audit: every byte offset of every privilege-granted code
 * region is decoded, pruned against what control flow can actually
 * reach, and each surviving hidden privileged instruction is
 * discharged by a targeted dynamic probe
 * (docs/unintended_instructions.md).
 *
 * Builds a mini-kernel configuration (or one of the attack scenarios)
 * and audits the loaded image:
 *
 *   isagrid-xscan [options]
 *     --arch=riscv|x86          target prototype       [riscv]
 *     --mode=native|decomposed|nested                  [decomposed]
 *     --timer=N                 timer interrupt period [0 = off]
 *     --tstacks                 per-thread trusted stacks
 *     --attack=NAME             audit an attack-scenario image
 *     --list-attacks            print scenario names and exit
 *     --max-findings=N          recording cap          [256]
 *     --static-only             skip the dynamic probes
 *     --fail-on=violation|warning  exit-1 threshold    [violation]
 *     --json                    machine-readable report
 *     --stats                   scan statistics line
 *
 * Exit status: 0 when the image is clean at the --fail-on threshold,
 * 1 when it is not, 2 on usage errors, 3 when a finding is left
 * PLAUSIBLE after a full (static + dynamic) run — the probe harness
 * and the scan disagree, which is always a bug in one of them.
 *
 * Examples:
 *   isagrid-xscan --arch=x86 --mode=nested --stats
 *   isagrid-xscan --arch=x86 \
 *       --attack="Hidden instruction chain (immediates)" --json
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "attacks/attacks.hh"
#include "cli.hh"
#include "kernel/kernel_builder.hh"
#include "kernel/layout.hh"
#include "verify/report_common.hh"
#include "verify/superset.hh"

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
    XscanOptions xscan;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--arch=riscv|x86] "
                 "[--mode=native|decomposed|nested]\n"
                 "  [--timer=N] [--tstacks] [--attack=NAME] "
                 "[--list-attacks]\n"
                 "  [--max-findings=N] [--static-only]\n"
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
        } else if (eatOption(argv[i], "--max-findings", v)) {
            opt.xscan.max_findings = count(argv[0], v, usage);
        } else if (eatOption(argv[i], "--fail-on", v)) {
            if (!parseFailOn(v, false, opt.fail_on))
                usage(argv[0]);
        } else if (std::strcmp(argv[i], "--list-attacks") == 0) {
            opt.list_attacks = true;
        } else if (std::strcmp(argv[i], "--tstacks") == 0) {
            opt.tstacks = true;
        } else if (std::strcmp(argv[i], "--static-only") == 0) {
            opt.xscan.run_dynamic = false;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            opt.json = true;
        } else if (std::strcmp(argv[i], "--stats") == 0) {
            opt.stats = true;
        } else {
            usage(argv[0]);
        }
    }
    return opt;
}

XscanScenario
kernelScenario(const Options &opt)
{
    XscanScenario scenario;
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
    // Probe build once for the entry points and the code map.
    auto probe = opt.x86 ? Machine::gem5x86() : Machine::rocket();
    auto pa = opt.x86 ? makeX86Asm(layout::userCodeBase)
                      : makeRiscvAsm(layout::userCodeBase);
    pa->li(pa->regArg(0), 0);
    pa->halt(pa->regArg(0));
    pa->loadInto(probe->mem());
    KernelBuilder builder(*probe, config);
    KernelImage image = builder.build(layout::userCodeBase);
    scenario.entries = {image.boot_pc, image.trap_entry};
    scenario.code_regions = image.code_regions;
    return scenario;
}

XscanScenario
attackScenario(const Options &opt)
{
    for (const AttackScenario &s : attackScenarios(opt.x86)) {
        if (s.name != opt.attack)
            continue;
        bool x86 = opt.x86;
        XscanScenario scenario;
        scenario.build = [s, x86]() {
            PreparedAttack prepared = prepareAttack(s, x86, true);
            return std::move(prepared.machine);
        };
        PreparedAttack prepared = prepareAttack(s, opt.x86, true);
        scenario.entries = {prepared.image.boot_pc,
                            prepared.image.trap_entry,
                            prepared.payload_entry};
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

    XscanScenario scenario = opt.attack.empty() ? kernelScenario(opt)
                                                : attackScenario(opt);
    XscanReport report = runXscan(scenario, opt.xscan);

    if (opt.json)
        std::printf("%s\n", report.json().c_str());
    else
        std::printf("%s", report.text().c_str());
    if (opt.stats) {
        std::fprintf(stderr,
                     "xscan-stats: regions=%llu offsets=%llu "
                     "hidden_valid=%llu entries=%llu reachable=%llu "
                     "misaligned=%llu widened=%llu discharges=%llu\n",
                     (unsigned long long)report.stats.regions,
                     (unsigned long long)report.stats.offsets_scanned,
                     (unsigned long long)report.stats.hidden_valid,
                     (unsigned long long)report.stats.entry_points,
                     (unsigned long long)report.stats.reachable,
                     (unsigned long long)
                         report.stats.reachable_misaligned,
                     (unsigned long long)report.stats.widened,
                     (unsigned long long)report.stats.discharges);
    }

    // A full run must leave nothing PLAUSIBLE: every finding is either
    // dynamically confirmed or discharged. A leftover means the scan
    // and the probe harness disagree — a bug in one of them.
    if (opt.xscan.run_static && opt.xscan.run_dynamic &&
        report.plausible() > 0)
        return 3;

    return failingCount(report.violations(), report.warnings(), 0,
                        opt.fail_on) > 0
               ? 1
               : 0;
}
