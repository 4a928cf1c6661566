/**
 * @file
 * isagrid-verify — static privilege-policy verifier for guest images
 * and domain configurations.
 *
 * Builds a mini-kernel configuration (or one of the attack scenarios)
 * and runs the src/verify analyses over the resulting image and
 * privilege tables without simulating a single instruction:
 *
 *   isagrid-verify [options]
 *     --arch=riscv|x86          target prototype       [riscv]
 *     --mode=native|decomposed|nested                  [decomposed]
 *     --timer=N                 timer interrupt period [0 = off]
 *     --tstacks                 per-thread trusted stacks
 *     --attack=NAME             verify an attack-scenario image
 *     --list-attacks            print scenario names and exit
 *     --lint                    least-privilege lint findings
 *     --no-misaligned           skip the misaligned-offset scan
 *     --superset                also run the superset-disassembly
 *                               reachability audit (isagrid-xscan's
 *                               static half) and merge its findings
 *     --fail-on=SEVERITY        exit non-zero at/above violation,
 *                               warning or lint          [violation]
 *     --json                    machine-readable report
 *
 * Exit status: 0 when no finding reaches the --fail-on threshold, 1
 * when at least one does, 2 on usage errors. By default only
 * violations fail the run; warnings and lints are advisory unless the
 * threshold is lowered.
 *
 * Examples:
 *   isagrid-verify --arch=x86 --mode=nested --tstacks
 *   isagrid-verify --attack="CR3 abuse" --json
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "attacks/attacks.hh"
#include "cli.hh"
#include "kernel/kernel_builder.hh"
#include "kernel/layout.hh"
#include "verify/report_common.hh"
#include "verify/verify.hh"

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
    Severity fail_on = Severity::Violation;
    VerifyOptions verify;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--arch=riscv|x86] "
                 "[--mode=native|decomposed|nested]\n"
                 "  [--timer=N] [--tstacks] [--attack=NAME] "
                 "[--list-attacks]\n"
                 "  [--lint] [--no-misaligned] [--superset] "
                 "[--fail-on=violation|warning|lint] [--json]\n",
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
        } else if (std::strcmp(argv[i], "--list-attacks") == 0) {
            opt.list_attacks = true;
        } else if (std::strcmp(argv[i], "--tstacks") == 0) {
            opt.tstacks = true;
        } else if (std::strcmp(argv[i], "--lint") == 0) {
            opt.verify.lint = true;
        } else if (std::strcmp(argv[i], "--no-misaligned") == 0) {
            opt.verify.scan_misaligned = false;
        } else if (std::strcmp(argv[i], "--superset") == 0) {
            opt.verify.superset = true;
        } else if (eatOption(argv[i], "--fail-on", v)) {
            if (!parseFailOn(v, true, opt.fail_on))
                usage(argv[0]);
            // Failing on lints only makes sense if they are computed.
            if (opt.fail_on == Severity::Lint)
                opt.verify.lint = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            opt.json = true;
        } else {
            usage(argv[0]);
        }
    }
    return opt;
}

/** Verify a kernel image built the normal way. */
VerifyReport
verifyKernel(const Options &opt)
{
    auto machine = opt.x86 ? Machine::gem5x86() : Machine::rocket();

    // A trivial user program so the kernel builder has an entry.
    auto ua = opt.x86 ? makeX86Asm(layout::userCodeBase)
                      : makeRiscvAsm(layout::userCodeBase);
    ua->li(ua->regArg(0), 0);
    ua->halt(ua->regArg(0));
    ua->loadInto(machine->mem());

    KernelConfig config;
    config.mode = opt.mode;
    config.timer_interval = opt.timer;
    config.per_thread_tstack = opt.tstacks;
    KernelBuilder builder(*machine, config);
    KernelImage image = builder.build(layout::userCodeBase);

    PolicySnapshot snap = PolicySnapshot::fromPcu(machine->pcu());
    VerifyOptions vopt = opt.verify;
    vopt.entries = {image.boot_pc, image.trap_entry};
    Verifier verifier(machine->isa(), machine->mem(), snap,
                      image.code_regions, vopt);
    return verifier.run();
}

/** Verify the image + payload of one named attack scenario. */
VerifyReport
verifyAttack(const Options &opt)
{
    for (const AttackScenario &s : attackScenarios(opt.x86)) {
        if (s.name != opt.attack)
            continue;
        PreparedAttack prepared = prepareAttack(s, opt.x86, true);
        PolicySnapshot snap =
            PolicySnapshot::fromPcu(prepared.machine->pcu());
        VerifyOptions vopt = opt.verify;
        vopt.entries = {prepared.image.boot_pc, prepared.image.trap_entry,
                        prepared.payload_entry};
        Verifier verifier(prepared.machine->isa(),
                          prepared.machine->mem(), snap,
                          prepared.image.code_regions, vopt);
        return verifier.run();
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

    VerifyReport report =
        opt.attack.empty() ? verifyKernel(opt) : verifyAttack(opt);

    if (opt.json)
        std::printf("%s\n", report.json().c_str());
    else
        std::printf("%s", report.text().c_str());

    return failingCount(report.violations(), report.warnings(),
                        report.lints(), opt.fail_on) > 0 ? 1 : 0;
}
