/**
 * @file
 * isagrid-minpriv — CFG-based least-privilege inference and policy
 * minimization for guest images and domain configurations.
 *
 * Builds a mini-kernel configuration, infers what each domain's
 * reachable code actually needs from the PCU (src/verify/dataflow.hh),
 * synthesizes the minimal policy (src/verify/minimize.hh) and diffs it
 * against the configured HPT:
 *
 *   isagrid-minpriv [options]
 *     --arch=riscv|x86          target prototype       [riscv]
 *     --mode=native|decomposed|nested                  [decomposed]
 *     --timer=N                 timer interrupt period [0 = off]
 *     --tstacks                 per-thread trusted stacks
 *     --overprovision           add deliberate policy drift first
 *     --diff                    report every over-grant (default)
 *     --emit-policy=FILE        write the minimized policy as JSON
 *     --validate                differential validation: the attack
 *                               corpus stays blocked and the benign
 *                               workloads behave identically under
 *                               the minimized policy
 *     --json                    machine-readable output
 *
 * Exit status: 0 on success (and, with --validate, every differential
 * check passing), 1 when the minimized policy is not a subset of the
 * configured one or a validation check fails, 2 on usage errors.
 *
 * Examples:
 *   isagrid-minpriv --arch=x86 --mode=nested --diff
 *   isagrid-minpriv --overprovision --emit-policy=minimized.json
 *   isagrid-minpriv --arch=riscv --validate
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "attacks/attacks.hh"
#include "cli.hh"
#include "kernel/kernel_builder.hh"
#include "kernel/layout.hh"
#include "verify/dataflow.hh"
#include "verify/minimize.hh"
#include "workloads/apps.hh"
#include "workloads/lmbench.hh"

using namespace isagrid;

namespace {

struct Options
{
    bool x86 = false;
    KernelMode mode = KernelMode::Decomposed;
    Cycle timer = 0;
    bool tstacks = false;
    bool overprovision = false;
    bool validate = false;
    bool json = false;
    std::string emit_policy;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--arch=riscv|x86] "
                 "[--mode=native|decomposed|nested]\n"
                 "  [--timer=N] [--tstacks] [--overprovision] [--diff]\n"
                 "  [--emit-policy=FILE] [--validate] [--json]\n",
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
        } else if (eatOption(argv[i], "--emit-policy", v)) {
            if (v.empty())
                usage(argv[0]);
            opt.emit_policy = v;
        } else if (std::strcmp(argv[i], "--tstacks") == 0) {
            opt.tstacks = true;
        } else if (std::strcmp(argv[i], "--overprovision") == 0) {
            opt.overprovision = true;
        } else if (std::strcmp(argv[i], "--diff") == 0) {
            // The default action; accepted for explicitness.
        } else if (std::strcmp(argv[i], "--validate") == 0) {
            opt.validate = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            opt.json = true;
        } else {
            usage(argv[0]);
        }
    }
    return opt;
}

KernelConfig
kernelConfig(const Options &opt, bool minimize)
{
    KernelConfig config;
    config.mode = opt.mode;
    config.timer_interval = opt.timer;
    config.per_thread_tstack = opt.tstacks;
    config.overprovision = opt.overprovision;
    config.minimize_policy = minimize;
    return config;
}

/** Build the kernel and run the inference + minimization over it. */
MinimizeResult
analyse(const Options &opt)
{
    auto machine = opt.x86 ? Machine::gem5x86() : Machine::rocket();

    auto ua = opt.x86 ? makeX86Asm(layout::userCodeBase)
                      : makeRiscvAsm(layout::userCodeBase);
    ua->li(ua->regArg(0), 0);
    ua->halt(ua->regArg(0));
    ua->loadInto(machine->mem());

    KernelBuilder builder(*machine, kernelConfig(opt, false));
    KernelImage image = builder.build(layout::userCodeBase);

    PolicySnapshot snap = PolicySnapshot::fromPcu(machine->pcu());
    PrivilegeInference inference(machine->isa(), machine->mem(), snap,
                                 image.code_regions);
    inference.addEntry(image.kernel_domain, image.trap_entry);
    return minimizePolicy(machine->isa(), machine->mem(), snap,
                          inference);
}

/** One differential check: baseline vs minimized-policy run. */
struct Differential
{
    std::string name;
    bool passed = false;
    std::string detail;
};

bool
sameOutcome(const RunResult &a, const RunResult &b)
{
    return a.reason == b.reason && a.halt_code == b.halt_code &&
           a.fault == b.fault && a.instructions == b.instructions;
}

std::string
describe(const RunResult &r)
{
    return "reason=" + std::to_string(static_cast<int>(r.reason)) +
           " halt=" + std::to_string(r.halt_code) + " fault=" +
           faultName(r.fault) + " insts=" +
           std::to_string(r.instructions);
}

RunResult
runWorkload(const Options &opt, bool minimize,
            const std::function<Addr(Machine &)> &build_user)
{
    auto machine = opt.x86 ? Machine::gem5x86() : Machine::rocket();
    Addr entry = build_user(*machine);
    KernelBuilder builder(*machine, kernelConfig(opt, minimize));
    KernelImage image = builder.build(entry);
    return machine->run(image.boot_pc);
}

Differential
diffWorkload(const Options &opt, const std::string &name,
             const std::function<Addr(Machine &)> &build_user)
{
    RunResult base = runWorkload(opt, false, build_user);
    RunResult mini = runWorkload(opt, true, build_user);
    Differential d{name, sameOutcome(base, mini), ""};
    if (!d.passed)
        d.detail = "baseline " + describe(base) + " vs minimized " +
                   describe(mini);
    return d;
}

AttackOutcome
runPreparedAttack(PreparedAttack &prepared, bool minimize)
{
    Machine &machine = *prepared.machine;
    if (minimize) {
        PolicySnapshot snap = PolicySnapshot::fromPcu(machine.pcu());
        PrivilegeInference inference(machine.isa(), machine.mem(),
                                     snap, prepared.image.code_regions);
        inference.addEntry(prepared.image.kernel_domain,
                           prepared.image.trap_entry);
        inference.addEntry(prepared.payload_domain,
                           prepared.payload_entry);
        MinimizeResult minimized =
            minimizePolicy(machine.isa(), machine.mem(), snap,
                           inference);
        applyMinimizedPolicy(machine.isa(), machine.mem(), snap,
                             minimized, &machine.pcu());
    }
    machine.core().reset(prepared.payload_entry);
    machine.pcu().setGridReg(GridReg::Domain, prepared.payload_domain);
    RunResult r = machine.core().run(100'000);
    AttackOutcome outcome;
    outcome.reached_halt = r.reason == StopReason::Halted;
    outcome.blocked = r.reason == StopReason::UnhandledFault;
    outcome.fault = r.fault;
    return outcome;
}

std::vector<Differential>
validate(const Options &opt)
{
    std::vector<Differential> checks;

    // The attack corpus must stay blocked: minimization only ever
    // removes privilege, so an attack the configured policy stopped
    // cannot start succeeding — verified by running each payload
    // under both policies.
    for (const AttackScenario &s : attackScenarios(opt.x86)) {
        PreparedAttack base = prepareAttack(s, opt.x86, true);
        AttackOutcome before = runPreparedAttack(base, false);
        PreparedAttack mini = prepareAttack(s, opt.x86, true);
        AttackOutcome after = runPreparedAttack(mini, true);
        Differential d{"attack: " + s.name,
                       before.blocked == after.blocked &&
                           before.reached_halt == after.reached_halt,
                       ""};
        if (!d.passed)
            d.detail = std::string("blocked ") +
                       (before.blocked ? "yes" : "no") + " -> " +
                       (after.blocked ? "yes" : "no");
        checks.push_back(d);
    }

    // Benign workloads must behave identically.
    checks.push_back(diffWorkload(opt, "lmbench", [](Machine &m) {
        return buildLmbenchSuite(m, 40);
    }));
    for (const AppProfile &profile : AppProfile::all()) {
        AppProfile small = profile;
        small.total_blocks = 2000;
        checks.push_back(
            diffWorkload(opt, "app: " + profile.name,
                         [small](Machine &m) {
                             return buildApp(m, small);
                         }));
    }
    return checks;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);

    MinimizeResult result = analyse(opt);

    if (!opt.emit_policy.empty()) {
        std::FILE *f = std::fopen(opt.emit_policy.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.emit_policy.c_str());
            return 2;
        }
        std::fprintf(f, "%s\n", result.json().c_str());
        std::fclose(f);
    }

    bool ok = result.subset;
    std::string validation_json;
    if (opt.validate) {
        std::vector<Differential> checks = validate(opt);
        validation_json = ",\"validation\":[";
        for (std::size_t i = 0; i < checks.size(); ++i) {
            const Differential &d = checks[i];
            ok = ok && d.passed;
            if (i)
                validation_json += ",";
            validation_json += "{\"name\":\"";
            jsonEscape(validation_json, d.name);
            validation_json += "\",\"passed\":";
            validation_json += d.passed ? "true" : "false";
            validation_json += ",\"detail\":\"";
            jsonEscape(validation_json, d.detail);
            validation_json += "\"}";
            if (!opt.json)
                std::printf("%-9s %s%s%s\n",
                            d.passed ? "IDENTICAL" : "DIVERGED",
                            d.name.c_str(),
                            d.detail.empty() ? "" : ": ",
                            d.detail.c_str());
        }
        validation_json += "]";
    }

    if (opt.json) {
        std::string out = result.json();
        if (!validation_json.empty()) {
            // Splice the validation array into the result object.
            out.insert(out.size() - 1, validation_json);
        }
        std::printf("%s\n", out.c_str());
    } else {
        std::printf("%s", result.text().c_str());
    }
    return ok ? 0 : 1;
}
