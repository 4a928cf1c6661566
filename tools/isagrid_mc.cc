/**
 * @file
 * isagrid-mc — bounded model checker for the domain-switching state
 * space, with simulator-replayed counterexamples.
 *
 * Builds a mini-kernel configuration (or one of the attack scenarios)
 * and explores the abstract transition system of its domain switches
 * and permitted CSR writes (src/modelcheck):
 *
 *   isagrid-mc [options]
 *     --arch=riscv|x86          target prototype       [riscv]
 *     --mode=native|decomposed|nested                  [decomposed]
 *     --timer=N                 timer interrupt period [0 = off]
 *     --tstacks                 per-thread trusted stacks
 *     --attack=NAME             check an attack-scenario image
 *     --list-attacks            print scenario names and exit
 *     --depth=N                 BFS depth bound        [8]
 *     --max-states=N            state-count cap        [65536]
 *     --domain0-violation       gates into domain-0 are violations
 *     --replay                  execute every counterexample on the
 *                               simulator and assert each step
 *     --fail-on=violation|warning  exit-1 threshold [violation]
 *     --json                    machine-readable report (includes a
 *                               "summary" object, as isagrid-verify)
 *     --stats                   exploration throughput line
 *
 * Exit status: 0 when the state space has no findings at or above the
 * --fail-on threshold, 1 when it has at least one, 2 on usage errors,
 * 3 when --replay finds a trace the simulator does not confirm (a
 * checker/simulator disagreement — always a bug in one of them).
 *
 * Examples:
 *   isagrid-mc --arch=x86 --mode=nested --depth=6
 *   isagrid-mc --attack="hcrets ROP" --replay
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "attacks/attacks.hh"
#include "cli.hh"
#include "kernel/kernel_builder.hh"
#include "kernel/layout.hh"
#include "modelcheck/modelcheck.hh"
#include "modelcheck/replay.hh"
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
    bool replay = false;
    bool json = false;
    bool stats = false;
    Severity fail_on = Severity::Violation;
    McOptions mc;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--arch=riscv|x86] "
                 "[--mode=native|decomposed|nested]\n"
                 "  [--timer=N] [--tstacks] [--attack=NAME] "
                 "[--list-attacks]\n"
                 "  [--depth=N] [--max-states=N] [--domain0-violation]\n"
                 "  [--replay] [--fail-on=violation|warning] [--json] "
                 "[--stats]\n",
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
        } else if (eatOption(argv[i], "--depth", v)) {
            opt.mc.depth_bound = countUnsigned(argv[0], v, usage);
        } else if (eatOption(argv[i], "--max-states", v)) {
            opt.mc.max_states = count(argv[0], v, usage);
        } else if (eatOption(argv[i], "--fail-on", v)) {
            if (!parseFailOn(v, false, opt.fail_on))
                usage(argv[0]);
        } else if (std::strcmp(argv[i], "--list-attacks") == 0) {
            opt.list_attacks = true;
        } else if (std::strcmp(argv[i], "--tstacks") == 0) {
            opt.tstacks = true;
        } else if (std::strcmp(argv[i], "--domain0-violation") == 0) {
            opt.mc.domain0_entry_violation = true;
        } else if (std::strcmp(argv[i], "--replay") == 0) {
            opt.replay = true;
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

/** Everything one check run needs, kept alive for replay. */
struct Prepared
{
    std::unique_ptr<Machine> machine;
    KernelImage image;
    PolicySnapshot snap;
    DomainId initial_domain = 0;
};

Prepared
prepareKernel(const Options &opt)
{
    Prepared p;
    p.machine = opt.x86 ? Machine::gem5x86() : Machine::rocket();

    // A trivial user program so the kernel builder has an entry.
    auto ua = opt.x86 ? makeX86Asm(layout::userCodeBase)
                      : makeRiscvAsm(layout::userCodeBase);
    ua->li(ua->regArg(0), 0);
    ua->halt(ua->regArg(0));
    ua->loadInto(p.machine->mem());

    KernelConfig config;
    config.mode = opt.mode;
    config.timer_interval = opt.timer;
    config.per_thread_tstack = opt.tstacks;
    KernelBuilder builder(*p.machine, config);
    p.image = builder.build(layout::userCodeBase);
    p.snap = PolicySnapshot::fromPcu(p.machine->pcu());
    p.initial_domain = 0;
    return p;
}

Prepared
prepareScenario(const Options &opt)
{
    for (const AttackScenario &s : attackScenarios(opt.x86)) {
        if (s.name != opt.attack)
            continue;
        PreparedAttack prepared = prepareAttack(s, opt.x86, true);
        Prepared p;
        p.machine = std::move(prepared.machine);
        p.image = std::move(prepared.image);
        p.snap = PolicySnapshot::fromPcu(p.machine->pcu());
        p.initial_domain = prepared.payload_domain;
        return p;
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

    Prepared p = opt.attack.empty() ? prepareKernel(opt)
                                    : prepareScenario(opt);

    ModelChecker checker(p.machine->isa(), p.machine->mem(), p.snap,
                         p.image.code_regions, p.initial_domain,
                         opt.mc);
    auto t0 = std::chrono::steady_clock::now();
    McResult result = checker.run();
    auto t1 = std::chrono::steady_clock::now();

    std::size_t failed_replays = 0;
    std::string replay_json = "[";
    std::string replay_text;
    if (opt.replay) {
        bool first = true;
        for (const McViolation &f : result.findings) {
            if (f.severity != Severity::Violation)
                continue;
            ReplayResult r = replayTrace(*p.machine, f.trace, p.snap,
                                         p.initial_domain);
            if (!r.ok)
                ++failed_replays;
            if (!first)
                replay_json += ',';
            first = false;
            replay_json += "{\"check\":\"";
            jsonEscape(replay_json, f.check);
            replay_json += "\",\"ok\":";
            replay_json += r.ok ? "true" : "false";
            replay_json += ",\"steps\":" + std::to_string(r.steps_run);
            replay_json += ",\"detail\":\"";
            jsonEscape(replay_json, r.detail);
            replay_json += "\"}";
            replay_text += std::string("replay ") + f.check + ": " +
                           (r.ok ? "confirmed ("
                                 : "MISMATCH (") +
                           std::to_string(r.steps_run) + " steps" +
                           (r.ok ? "" : ", " + r.detail) + ")\n";
        }
    }
    replay_json += "]";

    double secs =
        std::chrono::duration<double>(t1 - t0).count();
    if (opt.json) {
        std::string out = result.json();
        // Graft the replay array into the report object.
        if (opt.replay) {
            out.pop_back(); // trailing '}'
            out += ",\"replays\":" + replay_json + "}";
        }
        std::printf("%s\n", out.c_str());
    } else {
        std::printf("%s", result.text().c_str());
        std::printf("%s", replay_text.c_str());
    }
    if (opt.stats) {
        std::fprintf(stderr,
                     "mc-stats: states=%zu transitions=%zu "
                     "peak_frontier=%zu depth=%u states_per_sec=%.0f\n",
                     result.stats.states, result.stats.transitions,
                     result.stats.peak_frontier,
                     result.stats.depth_reached,
                     secs > 0 ? double(result.stats.states) / secs
                              : 0.0);
    }

    if (failed_replays > 0)
        return 3;
    return failingCount(result.violations(), result.warnings(), 0,
                        opt.fail_on) > 0 ? 1 : 0;
}
