/**
 * @file
 * isagrid-sim — command-line driver for the ISA-Grid simulator.
 *
 * Runs a workload on a mini-kernel configuration and reports cycles,
 * instructions, privilege statistics and (optionally) a full
 * execution trace:
 *
 *   isagrid-sim [options]
 *     --arch=riscv|x86          target prototype       [riscv]
 *     --mode=native|decomposed|nested                  [decomposed]
 *     --workload=sqlite|mbedtls|gzip|tar|lmbench|attacks   [sqlite]
 *     --blocks=N                app run length, >= 1   [24000]
 *     --iters=N                 lmbench iterations     [200]
 *     --pcu=16e|8e|8en          privilege caches       [8e]
 *     --block-engine[=N]        run hot blocks translated (host fast
 *                               path, the default; N = hotness
 *                               threshold)
 *     --interpret               block engine off: the interpreter
 *                               runs every instruction
 *     --timer=N                 timer interrupt period [0 = off]
 *     --tstacks                 per-thread trusted stacks
 *     --monitor-log             journal mapping changes (nested)
 *     --trace=FILE              write a text execution trace
 *     --trace-events=FILE       write a binary .isatrace event trace
 *     --trace-filter=KINDS      event kinds to record  [default]
 *     --stats                   dump all statistics
 *     --stats-json=FILE         dump all statistics as JSON
 *     --metrics-out=FILE        epoch-sampled metrics + profile JSON
 *     --metrics-prom=FILE       final metrics, Prometheus exposition
 *     --flame-out=FILE          collapsed stacks (FlameGraph format)
 *     --metrics-interval=N      instructions per metrics epoch [1M]
 *     --profile-interval=N      instructions per pc sample   [100k]
 *
 * --trace-filter takes a comma-separated list of event-kind names
 * (domain-switch, gate-call, cache-miss, ...) or group aliases (all,
 * default/switching, check, cache, gate, trap, csr, mark, block); see
 * sim/trace.hh. The --workload=attacks corpus runs every Table 1
 * attack payload natively and under ISA-Grid, stamping each run with
 * its own trace core id.
 *
 * Any --metrics-out/--metrics-prom/--flame-out flag enables the
 * performance monitor (sim/metrics.hh): probes sampled every
 * --metrics-interval retired instructions, guest pcs every
 * --profile-interval. `tools/isagrid-perf` analyzes the JSON.
 *
 * Examples:
 *   isagrid-sim --arch=x86 --mode=nested --workload=tar --stats
 *   isagrid-sim --workload=lmbench --trace-events=lm.isatrace
 *   isagrid-sim --workload=attacks --trace-events=atk.isatrace \
 *       --trace-filter=all --stats-json=atk.json
 *   isagrid-sim --workload=lmbench --block-engine \
 *       --metrics-out=lm.metrics.json --flame-out=lm.folded
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "attacks/attacks.hh"
#include "cli.hh"
#include "cpu/text_trace.hh"
#include "kernel/kernel_builder.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "workloads/apps.hh"
#include "workloads/lmbench.hh"

using namespace isagrid;

namespace {

struct Options
{
    bool x86 = false;
    KernelMode mode = KernelMode::Decomposed;
    std::string workload = "sqlite";
    unsigned blocks = 24000;
    unsigned iters = 200;
    PcuConfig pcu = PcuConfig::config8E();
    bool block_engine = MachineConfig{}.block_engine;
    std::uint32_t block_hot_threshold = BlockEngine::kDefaultHotThreshold;
    Cycle timer = 0;
    bool tstacks = false;
    bool monitor_log = false;
    std::string trace_file;
    std::string trace_events_file;
    std::uint64_t trace_filter = kTraceFilterDefault;
    bool stats = false;
    std::string stats_json_file;
    std::string metrics_out_file;
    std::string metrics_prom_file;
    std::string flame_out_file;
    PerfConfig perf; //!< intervals; outputs above enable the monitor

    bool
    wantMetrics() const
    {
        return !metrics_out_file.empty() ||
               !metrics_prom_file.empty() || !flame_out_file.empty();
    }
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--arch=riscv|x86] "
                 "[--mode=native|decomposed|nested]\n"
                 "  [--workload=sqlite|mbedtls|gzip|tar|lmbench|attacks] "
                 "[--blocks=N] [--iters=N]\n"
                 "  [--pcu=16e|8e|8en] [--block-engine[=N]] [--interpret]\n"
                 "  [--timer=N] [--tstacks] [--monitor-log]\n"
                 "  [--trace=FILE] [--trace-events=FILE] "
                 "[--trace-filter=KINDS]\n"
                 "  [--stats] [--stats-json=FILE]\n"
                 "  [--metrics-out=FILE] [--metrics-prom=FILE] "
                 "[--flame-out=FILE]\n"
                 "  [--metrics-interval=N] [--profile-interval=N]\n",
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
        } else if (eatOption(argv[i], "--workload", v)) {
            opt.workload = v;
        } else if (eatOption(argv[i], "--blocks", v)) {
            opt.blocks = countUnsigned(argv[0], v, usage, 1);
        } else if (eatOption(argv[i], "--iters", v)) {
            opt.iters = countUnsigned(argv[0], v, usage);
        } else if (eatOption(argv[i], "--pcu", v)) {
            if (v == "16e")
                opt.pcu = PcuConfig::config16E();
            else if (v == "8e")
                opt.pcu = PcuConfig::config8E();
            else if (v == "8en")
                opt.pcu = PcuConfig::config8EN();
            else
                usage(argv[0]);
        } else if (eatOption(argv[i], "--block-engine", v)) {
            opt.block_engine = true;
            // 0 would silently turn the engine off again.
            opt.block_hot_threshold = std::uint32_t(count(
                argv[0], v, usage, 1,
                std::numeric_limits<std::uint32_t>::max()));
        } else if (std::strcmp(argv[i], "--block-engine") == 0) {
            opt.block_engine = true;
        } else if (std::strcmp(argv[i], "--interpret") == 0) {
            opt.block_engine = false;
        } else if (eatOption(argv[i], "--timer", v)) {
            opt.timer = count(argv[0], v, usage);
        } else if (eatOption(argv[i], "--trace", v)) {
            opt.trace_file = v;
        } else if (eatOption(argv[i], "--trace-events", v)) {
            opt.trace_events_file = v;
        } else if (eatOption(argv[i], "--trace-filter", v)) {
            std::string error;
            if (!parseTraceFilter(v, opt.trace_filter, error))
                fatal("--trace-filter: %s", error.c_str());
        } else if (eatOption(argv[i], "--stats-json", v)) {
            opt.stats_json_file = v;
        } else if (eatOption(argv[i], "--metrics-out", v)) {
            opt.metrics_out_file = v;
        } else if (eatOption(argv[i], "--metrics-prom", v)) {
            opt.metrics_prom_file = v;
        } else if (eatOption(argv[i], "--flame-out", v)) {
            opt.flame_out_file = v;
        } else if (eatOption(argv[i], "--metrics-interval", v)) {
            opt.perf.metrics_interval = count(argv[0], v, usage);
        } else if (eatOption(argv[i], "--profile-interval", v)) {
            opt.perf.profile_interval = count(argv[0], v, usage);
        } else if (std::strcmp(argv[i], "--tstacks") == 0) {
            opt.tstacks = true;
        } else if (std::strcmp(argv[i], "--monitor-log") == 0) {
            opt.monitor_log = true;
        } else if (std::strcmp(argv[i], "--stats") == 0) {
            opt.stats = true;
        } else {
            usage(argv[0]);
        }
    }
    return opt;
}

AppProfile
profileByName(const std::string &name)
{
    for (const AppProfile &p : AppProfile::all())
        if (p.name == name)
            return p;
    fatal("unknown workload '%s'", name.c_str());
}

/** A short (<= 8 char, packTraceName-safe) tag for a service domain. */
const char *
serviceTag(Sys sys)
{
    switch (sys) {
      case Sys::Read: case Sys::Write: case Sys::Open:
      case Sys::Close: case Sys::Stat:
        return "fs";
      case Sys::PipeWrite: case Sys::PipeRead:
        return "pipe";
      case Sys::SigInstall: case Sys::SigRaise: case Sys::SigReturn:
        return "signal";
      case Sys::CtxSwitch:
        return "sched";
      case Sys::MmapTouch:
        return "mm";
      case Sys::ServiceCpuid: return "cpuid";
      case Sys::ServiceMtrr: return "mtrr";
      case Sys::ServicePmc0: return "pmc0";
      case Sys::ServicePmc1: return "pmc1";
      default:
        return "svc";
    }
}

/** Announce the kernel image's domain names as trace metadata. */
void
emitDomainNames(TraceBuffer &trace, const KernelImage &image)
{
    trace.emit(TraceKind::DomainName, 0, packTraceName("dom0"));
    trace.emit(TraceKind::DomainName, image.kernel_domain,
               packTraceName("kernel"));
    if (image.mm_domain != image.kernel_domain) {
        trace.emit(TraceKind::DomainName, image.mm_domain,
                   packTraceName("monitor"));
    }
    for (const auto &[sys, domain] : image.service_domains) {
        if (domain == image.kernel_domain || domain == image.mm_domain)
            continue;
        trace.emit(TraceKind::DomainName, domain,
                   packTraceName(serviceTag(sys)));
    }
}

/** Wire the machine-owned trace into @p sink under the option filter. */
void
wireTrace(Machine &machine, const Options &opt, BinaryTraceSink &sink,
          std::uint8_t core_id)
{
    TraceBuffer &trace = machine.enableTracing();
    trace.attachSink(&sink);
    trace.setFilter(opt.trace_filter);
    trace.setCoreId(core_id);
}

/** Enable the monitor and seed its regions from the kernel image. */
void
wireMetrics(Machine &machine, const Options &opt,
            const KernelImage &image)
{
    if (!opt.wantMetrics())
        return;
    PerfMonitor &perf = machine.enableMetrics(opt.perf);
    std::vector<ProfRegion> regions;
    for (const CodeRegion &r : image.code_regions)
        regions.push_back({r.base, r.limit, std::uint32_t(r.domain),
                           r.name});
    perf.profiler().setRegions(std::move(regions));
}

/** Finalize the epoch series and write every requested export. */
void
writeMetricsOutputs(Machine &machine, const Options &opt)
{
    PerfMonitor *perf = machine.perf();
    if (!perf)
        return;
    perf->finalize(
        std::uint64_t(machine.core().stats().lookup("core.instructions")),
        Cycle(machine.core().stats().lookup("core.cycles")));
    if (!opt.metrics_out_file.empty()) {
        std::ofstream os(opt.metrics_out_file);
        if (!os)
            fatal("cannot open %s", opt.metrics_out_file.c_str());
        perf->writeJson(os);
    }
    if (!opt.metrics_prom_file.empty()) {
        std::ofstream os(opt.metrics_prom_file);
        if (!os)
            fatal("cannot open %s", opt.metrics_prom_file.c_str());
        perf->writePrometheus(os);
    }
    if (!opt.flame_out_file.empty()) {
        std::ofstream os(opt.flame_out_file);
        if (!os)
            fatal("cannot open %s", opt.flame_out_file.c_str());
        perf->profiler().writeCollapsed(os);
    }
}

/**
 * The attack-corpus workload: every Table 1 scenario, natively and
 * under ISA-Grid. Each run gets its own machine and trace core id;
 * all runs stream into one .isatrace file.
 */
int
runAttackCorpus(const Options &opt, std::ofstream *events_os)
{
    std::optional<BinaryTraceSink> sink;
    if (events_os)
        sink.emplace(*events_os);
    std::uint8_t next_core = 0;
    unsigned blocked = 0, succeeded = 0, runs = 0;
    std::uint64_t total_events = 0;
    std::unique_ptr<Machine> last_machine;

    std::printf("attack corpus (%s):\n", opt.x86 ? "x86" : "riscv");
    for (const AttackScenario &scenario : attackScenarios(opt.x86)) {
        for (bool with_isagrid : {true, false}) {
            if (scenario.requires_isagrid && !with_isagrid)
                continue;
            PreparedAttack prepared =
                prepareAttack(scenario, opt.x86, with_isagrid);
            Machine &m = *prepared.machine;
            m.core().setBlockEngine(
                opt.block_engine ? opt.block_hot_threshold : 0);
            if (sink) {
                wireTrace(m, opt, *sink, next_core++);
                emitDomainNames(*m.trace(), prepared.image);
            }
            wireMetrics(m, opt, prepared.image);
            m.core().reset(prepared.payload_entry);
            if (with_isagrid) {
                m.pcu().setGridReg(GridReg::Domain,
                                   prepared.payload_domain);
            }
            RunResult r = m.core().run(100'000);
            bool halted = r.reason == StopReason::Halted;
            ++runs;
            (halted ? succeeded : blocked)++;
            std::printf("  %-28s %-10s %s\n", scenario.name.c_str(),
                        with_isagrid ? "isagrid" : "native",
                        halted ? "completed"
                               : faultName(r.fault));
            if (sink) {
                m.trace()->flush();
                total_events += m.trace()->emitted();
            }
            last_machine = std::move(prepared.machine);
        }
    }
    std::printf("%u runs: %u completed, %u blocked\n", runs, succeeded,
                blocked);
    if (sink)
        std::printf("trace events    : %llu\n",
                    (unsigned long long)total_events);
    if (!opt.stats_json_file.empty() && last_machine) {
        std::ofstream os(opt.stats_json_file);
        if (!os)
            fatal("cannot open %s", opt.stats_json_file.c_str());
        last_machine->dumpStatsJson(os);
    }
    // Like --stats-json, the metrics exports cover the last run of
    // the corpus (each scenario gets a fresh machine).
    if (last_machine)
        writeMetricsOutputs(*last_machine, opt);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);

    std::ofstream events;
    std::ofstream *events_os = nullptr;
    if (!opt.trace_events_file.empty()) {
        events.open(opt.trace_events_file, std::ios::binary);
        if (!events)
            fatal("cannot open trace file %s",
                  opt.trace_events_file.c_str());
        events_os = &events;
    }

    if (opt.workload == "attacks")
        return runAttackCorpus(opt, events_os);

    MachineConfig mc;
    mc.pcu = opt.pcu;
    mc.block_engine = opt.block_engine;
    mc.block_hot_threshold = opt.block_hot_threshold;
    auto machine = opt.x86 ? Machine::gem5x86(mc) : Machine::rocket(mc);

    Addr entry;
    if (opt.workload == "lmbench") {
        entry = buildLmbenchSuite(*machine, opt.iters);
    } else {
        AppProfile profile = profileByName(opt.workload);
        profile.total_blocks = opt.blocks;
        entry = buildApp(*machine, profile);
    }

    KernelConfig config;
    config.mode = opt.mode;
    config.monitor_log = opt.monitor_log;
    config.timer_interval = opt.timer;
    config.per_thread_tstack = opt.tstacks;
    KernelBuilder builder(*machine, config);
    KernelImage image = builder.build(entry);

    std::ofstream trace;
    TextTrace tracer(trace);
    if (!opt.trace_file.empty()) {
        trace.open(opt.trace_file);
        if (!trace)
            fatal("cannot open trace file %s", opt.trace_file.c_str());
        machine->core().setStepHook(&tracer);
    }

    BinaryTraceSink sink(events);
    if (events_os) {
        wireTrace(*machine, opt, sink, 0);
        emitDomainNames(*machine->trace(), image);
    }
    wireMetrics(*machine, opt, image);

    RunResult r = machine->run(image.boot_pc, 2'000'000'000ull);
    machine->core().setStepHook(nullptr);
    if (events_os)
        machine->trace()->flush();
    writeMetricsOutputs(*machine, opt);
    if (r.reason != StopReason::Halted) {
        std::printf("stopped: %s at %#llx\n", faultName(r.fault),
                    (unsigned long long)r.fault_pc);
        return 1;
    }

    std::printf("arch            : %s\n", opt.x86 ? "x86" : "riscv");
    std::printf("mode            : %s\n",
                opt.mode == KernelMode::Monolithic  ? "native"
                : opt.mode == KernelMode::Decomposed ? "decomposed"
                                                     : "nested");
    std::printf("workload        : %s\n", opt.workload.c_str());
    std::printf("instructions    : %llu\n",
                (unsigned long long)r.instructions);
    std::printf("cycles          : %llu\n",
                (unsigned long long)r.cycles);
    std::printf("IPC             : %.3f\n",
                double(r.instructions) / double(r.cycles));
    std::printf("domain switches : %llu\n",
                (unsigned long long)machine->pcu().switches());
    std::printf("privilege faults: %llu\n",
                (unsigned long long)machine->pcu().faults());
    if (events_os) {
        std::printf("trace events    : %llu (%llu dropped)\n",
                    (unsigned long long)machine->trace()->emitted(),
                    (unsigned long long)
                        machine->trace()->droppedEvents());
    }
    std::printf("per-domain usage:\n");
    for (const auto &[domain, usage] : machine->core().domainUsage()) {
        std::printf("  d%-3llu %12llu insts %12llu cycles (%.2f%%)\n",
                    (unsigned long long)domain,
                    (unsigned long long)usage.instructions,
                    (unsigned long long)usage.cycles,
                    100.0 * double(usage.cycles) / double(r.cycles));
    }

    if (opt.workload == "lmbench") {
        std::printf("\nper-operation cycles:\n");
        for (const auto &res :
             extractLmbenchResults(machine->core(), opt.iters)) {
            std::printf("  %-12s %10.1f\n", lmbenchOpName(res.op),
                        res.cycles_per_op);
        }
    } else {
        std::printf("ROI cycles      : %llu\n",
                    (unsigned long long)appRoiCycles(machine->core()));
    }

    if (opt.stats) {
        std::printf("\n");
        machine->dumpStats(std::cout);
    }
    if (!opt.stats_json_file.empty()) {
        std::ofstream os(opt.stats_json_file);
        if (!os)
            fatal("cannot open %s", opt.stats_json_file.c_str());
        machine->dumpStatsJson(os);
    }
    return 0;
}
