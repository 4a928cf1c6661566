/**
 * @file
 * Event-tracing overhead on the simulator hot path.
 *
 * The tracing macros (ISAGRID_TRACE_EVENT) sit inside the PCU check
 * and the core's retire/trap paths, so they are always compiled in.
 * The design claim is that with no trace buffer attached they cost one
 * pointer compare and the simulator stays within 2% of its untraced
 * speed. This harness measures the fig5 lmbench scenario (decomposed
 * RISC-V kernel, 8E. privilege caches — the same workload behind the
 * committed BENCH_fig5.json numbers) in three configurations:
 *
 *   disabled       tracing compiled in, no buffer attached
 *   default-filter buffer + NullTraceSink, switching-activity kinds
 *   all-events     buffer + NullTraceSink, every kind incl. per-inst
 *
 * and reports host MIPS plus the relative overhead of each enabled
 * configuration against `disabled`. When the committed BENCH_fig5.json
 * is found (--baseline=PATH overrides the default), the disabled
 * configuration is also compared against its lmbench_8E
 * insts_per_second; that comparison is informational unless --gate is
 * given, because wall-clock MIPS committed from one host are only
 * meaningful on comparable hardware.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "sim/trace.hh"

using namespace isagrid;
using namespace isagrid::bench;

namespace {

enum class TraceMode { Disabled, DefaultFilter, AllEvents };

/** One timed lmbench run; returns {wall seconds, instructions}. */
std::pair<double, std::uint64_t>
timedRun(TraceMode mode)
{
    MachineConfig mc;
    mc.pcu = PcuConfig::config8E();
    auto machine = Machine::rocket(mc);
    Addr entry = buildLmbenchSuite(*machine, 5000);
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    KernelBuilder builder(*machine, config);
    KernelImage image = builder.build(entry);

    NullTraceSink null_sink;
    if (mode != TraceMode::Disabled) {
        TraceBuffer &trace = machine->enableTracing();
        trace.attachSink(&null_sink);
        trace.setFilter(mode == TraceMode::AllEvents
                            ? kTraceFilterAll
                            : kTraceFilterDefault);
    }

    auto start = std::chrono::steady_clock::now();
    RunResult r = machine->run(image.boot_pc, 500'000'000);
    auto stop = std::chrono::steady_clock::now();
    if (r.reason != StopReason::Halted)
        fatal("lmbench run did not halt: %s", faultName(r.fault));
    if (machine->trace())
        machine->trace()->flush();
    double secs = std::chrono::duration<double>(stop - start).count();
    return {secs, r.instructions};
}

/**
 * Best-of-N MIPS for every configuration. Rounds are interleaved
 * (one run of each configuration per round) so slow drift in host
 * load hits all configurations alike instead of biasing whichever
 * block ran while the machine was busy; best-of discards transient
 * slowdowns.
 */
std::vector<double>
measureAll(const std::vector<TraceMode> &modes, unsigned repeat)
{
    timedRun(modes.front());
    std::vector<double> best(modes.size(), 0);
    for (unsigned i = 0; i < repeat; ++i) {
        for (std::size_t m = 0; m < modes.size(); ++m) {
            auto [secs, insts] = timedRun(modes[m]);
            best[m] = std::max(best[m], double(insts) / secs);
        }
    }
    return best;
}

/**
 * Pull scenarios[name].insts_per_second out of a BENCH_*.json file
 * with a plain text scan (the files are machine-written, flat, and a
 * JSON parser dependency is not worth it here). Returns 0 if absent.
 */
double
baselineMips(const std::string &path, const std::string &name)
{
    std::ifstream is(path);
    if (!is)
        return 0;
    std::stringstream ss;
    ss << is.rdbuf();
    std::string text = ss.str();
    std::size_t at = text.find("\"name\": \"" + name + "\"");
    if (at == std::string::npos)
        return 0;
    std::size_t key = text.find("\"insts_per_second\":", at);
    if (key == std::string::npos)
        return 0;
    return std::strtod(text.c_str() + key + std::strlen(
                           "\"insts_per_second\":"), nullptr);
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef BENCH_BASELINE_DIR
#define BENCH_BASELINE_DIR "."
#endif
    auto [baseline_path, repeat, gate] = parseOverheadArgs(
        argc, argv, std::string(BENCH_BASELINE_DIR) + "/BENCH_fig5.json");

    heading("Event-tracing overhead (fig5 lmbench, decomposed 8E.)");

    struct Config
    {
        const char *name;
        TraceMode mode;
    } configs[] = {
        {"disabled", TraceMode::Disabled},
        {"default-filter", TraceMode::DefaultFilter},
        {"all-events", TraceMode::AllEvents},
    };

    std::vector<TraceMode> modes;
    for (const auto &c : configs)
        modes.push_back(c.mode);
    std::vector<double> mips = measureAll(modes, repeat);

    Table t({"tracing", "MIPS", "vs disabled"});
    for (std::size_t i = 0; i < std::size(configs); ++i) {
        double overhead = 100.0 * (mips[0] / mips[i] - 1.0);
        t.row({configs[i].name, fmt(mips[i] / 1e6, 2),
               i == 0 ? "-" : fmtPercent(overhead, 2)});
    }
    t.print();

    bool ok = true;
    double committed = baselineMips(baseline_path, "lmbench_8E");
    if (committed > 0) {
        double regression = 100.0 * (committed / mips[0] - 1.0);
        std::printf("\ncommitted lmbench_8E baseline: %.2f MIPS (%s)\n"
                    "disabled-tracing regression  : %+.2f%% "
                    "(budget 2%%): %s\n",
                    committed / 1e6, baseline_path.c_str(), regression,
                    regression < 2.0 ? "PASS" : "FAIL");
        if (regression >= 2.0)
            ok = false;
    } else {
        std::printf("\nno committed baseline at %s; skipping the "
                    "regression comparison\n", baseline_path.c_str());
    }

    std::printf("\nThe `disabled` row is the configuration every "
                "non-tracing run pays: the macros reduce to a null "
                "pointer compare. Enabled rows show the cost of "
                "sampling + ring writes with a discarding sink.\n");
    if (!ok && !gate)
        std::printf("(informational: re-run with --gate to turn the "
                    "baseline comparison into an exit status)\n");
    return gate && !ok ? 1 : 0;
}
