/**
 * @file
 * Metrics/profiler overhead on the simulator hot path.
 *
 * The performance monitor (sim/metrics.hh) adds one integer compare
 * per retired instruction to the core; everything else runs in the
 * cold tick() call every sampling epoch. The design budgets are:
 * detached, the simulator stays within 2% of the committed
 * BENCH_fig5.json speed; with default sampling intervals enabled the
 * cost over the detached configuration stays under 5%. This harness
 * measures the fig5 lmbench scenario (decomposed RISC-V kernel, 8E.
 * privilege caches) in three configurations:
 *
 *   disabled        monitor compiled in, never attached
 *   default         enableMetrics(), 1M-inst epochs, 100k-inst samples
 *   fine            100k-inst epochs, 10k-inst samples (informational)
 *
 * Rounds are interleaved and best-of-N like bench_trace_overhead, so
 * host-load drift hits all configurations alike. --gate turns the 5%
 * default-sampling budget into an exit status; it is host-independent
 * (a ratio of interleaved runs), so CI can enforce it. The committed
 * lmbench_8E comparison stays informational even under --gate:
 * wall-clock MIPS recorded on one host are only meaningful on
 * comparable hardware.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "sim/metrics.hh"

using namespace isagrid;
using namespace isagrid::bench;

namespace {

enum class MetricsMode { Disabled, Default, Fine };

/** One timed lmbench run; returns {wall seconds, instructions}. */
std::pair<double, std::uint64_t>
timedRun(MetricsMode mode)
{
    MachineConfig mc;
    mc.pcu = PcuConfig::config8E();
    auto machine = Machine::rocket(mc);
    Addr entry = buildLmbenchSuite(*machine, 5000);
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    KernelBuilder builder(*machine, config);
    KernelImage image = builder.build(entry);

    if (mode != MetricsMode::Disabled) {
        PerfConfig pc;
        if (mode == MetricsMode::Fine) {
            pc.metrics_interval = 100'000;
            pc.profile_interval = 10'000;
        }
        machine->enableMetrics(pc);
    }

    auto start = std::chrono::steady_clock::now();
    RunResult r = machine->run(image.boot_pc, 500'000'000);
    auto stop = std::chrono::steady_clock::now();
    if (r.reason != StopReason::Halted)
        fatal("lmbench run did not halt: %s", faultName(r.fault));
    if (machine->perf())
        machine->perf()->finalize(r.instructions, r.cycles);
    double secs = std::chrono::duration<double>(stop - start).count();
    return {secs, r.instructions};
}

/** Interleaved best-of-N MIPS (see bench_trace_overhead). */
std::vector<double>
measureAll(const std::vector<MetricsMode> &modes, unsigned repeat)
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

/** scenarios[name].insts_per_second via a plain text scan. */
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

    heading("Metrics/profiler overhead (fig5 lmbench, decomposed 8E.)");

    struct Config
    {
        const char *name;
        MetricsMode mode;
    } configs[] = {
        {"disabled", MetricsMode::Disabled},
        {"default-sampling", MetricsMode::Default},
        {"fine-sampling", MetricsMode::Fine},
    };

    std::vector<MetricsMode> modes;
    for (const auto &c : configs)
        modes.push_back(c.mode);
    std::vector<double> mips = measureAll(modes, repeat);

    Table t({"metrics", "MIPS", "vs disabled"});
    for (std::size_t i = 0; i < std::size(configs); ++i) {
        double overhead = 100.0 * (mips[0] / mips[i] - 1.0);
        t.row({configs[i].name, fmt(mips[i] / 1e6, 2),
               i == 0 ? "-" : fmtPercent(overhead, 2)});
    }
    t.print();

    bool ok = true;
    double sampling_cost = 100.0 * (mips[0] / mips[1] - 1.0);
    std::printf("\ndefault-sampling overhead    : %+.2f%% "
                "(budget 5%%): %s\n",
                sampling_cost, sampling_cost < 5.0 ? "PASS" : "FAIL");
    if (sampling_cost >= 5.0)
        ok = false;

    double committed = baselineMips(baseline_path, "lmbench_8E");
    if (committed > 0) {
        double regression = 100.0 * (committed / mips[0] - 1.0);
        std::printf("committed lmbench_8E baseline: %.2f MIPS (%s)\n"
                    "disabled-metrics regression  : %+.2f%% "
                    "(budget 2%% on the recording host, informational "
                    "elsewhere)\n",
                    committed / 1e6, baseline_path.c_str(), regression);
    } else {
        std::printf("no committed baseline at %s; skipping the "
                    "regression comparison\n", baseline_path.c_str());
    }

    std::printf("\nThe `disabled` row is the configuration every "
                "non-monitored run pays: one never-taken integer "
                "compare per retire. Enabled rows add the cold tick "
                "path — a trusted-stack walk per profile sample and a "
                "full stats collection per metrics epoch.\n");
    if (!ok && !gate)
        std::printf("(informational: re-run with --gate to turn the "
                    "budget comparisons into an exit status)\n");
    return gate && !ok ? 1 : 0;
}
