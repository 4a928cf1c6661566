/**
 * @file
 * Shared helpers for the benchmark binaries: table rendering, the
 * measured-loop harness used by the microbenchmarks, and the scenario
 * registry consumed by the parallel bench runner (tools/isagrid_bench).
 */

#ifndef ISAGRID_BENCH_BENCH_COMMON_HH_
#define ISAGRID_BENCH_BENCH_COMMON_HH_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cli.hh"
#include "cpu/machine.hh"
#include "kernel/asm_iface.hh"
#include "kernel/kernel_builder.hh"
#include "workloads/apps.hh"
#include "workloads/lmbench.hh"

namespace isagrid {
namespace bench {

// ---------------------------------------------------------------------
// Scenario registry (parallel bench runner)
// ---------------------------------------------------------------------

/**
 * Per-run knobs every registered scenario must honour. Scenarios are
 * otherwise self-contained: each run() builds its own Machine(s), so
 * any number of scenarios can execute on concurrent threads.
 */
struct ScenarioOptions
{
    /** Host-side decoded-instruction cache size (0 disables). */
    std::uint32_t decode_cache_entries =
        MachineConfig{}.decode_cache_entries;
    /** Run hot blocks through the block-translation engine. */
    bool block_engine = MachineConfig{}.block_engine;
    std::uint32_t block_hot_threshold =
        BlockEngine::kDefaultHotThreshold;
    /**
     * When non-empty, the scenario enables the performance monitor
     * (sim/metrics.hh) on its machine and writes the metrics JSON
     * document to this path after the run. Honoured by the
     * single-machine scenarios (fig5 lmbench, table4 switching); the
     * multi-machine ones (apps, attacks) have no single series to
     * export and ignore it. The runner only sets this on untimed
     * extra runs, so the timed numbers never include sampling cost.
     */
    std::string metrics_out;
};

/** What one scenario run simulated (totals across all its runs). */
struct ScenarioResult
{
    std::uint64_t guest_cycles = 0;
    std::uint64_t guest_instructions = 0;
};

/** One registered, independently runnable benchmark scenario. */
struct Scenario
{
    std::string group; //!< BENCH_<group>.json bucket (fig5, table4, ...)
    std::string name;  //!< unique within the group
    std::function<ScenarioResult(const ScenarioOptions &)> run;
};

/** Every registered scenario (defined in bench_scenarios.cc). */
std::vector<Scenario> allScenarios();

// ---------------------------------------------------------------------
// Command line of the overhead benches
// ---------------------------------------------------------------------

/** `[--baseline=FILE] [--repeat=N] [--gate]` (parseOverheadArgs). */
struct OverheadArgs
{
    std::string baseline_path; //!< committed BENCH_<group>.json
    unsigned repeat = 3;       //!< timed repeats, at least 1
    bool gate = false;         //!< a missed baseline fails the run
};

/**
 * Parse the overhead benches' options through tools/cli.hh: an
 * unknown option or a repeat count that is not a positive decimal is
 * a usage error (exit 2).
 */
inline OverheadArgs
parseOverheadArgs(int argc, char **argv, std::string baseline_path)
{
    UsageFn usage = [](const char *argv0) {
        std::fprintf(stderr,
                     "usage: %s [--baseline=FILE] [--repeat=N] [--gate]\n",
                     argv0);
    };
    OverheadArgs args;
    args.baseline_path = std::move(baseline_path);
    std::string v;
    for (int i = 1; i < argc; ++i) {
        if (eatOption(argv[i], "--baseline", v)) {
            args.baseline_path = v;
        } else if (eatOption(argv[i], "--repeat", v)) {
            args.repeat = countUnsigned(argv[0], v, usage, 1);
        } else if (std::strcmp(argv[i], "--gate") == 0) {
            args.gate = true;
        } else {
            usage(argv[0]);
            std::exit(2);
        }
    }
    return args;
}

// ---------------------------------------------------------------------
// Table rendering / formatting
// ---------------------------------------------------------------------

/** Print a separator + heading. */
inline void
heading(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Echo the simulated x86 configuration (the paper's Table 3). */
inline void
printTable3()
{
    std::printf(
        "simulated x86 (Table 3): 8-wide fetch/decode/issue/commit, "
        "192-entry ROB, 32/32 LQ/SQ,\n  L1 I/D 32KB 4-way 2c, "
        "L2 256KB 16-way 20c, L3 2MB 16-way 32c, DRAM 150c "
        "(~30ns)\n");
}

/** A fixed-width text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> columns)
        : cols(std::move(columns))
    {
    }

    void
    row(std::vector<std::string> cells)
    {
        rows.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<std::size_t> widths(cols.size());
        for (std::size_t c = 0; c < cols.size(); ++c)
            widths[c] = cols[c].size();
        for (const auto &r : rows)
            for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c)
                widths[c] = std::max(widths[c], r[c].size());
        auto line = [&](const std::vector<std::string> &cells) {
            for (std::size_t c = 0; c < cols.size(); ++c) {
                std::printf("%-*s  ", int(widths[c]),
                            c < cells.size() ? cells[c].c_str() : "");
            }
            std::printf("\n");
        };
        line(cols);
        std::string sep;
        for (std::size_t c = 0; c < cols.size(); ++c)
            sep += std::string(widths[c], '-') + "  ";
        std::printf("%s\n", sep.c_str());
        for (const auto &r : rows)
            line(r);
    }

  private:
    std::vector<std::string> cols;
    std::vector<std::vector<std::string>> rows;
};

inline std::string
fmt(double v, int prec = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
}

inline std::string
fmtPercent(double v, int prec = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f%%", prec, v);
    return buf;
}

/**
 * Build a decomposed (or other mode) kernel + an application profile
 * and return the ROI cycle count.
 */
inline Cycle
runAppOnKernel(bool x86, const AppProfile &profile, KernelConfig config,
               PcuConfig pcu, Machine **machine_out = nullptr,
               std::unique_ptr<Machine> *keep = nullptr,
               const MachineConfig *base = nullptr)
{
    MachineConfig mc = base ? *base : MachineConfig{};
    mc.pcu = pcu;
    auto machine = x86 ? Machine::gem5x86(mc) : Machine::rocket(mc);
    Addr entry = buildApp(*machine, profile);
    KernelBuilder builder(*machine, config);
    KernelImage image = builder.build(entry);
    RunResult r = machine->run(image.boot_pc, 500'000'000);
    if (r.reason != StopReason::Halted) {
        fatal("app %s did not halt: %s", profile.name.c_str(),
              faultName(r.fault));
    }
    Cycle cycles = appRoiCycles(machine->core());
    if (machine_out)
        *machine_out = machine.get();
    if (keep)
        *keep = std::move(machine);
    return cycles;
}

} // namespace bench
} // namespace isagrid

#endif // ISAGRID_BENCH_BENCH_COMMON_HH_
