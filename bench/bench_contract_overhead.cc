/**
 * @file
 * Step-hook overhead on the simulator hot path.
 *
 * The contract checkers observe runs through CoreBase's StepHook
 * (cpu/step_hook.hh), which is always compiled in. The design claim
 * mirrors the tracing macros: with no hook attached the step path
 * pays one pointer compare and the simulator stays within 2% of its
 * uninstrumented speed. This harness measures the fig5 lmbench
 * scenario (decomposed RISC-V kernel, 8E. privilege caches — the
 * workload behind the committed BENCH_fig5.json numbers) in two
 * configurations:
 *
 *   disabled   hook support compiled in, no hook attached
 *   taint      a fully seeded TaintTracker attached (the perturbed-run
 *              cost the self-composition oracle pays)
 *
 * and reports host MIPS plus the relative overhead. When the
 * committed BENCH_fig5.json is found (--baseline=PATH overrides the
 * default), the disabled configuration is also compared against its
 * lmbench_8E insts_per_second; that comparison is informational
 * unless --gate is given, because wall-clock MIPS committed from one
 * host are only meaningful on comparable hardware.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "contract/taint.hh"

using namespace isagrid;
using namespace isagrid::bench;

namespace {

/** One timed lmbench run; returns {wall seconds, instructions}. */
std::pair<double, std::uint64_t>
timedRun(bool attach_taint)
{
    MachineConfig mc;
    mc.pcu = PcuConfig::config8E();
    auto machine = Machine::rocket(mc);
    Addr entry = buildLmbenchSuite(*machine, 5000);
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    KernelBuilder builder(*machine, config);
    KernelImage image = builder.build(entry);

    TaintTracker taint(machine->isa());
    if (attach_taint) {
        // Seed like the oracle does: a perturbed CSR and a perturbed
        // page, so propagation work is representative.
        taint.seedCsr(0x100, ~RegVal{0});
        taint.seedPage(0x70000);
        machine->core().setStepHook(&taint);
    }

    auto start = std::chrono::steady_clock::now();
    RunResult r = machine->run(image.boot_pc, 500'000'000);
    auto stop = std::chrono::steady_clock::now();
    if (r.reason != StopReason::Halted)
        fatal("lmbench run did not halt: %s", faultName(r.fault));
    double secs = std::chrono::duration<double>(stop - start).count();
    return {secs, r.instructions};
}

/**
 * Best-of-N MIPS per configuration, rounds interleaved so host-load
 * drift hits both configurations alike (as bench_trace_overhead).
 */
std::vector<double>
measureAll(unsigned repeat)
{
    timedRun(false); // warm-up
    std::vector<double> best(2, 0);
    for (unsigned i = 0; i < repeat; ++i) {
        for (int m = 0; m < 2; ++m) {
            auto [secs, insts] = timedRun(m == 1);
            best[m] = std::max(best[m], double(insts) / secs);
        }
    }
    return best;
}

/** scenarios[name].insts_per_second from a BENCH_*.json (text scan). */
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

    heading("Step-hook overhead (fig5 lmbench, decomposed 8E.)");

    std::vector<double> mips = measureAll(repeat);
    const char *names[] = {"disabled", "taint-attached"};

    Table t({"step hook", "MIPS", "vs disabled"});
    for (int i = 0; i < 2; ++i) {
        double overhead = 100.0 * (mips[0] / mips[i] - 1.0);
        t.row({names[i], fmt(mips[i] / 1e6, 2),
               i == 0 ? "-" : fmtPercent(overhead, 2)});
    }
    t.print();

    bool ok = true;
    double committed = baselineMips(baseline_path, "lmbench_8E");
    if (committed > 0) {
        double regression = 100.0 * (committed / mips[0] - 1.0);
        std::printf("\ncommitted lmbench_8E baseline: %.2f MIPS (%s)\n"
                    "disabled-hook regression     : %+.2f%% "
                    "(budget 2%%): %s\n",
                    committed / 1e6, baseline_path.c_str(), regression,
                    regression < 2.0 ? "PASS" : "FAIL");
        if (regression >= 2.0)
            ok = false;
    } else {
        std::printf("\nno committed baseline at %s; skipping the "
                    "regression comparison\n", baseline_path.c_str());
    }

    std::printf("\nThe `disabled` row is what every non-contract run "
                "pays: the hook reduces to a null pointer compare on "
                "the step path. The taint-attached row is the "
                "perturbed-run cost inside the oracle's windows.\n");
    if (!ok && !gate)
        std::printf("(informational: re-run with --gate to turn the "
                    "baseline comparison into an exit status)\n");
    return gate && !ok ? 1 : 0;
}
