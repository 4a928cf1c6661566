/**
 * @file
 * Block-translation engine microbenchmarks (cpu/block).
 *
 * Three views of the engine on the workloads the bench harness
 * already tracks:
 *
 *   residency   fig5 lmbench (decomposed RISC-V, 8E.): share of
 *               retired instructions that came out of translated
 *               blocks, chain hit rate (successor found in a block's
 *               chain slots), check-memo hit rate (epoch match vs
 *               bypass re-validation), and fallback counts
 *   latency     pure translation cost: every block the lmbench run
 *               produced is flushed and re-translated cold, timed
 *   speed       host MIPS of the block-engine lmbench run, compared
 *               against the committed BENCH_fig5.json lmbench_8E
 *               number (the decode-cache configuration this engine
 *               must beat)
 *
 * The baseline comparison is informational unless --gate is given,
 * because wall-clock MIPS committed from one host are only meaningful
 * on comparable hardware.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace isagrid;
using namespace isagrid::bench;

namespace {

/** lmbench (fig5, decomposed 8E.) with the block engine on. */
struct LmbenchRun
{
    std::unique_ptr<Machine> machine;
    RunResult result;
    double wall_seconds = 0.0;
};

LmbenchRun
runLmbench(std::uint32_t hot_threshold)
{
    LmbenchRun out;
    MachineConfig mc;
    mc.pcu = PcuConfig::config8E();
    mc.block_engine = true;
    mc.block_hot_threshold = hot_threshold;
    out.machine = Machine::rocket(mc);
    Addr entry = buildLmbenchSuite(*out.machine, 5000);
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    KernelBuilder builder(*out.machine, config);
    KernelImage image = builder.build(entry);
    auto t0 = std::chrono::steady_clock::now();
    out.result = out.machine->run(image.boot_pc, 500'000'000);
    auto t1 = std::chrono::steady_clock::now();
    if (out.result.reason != StopReason::Halted)
        fatal("lmbench run did not halt: %s",
              faultName(out.result.fault));
    out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    return out;
}

std::string
rate(std::uint64_t hits, std::uint64_t total)
{
    return total ? fmtPercent(100.0 * double(hits) / double(total), 1)
                 : std::string("-");
}

void
residencyRows(Table &t, const char *workload,
              const BlockEngine::HostStats &s, std::uint64_t insts)
{
    t.row({workload, "translated insts",
           rate(s.translated_insts, insts) + " (" +
               std::to_string(s.translated_insts) + ")"});
    t.row({workload, "chain hit rate",
           rate(s.chain_hits, s.chain_hits + s.chain_misses)});
    t.row({workload, "memo hit rate",
           rate(s.memo_hits, s.memo_hits + s.memo_fills)});
    t.row({workload, "entries",
           std::to_string(s.entries) + " (" +
               rate(s.chained_entries, s.entries) + " chained)"});
    t.row({workload, "fallbacks", std::to_string(s.fallbacks)});
}

/** See bench_trace_overhead.cc — same flat-scan baseline lookup. */
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
    return std::strtod(text.c_str() + key +
                           std::strlen("\"insts_per_second\":"),
                       nullptr);
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

    heading("Block-engine residency (fig5 lmbench)");

    LmbenchRun warm = runLmbench(BlockEngine::kDefaultHotThreshold);
    const BlockEngine *eng = warm.machine->core().blockEngine();
    Table t({"workload", "metric", "value"});
    residencyRows(t, "lmbench", eng->stats(),
                  warm.result.instructions);
    t.print();

    heading("Translation latency");

    // Re-translate every block the lmbench run produced, cold: with a
    // hotness threshold of 1, one heat() per pc is exactly one
    // translation.
    LmbenchRun lat = runLmbench(1);
    BlockEngine *le = lat.machine->core().blockEngine();
    std::vector<Addr> pcs = le->blockPcs();
    double best_per_block_us = 1e99;
    std::uint64_t ops = 0;
    for (unsigned i = 0; i < std::max(repeat, 1u); ++i) {
        le->flushAll();
        ops = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (Addr pc : pcs) {
            TransBlock *b = le->heat(pc);
            if (b && !b->dead)
                ops += b->ops.size();
        }
        auto t1 = std::chrono::steady_clock::now();
        double us =
            std::chrono::duration<double>(t1 - t0).count() * 1e6;
        best_per_block_us =
            std::min(best_per_block_us, us / double(pcs.size()));
    }
    std::printf("%zu blocks, %llu ops: %.3f us/block (best of %u)\n",
                pcs.size(), (unsigned long long)ops,
                best_per_block_us, repeat);

    heading("Host speed vs committed baseline");

    double best_mips = 0.0;
    for (unsigned i = 0; i < repeat; ++i) {
        LmbenchRun r = runLmbench(BlockEngine::kDefaultHotThreshold);
        best_mips = std::max(best_mips, double(r.result.instructions) /
                                            r.wall_seconds);
    }
    std::printf("block-engine lmbench: %.2f MIPS (best of %u)\n",
                best_mips / 1e6, repeat);

    bool ok = true;
    double committed = baselineMips(baseline_path, "lmbench_8E");
    if (committed > 0) {
        double margin = 100.0 * (best_mips / committed - 1.0);
        std::printf("committed lmbench_8E (decode cache): %.2f MIPS "
                    "(%s)\nblock-engine margin: %+.2f%% "
                    "(must not be slower): %s\n",
                    committed / 1e6, baseline_path.c_str(), margin,
                    margin > 0.0 ? "PASS" : "FAIL");
        if (margin <= 0.0)
            ok = false;
    } else {
        std::printf("no committed baseline at %s; skipping the "
                    "comparison\n", baseline_path.c_str());
    }

    if (!ok && !gate)
        std::printf("(informational: re-run with --gate to turn the "
                    "baseline comparison into an exit status)\n");
    return gate && !ok ? 1 : 0;
}
