/**
 * @file
 * Parallel benchmark runner over the scenario registry
 * (bench/bench_common.hh). Every scenario is self-contained (builds
 * its own machines), so a `--jobs N` thread pool runs them
 * concurrently; each scenario is timed with warmup + repeated runs
 * and the median host wall time is reported. Results are written as
 * one `BENCH_<group>.json` per scenario group, making the perf
 * trajectory of the simulator machine-readable.
 *
 * The simulator is deterministic: guest cycles and instructions are
 * identical across repeats, only host wall time varies. The headline
 * numbers come from the default configuration (ScenarioOptions{}).
 * With `--compare-decode-cache` each scenario is additionally timed
 * on the interpreter with and without the decoded-instruction cache
 * and the speedup recorded; `--compare-engine` runs the full
 * three-way ablation (plain interpreter / decode cache /
 * block-translation engine). Each ablation point sets every engine
 * knob itself, so its meaning does not follow the defaults. Compared
 * configurations are timed *interleaved* — one run of each per
 * repeat, round-robin — so slow drifts in host load bias every
 * configuration equally instead of whichever happened to run last.
 * Config-vs-config ratios use each configuration's *fastest* repeat
 * (Timing::best_seconds): contention on a deterministic workload only
 * adds time, so the minimum is the noise-robust estimate.
 *
 * With `--metrics-out DIR` every single-machine scenario gets one
 * extra *untimed* run with the performance monitor attached, writing
 * `DIR/<group>_<name>.metrics.json` (the sim/metrics.hh document that
 * tools/isagrid-perf consumes). After the group files are written, an
 * informational delta report compares each scenario against the
 * committed `BENCH_<group>.json` baseline: host-MIPS drift (expected
 * to move with the host) and guest-cycle totals (deterministic — any
 * change means the modeled behavior changed, not the machine load).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "cli.hh"

using namespace isagrid;
using namespace isagrid::bench;

namespace {

#ifndef BENCH_BASELINE_DIR
#define BENCH_BASELINE_DIR "."
#endif

struct Options
{
    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    unsigned repeat = 3;
    unsigned warmup = 1;
    std::string filter;
    std::string out_dir = ".";
    std::string metrics_out; //!< dir for per-scenario metrics JSON
    std::string baseline_dir = BENCH_BASELINE_DIR;
    bool compare_decode_cache = false;
    bool compare_engine = false;
    bool list_only = false;
    double min_mips = 0.0;
};

struct Timing
{
    ScenarioResult result;
    double median_seconds = 0.0;
    /**
     * Fastest repeat. Config-vs-config ratios are computed from the
     * minima, not the medians: the workloads are deterministic and
     * single-threaded, so host contention only ever *adds* time, and
     * the minimum is the estimate least distorted by a loaded or
     * frequency-scaled machine.
     */
    double best_seconds = 0.0;
};

struct Measured
{
    const Scenario *scenario = nullptr;
    Timing on;      //!< the default configuration (headline)
    Timing interp;  //!< plain interpreter: no decode cache, no engine
    Timing dcache;  //!< interpreter with the decode cache
    Timing block;   //!< block-translation engine (and decode cache)
    bool compared = false;        //!< `interp`, `dcache` valid
    bool engine_compared = false; //!< `interp`, `dcache`, `block` valid
    std::string metrics_file;     //!< written by the untimed metrics run
};

/** An ablation point: the engine knobs, each set explicitly. */
ScenarioOptions
enginePoint(std::uint32_t decode_cache_entries, bool block_engine)
{
    ScenarioOptions o;
    o.decode_cache_entries = decode_cache_entries;
    o.block_engine = block_engine;
    return o;
}

const std::uint32_t kDecodeCacheEntries =
    MachineConfig{}.decode_cache_entries;

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/**
 * Warmup + repeat timed runs of one scenario under each configuration
 * in @p configs, interleaved round-robin (see the file comment).
 */
std::vector<Timing>
timeScenario(const Scenario &s, const std::vector<ScenarioOptions> &configs,
             unsigned warmup, unsigned repeat)
{
    for (unsigned i = 0; i < warmup; ++i)
        for (const ScenarioOptions &cfg : configs)
            s.run(cfg);
    std::vector<Timing> timings(configs.size());
    std::vector<std::vector<double>> walls(configs.size());
    for (unsigned i = 0; i < repeat; ++i) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            auto t0 = std::chrono::steady_clock::now();
            timings[c].result = s.run(configs[c]);
            auto t1 = std::chrono::steady_clock::now();
            walls[c].push_back(
                std::chrono::duration<double>(t1 - t0).count());
        }
    }
    for (std::size_t c = 0; c < configs.size(); ++c) {
        timings[c].best_seconds =
            *std::min_element(walls[c].begin(), walls[c].end());
        timings[c].median_seconds = median(std::move(walls[c]));
    }
    return timings;
}

double
mips(const Timing &t)
{
    return t.median_seconds > 0.0
               ? t.result.guest_instructions / t.median_seconds / 1e6
               : 0.0;
}

void
writeGroupJson(const std::string &path, const std::string &group,
               const Options &opts,
               const std::vector<const Measured *> &rows)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write %s", path.c_str());
    char buf[256];
    os << "{\n";
    os << "  \"group\": \"" << group << "\",\n";
    os << "  \"generated_by\": \"isagrid_bench\",\n";
    os << "  \"jobs\": " << opts.jobs << ",\n";
    os << "  \"warmup\": " << opts.warmup << ",\n";
    os << "  \"repeat\": " << opts.repeat << ",\n";
    os << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Measured &m = *rows[i];
        os << "    {\n";
        os << "      \"name\": \"" << m.scenario->name << "\",\n";
        os << "      \"guest_cycles\": " << m.on.result.guest_cycles
           << ",\n";
        os << "      \"guest_instructions\": "
           << m.on.result.guest_instructions << ",\n";
        std::snprintf(buf, sizeof buf, "%.6f", m.on.median_seconds);
        os << "      \"host_wall_seconds\": " << buf << ",\n";
        std::snprintf(buf, sizeof buf, "%.0f", mips(m.on) * 1e6);
        os << "      \"insts_per_second\": " << buf;
        if (m.compared) {
            os << ",\n      \"decode_cache_compare\": {\n";
            std::snprintf(buf, sizeof buf, "%.6f",
                          m.interp.best_seconds);
            os << "        \"off_wall_seconds\": " << buf << ",\n";
            double speedup = m.dcache.best_seconds > 0.0
                                 ? m.interp.best_seconds /
                                       m.dcache.best_seconds
                                 : 0.0;
            std::snprintf(buf, sizeof buf, "%.3f", speedup);
            os << "        \"speedup\": " << buf << "\n";
            os << "      }";
        }
        if (m.engine_compared) {
            auto ratio = [](double base, double other) {
                return other > 0.0 ? base / other : 0.0;
            };
            os << ",\n      \"engine_compare\": {\n";
            std::snprintf(buf, sizeof buf, "%.6f",
                          m.interp.best_seconds);
            os << "        \"interpret_wall_seconds\": " << buf
               << ",\n";
            std::snprintf(buf, sizeof buf, "%.6f",
                          m.block.best_seconds);
            os << "        \"block_wall_seconds\": " << buf << ",\n";
            std::snprintf(buf, sizeof buf, "%.3f",
                          ratio(m.interp.best_seconds,
                                m.block.best_seconds));
            os << "        \"block_vs_interpret\": " << buf << ",\n";
            std::snprintf(buf, sizeof buf, "%.3f",
                          ratio(m.dcache.best_seconds,
                                m.block.best_seconds));
            os << "        \"block_vs_decode_cache\": " << buf << "\n";
            os << "      }";
        }
        os << "\n    }" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

/**
 * `"name": "<name>" ... "<field>": <number>` out of a committed
 * BENCH_<group>.json, by plain text scan (same idiom as the overhead
 * benches — the files are machine-written, so no parser needed).
 */
bool
scanScenarioField(const std::string &text, const std::string &name,
                  const std::string &field, double &out)
{
    std::size_t at = text.find("\"name\": \"" + name + "\"");
    if (at == std::string::npos)
        return false;
    std::string key = "\"" + field + "\":";
    std::size_t k = text.find(key, at);
    if (k == std::string::npos)
        return false;
    out = std::strtod(text.c_str() + k + key.size(), nullptr);
    return true;
}

/**
 * Informational drift report against the committed BENCH_<group>.json
 * files. Host MIPS moves with the machine the bench ran on; guest
 * cycles are deterministic, so a changed total is always a modeled-
 * behavior change and gets flagged loudly. Never affects exit status:
 * the committed numbers come from a different host.
 */
void
reportBaselineDeltas(const Options &opts,
                     const std::vector<std::string> &groups,
                     const std::vector<Measured> &measured)
{
    for (const auto &g : groups) {
        std::string path = opts.baseline_dir + "/BENCH_" + g + ".json";
        std::ifstream is(path);
        if (!is) {
            std::printf("no committed baseline %s; skipping delta "
                        "report\n", path.c_str());
            continue;
        }
        std::stringstream ss;
        ss << is.rdbuf();
        std::string text = ss.str();
        std::printf("delta vs committed %s (informational):\n",
                    path.c_str());
        for (const auto &m : measured) {
            if (m.scenario->group != g)
                continue;
            double base_ips = 0, base_cycles = 0;
            if (!scanScenarioField(text, m.scenario->name,
                                   "insts_per_second", base_ips) ||
                !scanScenarioField(text, m.scenario->name,
                                   "guest_cycles", base_cycles)) {
                std::printf("  %-28s not in committed baseline\n",
                            m.scenario->name.c_str());
                continue;
            }
            double now_mips = mips(m.on);
            double host_delta =
                base_ips > 0 ? 100.0 * (now_mips * 1e6 / base_ips - 1.0)
                             : 0.0;
            auto cycles = double(m.on.result.guest_cycles);
            std::printf("  %-28s host %6.1f -> %6.1f MIPS (%+.1f%%)  "
                        "guest cycles %s\n",
                        m.scenario->name.c_str(), base_ips / 1e6,
                        now_mips, host_delta,
                        cycles == base_cycles
                            ? "match"
                            : "CHANGED — modeled behavior differs");
            if (cycles != base_cycles) {
                std::printf("    committed %.0f, measured %llu\n",
                            base_cycles,
                            (unsigned long long)
                                m.on.result.guest_cycles);
            }
        }
    }
}

void
usage(std::FILE *out)
{
    std::fprintf(out,
        "usage: isagrid_bench [options]\n"
        "  --jobs N              worker threads (default: cores)\n"
        "  --repeat R            timed runs per scenario (default 3)\n"
        "  --warmup W            untimed runs per scenario (default 1)\n"
        "  --filter SUBSTR       run scenarios whose group or name\n"
        "                        contains SUBSTR\n"
        "  --out DIR             directory for BENCH_<group>.json\n"
        "  --metrics-out DIR     one extra untimed metrics-enabled\n"
        "                        run per single-machine scenario,\n"
        "                        writing <group>_<name>.metrics.json\n"
        "  --baseline DIR        committed BENCH_<group>.json files\n"
        "                        for the informational delta report\n"
        "                        (default: the source tree)\n"
        "  --compare-decode-cache  also time with the decode cache\n"
        "                        off and record the speedup\n"
        "  --compare-engine      three-way ablation: interpreter,\n"
        "                        decode cache, block engine\n"
        "  --min-mips X          fail if any scenario simulates\n"
        "                        slower than X MIPS (smoke check)\n"
        "  --list                list scenarios and exit\n");
}

/** tools/cli.hh's usage printer for a malformed number. */
void
usageError(const char *)
{
    usage(stderr);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                usage(stderr);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--jobs") {
            opts.jobs = countUnsigned(argv[0], value(), usageError, 1);
        } else if (arg == "--repeat") {
            opts.repeat = countUnsigned(argv[0], value(), usageError, 1);
        } else if (arg == "--warmup") {
            opts.warmup = countUnsigned(argv[0], value(), usageError);
        } else if (arg == "--filter") {
            opts.filter = value();
        } else if (arg == "--out") {
            opts.out_dir = value();
        } else if (arg == "--metrics-out") {
            opts.metrics_out = value();
        } else if (arg == "--baseline") {
            opts.baseline_dir = value();
        } else if (arg == "--compare-decode-cache") {
            opts.compare_decode_cache = true;
        } else if (arg == "--compare-engine") {
            opts.compare_engine = true;
        } else if (arg == "--min-mips") {
            opts.min_mips = nonNegative(argv[0], value(), usageError);
        } else if (arg == "--list") {
            opts.list_only = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    std::vector<Scenario> scenarios = allScenarios();
    if (!opts.filter.empty()) {
        std::erase_if(scenarios, [&](const Scenario &s) {
            return s.group.find(opts.filter) == std::string::npos &&
                   s.name.find(opts.filter) == std::string::npos;
        });
    }
    if (opts.list_only) {
        for (const auto &s : scenarios)
            std::printf("%s/%s\n", s.group.c_str(), s.name.c_str());
        return 0;
    }
    if (scenarios.empty())
        fatal("no scenarios match filter '%s'", opts.filter.c_str());

    std::vector<Measured> measured(scenarios.size());
    std::atomic<std::size_t> next{0};
    std::mutex print_mutex;

    auto worker = [&] {
        for (;;) {
            std::size_t idx = next.fetch_add(1);
            if (idx >= scenarios.size())
                return;
            const Scenario &s = scenarios[idx];
            Measured &m = measured[idx];
            m.scenario = &s;
            // Configuration 0 is the default (headline MIPS); compare
            // modes append the ablation points, each fully specified.
            // Both compare modes share the two interpreter points.
            std::vector<ScenarioOptions> configs{ScenarioOptions{}};
            if (opts.compare_decode_cache || opts.compare_engine) {
                configs.push_back(enginePoint(0, false));
                configs.push_back(enginePoint(kDecodeCacheEntries, false));
            }
            if (opts.compare_engine)
                configs.push_back(enginePoint(kDecodeCacheEntries, true));
            std::vector<Timing> timings =
                timeScenario(s, configs, opts.warmup, opts.repeat);
            m.on = timings[0];
            if (configs.size() > 1) {
                m.interp = timings[1];
                m.dcache = timings[2];
            }
            if (opts.compare_engine)
                m.block = timings[3];
            m.compared = opts.compare_decode_cache;
            m.engine_compared = opts.compare_engine;
            // The fast paths must not change what was simulated.
            for (const Timing &t : timings) {
                if (t.result.guest_cycles != m.on.result.guest_cycles ||
                    t.result.guest_instructions !=
                        m.on.result.guest_instructions) {
                    fatal("%s/%s: guest totals differ between engine "
                          "configurations",
                          s.group.c_str(), s.name.c_str());
                }
            }
            if (!opts.metrics_out.empty()) {
                // One untimed run with the monitor attached; the
                // scenario writes the document itself (and skips it
                // when it has no single machine to sample).
                ScenarioOptions cfg;
                cfg.metrics_out = opts.metrics_out + "/" + s.group +
                                  "_" + s.name + ".metrics.json";
                s.run(cfg);
                if (std::ifstream(cfg.metrics_out).good())
                    m.metrics_file = cfg.metrics_out;
            }
            std::lock_guard<std::mutex> lock(print_mutex);
            std::printf("  %-28s %12llu cycles  %8.3f s  %7.1f MIPS\n",
                        (s.group + "/" + s.name).c_str(),
                        (unsigned long long)m.on.result.guest_cycles,
                        m.on.median_seconds, mips(m.on));
            if (opts.compare_engine) {
                auto best_mips = [](const Timing &t) {
                    return t.best_seconds > 0.0
                               ? t.result.guest_instructions /
                                     t.best_seconds / 1e6
                               : 0.0;
                };
                std::printf("    engines: interpret %7.1f  "
                            "decode-cache %7.1f  block %7.1f MIPS "
                            "(best of repeats)\n",
                            best_mips(m.interp), best_mips(m.dcache),
                            best_mips(m.block));
            }
            if (!m.metrics_file.empty())
                std::printf("    metrics: wrote %s\n",
                            m.metrics_file.c_str());
        }
    };

    std::printf("running %zu scenarios on %u threads "
                "(warmup %u, repeat %u)\n",
                scenarios.size(), opts.jobs, opts.warmup, opts.repeat);
    auto wall0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    // No more workers than scenarios, however large --jobs is.
    for (std::size_t j = 0; j < std::min<std::size_t>(opts.jobs,
                                                      scenarios.size());
         ++j)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    double total = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall0)
                       .count();
    std::printf("done in %.3f s\n", total);

    // Group results and emit one JSON file per group.
    std::vector<std::string> groups;
    for (const auto &m : measured) {
        if (std::find(groups.begin(), groups.end(),
                      m.scenario->group) == groups.end())
            groups.push_back(m.scenario->group);
    }
    for (const auto &g : groups) {
        std::vector<const Measured *> rows;
        for (const auto &m : measured)
            if (m.scenario->group == g)
                rows.push_back(&m);
        std::string path = opts.out_dir + "/BENCH_" + g + ".json";
        writeGroupJson(path, g, opts, rows);
        std::printf("wrote %s\n", path.c_str());
    }

    reportBaselineDeltas(opts, groups, measured);

    if (opts.min_mips > 0.0) {
        bool ok = true;
        for (const auto &m : measured) {
            if (mips(m.on) < opts.min_mips) {
                std::fprintf(stderr,
                             "FAIL: %s/%s at %.1f MIPS "
                             "(threshold %.1f)\n",
                             m.scenario->group.c_str(),
                             m.scenario->name.c_str(), mips(m.on),
                             opts.min_mips);
                ok = false;
            }
        }
        if (!ok)
            return 1;
    }
    return 0;
}
