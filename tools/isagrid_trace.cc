/**
 * @file
 * isagrid-trace — offline analyzer for `.isatrace` event files
 * (written by `isagrid-sim --trace-events` or any BinaryTraceSink).
 *
 *   isagrid-trace [options] FILE.isatrace
 *     --validate              structural validation only (monotonic
 *                             cycles, balanced trusted-stack traffic,
 *                             domain continuity); exit 1 on problems
 *     --export-perfetto=FILE  write Chrome trace-event JSON loadable
 *                             in Perfetto / chrome://tracing ('-' for
 *                             stdout)
 *     --top=N                 rows in the hotspot tables   [10]
 *     --timeline=N            rows in the fault timeline   [20]
 *
 * The default report answers the questions the paper's evaluation
 * asks of a decomposed system: which domain held the core and for how
 * long (residency), what domain switches cost (stall-cycle
 * histograms for hccall/hccalls and hcrets), which gates and CSRs are
 * hot, and where the privilege faults cluster in time.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cli.hh"
#include "isa/inst.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

using namespace isagrid;

namespace {

struct Options
{
    std::string input;
    std::string perfetto_file;
    bool validate = false;
    unsigned top = 10;
    unsigned timeline = 20;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--validate] [--export-perfetto=FILE] "
                 "[--top=N] [--timeline=N] FILE.isatrace\n",
                 argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (eatOption(argv[i], "--export-perfetto", v)) {
            opt.perfetto_file = v;
        } else if (eatOption(argv[i], "--top", v)) {
            opt.top = countUnsigned(argv[0], v, usage);
        } else if (eatOption(argv[i], "--timeline", v)) {
            opt.timeline = countUnsigned(argv[0], v, usage);
        } else if (std::strcmp(argv[i], "--validate") == 0) {
            opt.validate = true;
        } else if (argv[i][0] == '-') {
            usage(argv[0]);
        } else if (opt.input.empty()) {
            opt.input = argv[i];
        } else {
            usage(argv[0]);
        }
    }
    if (opt.input.empty())
        usage(argv[0]);
    return opt;
}

/** faultName over a raw payload word (exportPerfetto adapter). */
const char *
faultLabel(std::uint64_t fault)
{
    if (fault > std::uint64_t(FaultType::TimerInterrupt))
        return nullptr;
    return faultName(static_cast<FaultType>(fault));
}

/** Render one Histogram as an ASCII row chart. */
void
printHistogram(const char *title, const Histogram &h)
{
    std::printf("%s: %llu samples", title,
                (unsigned long long)h.count());
    if (h.count() == 0) {
        std::printf("\n");
        return;
    }
    std::printf(", min %llu, mean %.1f, max %llu, stddev %.1f\n",
                (unsigned long long)h.min(), h.mean(),
                (unsigned long long)h.max(), h.stddev());
    std::uint64_t peak = 1;
    for (unsigned i = 0; i < h.numBuckets(); ++i)
        peak = std::max(peak, h.bucketCount(i));
    for (unsigned i = 0; i < h.numBuckets(); ++i) {
        if (h.bucketCount(i) == 0)
            continue;
        char range[48];
        if (i + 1 == h.numBuckets()) {
            std::snprintf(range, sizeof range, "[%llu, inf)",
                          (unsigned long long)h.bucketLow(i));
        } else {
            std::snprintf(range, sizeof range, "[%llu, %llu]",
                          (unsigned long long)h.bucketLow(i),
                          (unsigned long long)h.bucketHigh(i));
        }
        unsigned bar = unsigned(40 * h.bucketCount(i) / peak);
        std::printf("    %-16s %10llu %s\n", range,
                    (unsigned long long)h.bucketCount(i),
                    std::string(bar, '#').c_str());
    }
}

/** Top-N rows of a counter map, largest first. */
template <typename Key>
std::vector<std::pair<Key, std::uint64_t>>
topN(const std::map<Key, std::uint64_t> &counts, unsigned n)
{
    std::vector<std::pair<Key, std::uint64_t>> rows(counts.begin(),
                                                    counts.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    if (rows.size() > n)
        rows.resize(n);
    return rows;
}

void
report(const TraceFile &trace, const Options &opt)
{
    // Domain names announced in the stream.
    std::map<std::uint32_t, std::string> names;
    for (const TraceEvent &e : trace.events) {
        if (e.kind == std::uint8_t(TraceKind::DomainName))
            names[std::uint32_t(e.a)] = unpackTraceName(e.b);
    }
    auto domainLabel = [&](std::uint32_t domain) {
        auto it = names.find(domain);
        std::string label = "d" + std::to_string(domain);
        if (it != names.end() && !it->second.empty())
            label += " (" + it->second + ")";
        return label;
    };

    // One pass accumulates everything: per-kind counts, per-domain
    // residency (cycle deltas between consecutive events on a core,
    // attributed to the domain the core was in), switch-latency
    // histograms, gate/CSR hotspots, and the fault timeline.
    std::uint64_t kind_counts[numTraceKinds] = {};
    struct CoreCursor
    {
        bool seen = false;
        Cycle last_cycle = 0;
        std::uint32_t domain = 0;
    };
    std::map<std::uint8_t, CoreCursor> cursors;
    struct Residency
    {
        Cycle cycles = 0;
        std::uint64_t switches_in = 0;
    };
    std::map<std::uint32_t, Residency> residency;
    Histogram call_latency{12}, ret_latency{12};
    std::map<std::uint64_t, std::uint64_t> gate_calls;
    std::map<std::uint64_t, std::uint64_t> csr_traffic;
    std::map<std::uint64_t, std::uint64_t> fault_counts;
    std::vector<const TraceEvent *> faults;
    struct BlockTotals
    {
        std::uint64_t enters = 0;
        std::uint64_t chained = 0;
        std::uint64_t insts = 0; //!< ops retired from blocks
        std::uint64_t invalidations = 0;
        std::uint64_t retranslated = 0;
        std::uint64_t blacklisted = 0;
    } blocks;
    std::map<std::uint32_t, std::uint64_t> block_domain_insts;
    std::map<std::uint64_t, std::uint64_t> block_invalidate_pcs;
    // Drop markers carry cumulative per-buffer counts; the last one
    // per core is the total that buffer lost.
    std::map<std::uint8_t, std::uint64_t> drops_by_core;

    for (const TraceEvent &e : trace.events) {
        if (e.kind >= numTraceKinds)
            continue;
        ++kind_counts[e.kind];
        auto kind = static_cast<TraceKind>(e.kind);

        CoreCursor &cur = cursors[e.core];
        if (cur.seen && e.cycle > cur.last_cycle)
            residency[cur.domain].cycles += e.cycle - cur.last_cycle;
        cur.seen = true;
        cur.last_cycle = e.cycle;
        if (kind != TraceKind::DomainName)
            cur.domain = e.domain;

        switch (kind) {
          case TraceKind::DomainSwitch:
            ++residency[std::uint32_t(e.a)].switches_in;
            break;
          case TraceKind::GateCall:
            if (e.flags & 1) {
                call_latency.sample(e.b);
                ++gate_calls[e.a];
            }
            break;
          case TraceKind::GateRet:
            if (e.flags & 1)
                ret_latency.sample(e.b);
            break;
          case TraceKind::CsrReadCheck:
          case TraceKind::CsrWriteCheck:
          case TraceKind::CsrCommit:
            ++csr_traffic[e.a];
            break;
          case TraceKind::Trap:
            ++fault_counts[e.a];
            faults.push_back(&e);
            break;
          case TraceKind::BlockEnter:
            ++blocks.enters;
            blocks.chained += e.flags & 1;
            blocks.insts += e.b;
            block_domain_insts[e.domain] += e.b;
            break;
          case TraceKind::BlockInvalidate:
            ++blocks.invalidations;
            blocks.retranslated += (e.flags & 1) != 0;
            blocks.blacklisted += (e.flags & 2) != 0;
            ++block_invalidate_pcs[e.a];
            break;
          case TraceKind::Drops:
            drops_by_core[e.core] =
                std::max(drops_by_core[e.core], e.a);
            break;
          default:
            break;
        }
    }

    std::printf("events          : %zu (%u cores)\n",
                trace.events.size(), unsigned(cursors.size()));
    if (!drops_by_core.empty()) {
        std::uint64_t dropped = 0;
        std::uint64_t markers = kind_counts[std::size_t(
            TraceKind::Drops)];
        for (const auto &[core, count] : drops_by_core)
            dropped += count;
        std::printf("dropped events  : %llu lost to sink-less ring "
                    "overflow (%llu drop markers)\n",
                    (unsigned long long)dropped,
                    (unsigned long long)markers);
    }
    std::printf("by kind:\n");
    for (unsigned k = 0; k < numTraceKinds; ++k) {
        if (kind_counts[k]) {
            std::printf("  %-16s %10llu\n",
                        traceKindName(static_cast<TraceKind>(k)),
                        (unsigned long long)kind_counts[k]);
        }
    }

    if (!residency.empty()) {
        Cycle total = 0;
        for (const auto &[domain, r] : residency)
            total += r.cycles;
        std::printf("\nper-domain residency:\n");
        for (const auto &[domain, r] : residency) {
            std::printf("  %-16s %12llu cycles (%5.2f%%) "
                        "%8llu switches in\n",
                        domainLabel(domain).c_str(),
                        (unsigned long long)r.cycles,
                        total ? 100.0 * double(r.cycles) / double(total)
                              : 0.0,
                        (unsigned long long)r.switches_in);
        }
    }

    if (blocks.enters || blocks.invalidations) {
        // Requires BlockEnter in the capture filter
        // (--trace-filter=...,block); BlockInvalidate alone still
        // yields the invalidation summary below.
        std::printf("\ntranslated-block residency:\n");
        std::printf("  block entries    : %10llu (%.1f%% chained)\n",
                    (unsigned long long)blocks.enters,
                    blocks.enters ? 100.0 * double(blocks.chained) /
                                        double(blocks.enters)
                                  : 0.0);
        std::printf("  translated insts : %10llu\n",
                    (unsigned long long)blocks.insts);
        for (const auto &[domain, insts] : block_domain_insts) {
            std::printf("    %-16s %12llu insts (%5.2f%%)\n",
                        domainLabel(domain).c_str(),
                        (unsigned long long)insts,
                        blocks.insts ? 100.0 * double(insts) /
                                           double(blocks.insts)
                                     : 0.0);
        }
        std::printf("  invalidations    : %10llu "
                    "(retranslated %llu, blacklisted %llu)\n",
                    (unsigned long long)blocks.invalidations,
                    (unsigned long long)blocks.retranslated,
                    (unsigned long long)blocks.blacklisted);
        if (!block_invalidate_pcs.empty()) {
            std::printf("  top invalidated blocks:\n");
            for (const auto &[pc, count] :
                 topN(block_invalidate_pcs, opt.top)) {
                std::printf("    pc %#-12llx %10llu invalidations\n",
                            (unsigned long long)pc,
                            (unsigned long long)count);
            }
        }
    }

    std::printf("\n");
    printHistogram("gate-call stall cycles", call_latency);
    printHistogram("gate-ret stall cycles", ret_latency);

    if (!gate_calls.empty()) {
        std::printf("\ntop gates (successful hccall/hccalls):\n");
        for (const auto &[gate, count] : topN(gate_calls, opt.top)) {
            std::printf("  gate %-6llu %10llu calls\n",
                        (unsigned long long)gate,
                        (unsigned long long)count);
        }
    }
    if (!csr_traffic.empty()) {
        std::printf("\ntop CSRs (checks + commits):\n");
        for (const auto &[csr, count] : topN(csr_traffic, opt.top)) {
            std::printf("  csr %#-8llx %10llu accesses\n",
                        (unsigned long long)csr,
                        (unsigned long long)count);
        }
    }

    if (!faults.empty()) {
        std::printf("\nfaults by type:\n");
        for (const auto &[fault, count] : fault_counts) {
            const char *label = faultLabel(fault);
            std::printf("  %-24s %10llu\n",
                        label ? label
                              : ("fault-" + std::to_string(fault))
                                    .c_str(),
                        (unsigned long long)count);
        }
        std::printf("\nfault timeline (first %u of %zu):\n",
                    std::min<unsigned>(opt.timeline,
                                       unsigned(faults.size())),
                    faults.size());
        for (unsigned i = 0;
             i < faults.size() && i < opt.timeline; ++i) {
            const TraceEvent &e = *faults[i];
            const char *label = faultLabel(e.a);
            std::printf("  cycle %-12llu core %-3u %-16s %-24s "
                        "pc %#llx\n",
                        (unsigned long long)e.cycle, unsigned(e.core),
                        domainLabel(e.domain).c_str(),
                        label ? label : "?",
                        (unsigned long long)e.b);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);

    TraceFile trace;
    std::string error;
    if (!readTraceFile(opt.input, trace, error))
        fatal("%s: %s", opt.input.c_str(), error.c_str());

    if (opt.validate) {
        TraceValidation v = validateTrace(trace.events);
        std::printf("%s: %llu events, schema v%u: %s\n",
                    opt.input.c_str(), (unsigned long long)v.events,
                    trace.header.version, v.ok ? "OK" : "INVALID");
        for (const std::string &p : v.problems)
            std::printf("  %s\n", p.c_str());
        return v.ok ? 0 : 1;
    }

    if (!opt.perfetto_file.empty()) {
        if (opt.perfetto_file == "-") {
            exportPerfetto(trace, std::cout, faultLabel);
        } else {
            std::ofstream os(opt.perfetto_file);
            if (!os)
                fatal("cannot open %s", opt.perfetto_file.c_str());
            exportPerfetto(trace, os, faultLabel);
            std::printf("wrote %s (%zu events)\n",
                        opt.perfetto_file.c_str(),
                        trace.events.size());
        }
        return 0;
    }

    report(trace, opt);
    return 0;
}
