/**
 * @file
 * The repository benchmark's three workloads (BENCHMARK.json,
 * perfbench/README.md). One process runs one workload for about
 * --seconds, checks what it simulated and prints one JSON line:
 * metrics with units and sample counts, per-round observables that
 * run.py compares with the values recorded in spec.json, and the
 * operations attempted and failed.
 *
 *   perfbench --workload=NAME --seed=N --seconds=S [--trace] [--spans=F]
 *
 * Every workload uses the default MachineConfig, so a change of a
 * default (block engine, decode cache) shows up as a measured change.
 * With --trace the first half of the time runs untraced and the second
 * half records spans; the per-layer metrics come from the traced half
 * and the difference between the halves is the tracing overhead.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/fuzz.hh"
#include "kernel/asm_iface.hh"
#include "kernel/kernel_builder.hh"
#include "kernel/layout.hh"
#include "kernel/syscalls.hh"
#include "sim/random.hh"
#include "workloads/lmbench.hh"

#include "trace.hh"
#include "wrap.hh"

using namespace isagrid;
using perfbench::now;
using perfbench::Scope;
using perfbench::Tracer;

namespace {

// --- workload sizes -------------------------------------------------

/** lmbench-rv: iterations per LMbench operation (~6.5M guest insts). */
constexpr unsigned kLmbenchIters = 10'000;
/** Guest instructions per timed slice of a simulation run. */
constexpr std::uint64_t kSlice = 20'000;
/** Guard against a guest that never halts. */
constexpr std::uint64_t kMaxRoundInsts = 100'000'000;
/** Set-ups timed before the first round (besides one per round). */
constexpr unsigned kExtraSetups = 15;
/** Rounds per measured phase, however short --seconds is. */
constexpr unsigned kMinRounds = 2;

/** gates-x86: baseline domains the gates switch between. */
constexpr unsigned kGateDomains = 3;
/** Table 4 section: hccalls+hcrets pairs over kHotSites warm gates. */
constexpr unsigned kPairIters = 2'000;
/**
 * Mixed section, per outer iteration: kHotReps passes over kHotSites
 * call/return gates, a chain of one-way gates to domain-0, one empty
 * syscall there (the kernel's trap path needs domain-0's privileges)
 * and a one-way gate back out: kColdSites one-way gates in all. The
 * hot gates mostly hit the 8-entry SGT cache; the 4 + 7 distinct gates
 * per iteration overflow it, so the one-way gates always miss (LRU)
 * and the hit rate sits strictly between 0 and 1.
 */
constexpr unsigned kHotSites = 4;
constexpr unsigned kHotReps = 4;
constexpr unsigned kColdSites = 7;
constexpr unsigned kOuterIters = 40'000;

/**
 * fuzz-mix: mutated cases per ISA per round. Short rounds give each part
 * of a round several chances at its best time; 2 x 48 cases still keep
 * the replayed corpus above 100 artifacts and its size within a few
 * percent from seed to seed.
 */
constexpr std::uint64_t kFuzzIters = 48;
/** fuzz-mix: seed-corpus builds timed for setup_s. */
constexpr unsigned kFuzzSetups = 9;

// --- small helpers ----------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

using Metrics = std::map<std::string, Metric>;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
best(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/**
 * Host timings are bests over a run's rounds, the convention of
 * tools/isagrid_bench (best_seconds): every round does identical work,
 * and contention from other tenants of the host only ever adds time.
 * It comes and goes on a scale of seconds and can double a round's
 * time, so a median over rounds does not repeat from run to run. The
 * best is kept per part of a round (a run slice, a campaign, a replayed
 * artifact): part i of every round is the same work, so each part
 * keeps its best time; a round's time is the sum of its parts' bests,
 * and the latency percentiles are taken over the parts. That repeats
 * better than the best whole round, which needs one round untouched by
 * contention. The high percentile is p90, the highest with at least ten
 * samples beyond it for the ~180 artifacts fuzz-mix replays; their
 * replay times also have a cluster near 4x the median whose size
 * varies by seed.
 */
struct BestParts
{
    std::vector<double> ms;

    double
    totalSeconds() const
    {
        double sum = 0.0;
        for (double x : ms)
            sum += x;
        return sum / 1e3;
    }

    void
    add(std::size_t op, double value)
    {
        if (op == ms.size())
            ms.push_back(value);
        else if (op < ms.size())
            ms[op] = std::min(ms[op], value);
    }

    void
    report(Metrics &m) const
    {
        m["latency_ms_p50"] = {quantile(ms, 0.5), "ms", ms.size()};
        m["latency_ms_p90"] = {quantile(ms, 0.9), "ms", ms.size()};
    }
};

void
jsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n') ? ' ' : c;
    }
    out += '"';
}

/** Operations attempted and failed, with the first failure messages. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** @p n operations of which @p bad failed. */
    void
    ops(std::uint64_t n, std::uint64_t bad, const std::string &what)
    {
        attempted += n;
        failed += bad;
        if (bad && failures.size() < 8)
            failures.push_back(what);
    }

    void op(bool ok, const std::string &what) { ops(1, ok ? 0 : 1, what); }
};

/** What one round produced, beyond its timings. */
using Observed = std::map<std::string, double>;

/** One workload: set-up, timed round, and the metrics it derives. */
struct Workload
{
    virtual ~Workload() = default;
    /** Build what one round needs; returns host seconds taken. */
    virtual double setup() = 0;
    /** The timed work; returns its observables. */
    virtual Observed round(Checks &checks) = 0;
    virtual void endToEnd(Metrics &m) = 0;
    /** Per-layer counts of the last round. */
    virtual void layers(Metrics &m) = 0;

    std::vector<double> walls; //!< host seconds per round
};

// --- simulation workloads (lmbench-rv, gates-x86) ---------------------

/** A machine holding its guest, and where the guest boots. */
struct Prepared
{
    std::unique_ptr<Machine> machine;
    Addr boot_pc = 0;
};

/**
 * Shared round of the two simulation workloads: run the prepared
 * machine to halt in kSlice-instruction slices (each slice is one
 * latency sample), then read its statistics.
 */
struct SimWorkload : Workload
{
    Prepared next;
    BestParts slice_ms;
    std::map<std::string, double> stats; //!< of the last round
    RunResult last;
    std::uint64_t slices = 0; //!< operation ids of the traced spans

    /** Build a fresh machine and guest (one set-up). */
    virtual Prepared prepare() = 0;
    /** Workload-specific checks and observables of a finished run. */
    virtual void finish(Machine &m, const RunResult &r, Checks &checks,
                        Observed &obs) = 0;
    /** Operations (LMbench ops, gate round trips) per round. */
    virtual double opsPerRound() const = 0;

    double
    setup() override
    {
        double t0 = now();
        {
            Scope s("bench.setup");
            next = prepare();
        }
        return now() - t0;
    }

    Observed
    round(Checks &checks) override
    {
        Prepared p = std::move(next);
        Machine &m = *p.machine;
        RunResult total;
        total.reason = StopReason::MaxInstructions;
        double t0 = now();
        {
            Scope s("bench.round");
            m.core().reset(p.boot_pc);
            for (std::size_t i = 0; total.instructions < kMaxRoundInsts;
                 ++i) {
                if (Tracer::active)
                    Tracer::active->setOp(++slices);
                double s0 = now();
                RunResult r = m.core().run(kSlice);
                slice_ms.add(i, (now() - s0) * 1e3);
                total.instructions += r.instructions;
                total.cycles += r.cycles;
                if (r.reason != StopReason::MaxInstructions) {
                    total.reason = r.reason;
                    total.halt_code = r.halt_code;
                    total.fault = r.fault;
                    break;
                }
            }
        }
        walls.push_back(now() - t0);
        last = total;

        stats.clear();
        m.collectStatsValues(stats);
        Observed obs;
        obs["guest_cycles"] = double(total.cycles);
        obs["guest_insts"] = double(total.instructions);
        obs["halt_code"] = double(total.halt_code);
        obs["halted"] = total.reason == StopReason::Halted ? 1 : 0;
        obs["pcu_switches"] = stat("pcu.switches");
        finish(m, total, checks, obs);
        return obs;
    }

    double
    stat(const char *key) const
    {
        auto it = stats.find(key);
        return it == stats.end() ? 0.0 : it->second;
    }

    void
    endToEnd(Metrics &m) override
    {
        double wall = slice_ms.totalSeconds();
        m["wall_s"] = {wall, "s", walls.size()};
        m["sim_mips"] = {double(last.instructions) / wall / 1e6, "MIPS",
                         walls.size()};
        m["guest_cycles"] = {double(last.cycles), "cycles", walls.size()};
        m["ops_per_s"] = {opsPerRound() / wall, "1/s", walls.size()};
        slice_ms.report(m);
    }

    /** hits / (hits + misses) of one stat prefix, with its base. */
    void
    ratio(Metrics &m, const std::string &name, const std::string &prefix,
          const char *base_name)
    {
        double hits = stat((prefix + ".hits").c_str());
        double misses = stat((prefix + ".misses").c_str());
        double base = hits + misses;
        m[name + ".hit_ratio"] = {base ? hits / base : 0.0, "ratio", 1};
        m[name + "." + base_name] = {base, "count", 1};
    }

    void
    layers(Metrics &m) override
    {
        double insts = stat("core.instructions");
        ratio(m, "cpu.decode_cache", "host.decode_cache", "lookups");
        m["cpu.block.residency"] = {
            insts ? stat("host.block.translated_insts") / insts : 0.0,
            "ratio", 1};
        double chain = stat("host.block.chain_hits") +
                       stat("host.block.chain_misses");
        m["cpu.block.chain_hit_ratio"] = {
            chain ? stat("host.block.chain_hits") / chain : 0.0, "ratio",
            1};
        m["cpu.block.chain_lookups"] = {chain, "count", 1};
        double memo = stat("host.block.memo_hits") +
                      stat("host.block.memo_fills");
        m["cpu.block.memo_hit_ratio"] = {
            memo ? stat("host.block.memo_hits") / memo : 0.0, "ratio", 1};
        m["cpu.block.memo_lookups"] = {memo, "count", 1};
        m["cpu.block.fallbacks"] = {stat("host.block.fallbacks"), "count",
                                    1};
        m["cpu.block.translations"] = {stat("host.block.translations"),
                                       "count", 1};
        m["isagrid.pcu.inst_checks"] = {stat("pcu.inst_checks"), "count",
                                        1};
        m["isagrid.pcu.switches"] = {stat("pcu.switches"), "count", 1};
        m["isagrid.pcu.faults"] = {stat("pcu.faults"), "count", 1};
        for (const char *c : {"inst", "reg", "mask", "sgt"}) {
            std::string n = std::string(c) + "_cache";
            ratio(m, "isagrid.pcu." + n, "pcu." + n, "lookups");
        }
        m["isagrid.pcu.switch_latency_mean"] = {
            stat("pcu.switch_latency.mean"), "cycles", 1};
        ratio(m, "mem.l1i", "icache.hierarchy.l1i", "accesses");
        ratio(m, "mem.l1d", "dcache.hierarchy.l1d", "accesses");
        ratio(m, "mem.itlb", "itlb", "accesses");
        ratio(m, "mem.dtlb", "dtlb", "accesses");
        m["mem.accesses"] = {stat("icache.hierarchy.mem_accesses") +
                                 stat("dcache.hierarchy.mem_accesses"),
                             "count", 1};
    }
};

/** Cycles between the simmarks @p begin and @p end of a finished run. */
Cycle
markCycles(const CoreBase &core, std::uint64_t begin, std::uint64_t end)
{
    Cycle b = 0, e = 0;
    for (const SimMark &mark : core.marks()) {
        if (mark.value == begin)
            b = mark.cycle;
        if (mark.value == end)
            e = mark.cycle;
    }
    return e - b;
}

/** RISC-V Rocket, decomposed kernel, PCU 8E, the LMbench suite. */
struct LmbenchRv : SimWorkload
{
    Prepared
    prepare() override
    {
        Prepared p;
        p.machine = Machine::rocket();
        Addr entry = 0;
        {
            Scope s("workloads.build");
            entry = buildLmbenchSuite(*p.machine, kLmbenchIters);
        }
        KernelConfig config;
        config.mode = KernelMode::Decomposed;
        KernelBuilder builder(*p.machine, config);
        p.boot_pc = builder.build(entry).boot_pc;
        return p;
    }

    double
    opsPerRound() const override
    {
        return double(kLmbenchIters) * numLmbenchOps;
    }

    void
    finish(Machine &m, const RunResult &r, Checks &checks,
           Observed &obs) override
    {
        bool ok = r.reason == StopReason::Halted && r.halt_code == 0;
        std::vector<LmbenchResult> ops;
        if (ok) {
            ops = extractLmbenchResults(m.core(), kLmbenchIters);
            for (const LmbenchResult &op : ops)
                ok = ok && op.cycles_per_op > 0.0;
        }
        ok = ok && ops.size() == numLmbenchOps;
        checks.op(ok, "lmbench-rv: run did not halt cleanly with all " +
                          std::to_string(numLmbenchOps) + " ops timed");
        if (!ops.empty())
            obs["null_syscall_cycles"] = ops.front().cycles_per_op;
    }
};

/**
 * x86 O3 core: gate ping-pong between baseline domains under a
 * monolithic kernel (for the empty syscalls). The seed permutes which
 * domain each logical slot is and which gate id each site uses; both
 * are relabelings the fully associative LRU privilege caches cannot
 * see, so every modeled total is the same for every seed.
 */
struct GatesX86 : SimWorkload
{
    explicit GatesX86(std::uint64_t seed) : seed(seed) {}

    std::uint64_t seed;
    std::vector<double> gate_cycles;

    /** 8 entries of 24 bytes: three whole 64-byte lines. */
    static constexpr GateId kGateStride = 8;
    /** Entry gate, the pair section's sites, the mixed loop's sites:
     *  16 x kGateStride ids fit the 128 SGT slots. */
    static constexpr unsigned kSites = 1 + kHotSites * 2 + kColdSites;

    /** Switches the gates make per run (the syscalls add none). */
    static constexpr std::uint64_t
    gateSwitches()
    {
        return 1 + std::uint64_t(kPairIters) * kHotSites * 2 +
               std::uint64_t(kOuterIters) *
                   (kHotReps * kHotSites * 2 + kColdSites);
    }

    Prepared
    prepare() override
    {
        Prepared p;
        p.machine = Machine::gem5x86();
        Machine &m = *p.machine;
        KernelConfig config;
        config.mode = KernelMode::Monolithic;
        KernelBuilder builder(m, config);
        p.boot_pc = builder.build(layout::userCodeBase).boot_pc;

        Scope s("workloads.build");
        // Slot 0 is domain-0; slots 1.. are the baseline domains.
        std::array<DomainId, 1 + kGateDomains> slot{};
        for (unsigned i = 1; i <= kGateDomains; ++i)
            slot[i] = m.domains().createBaselineDomain();
        SplitMix64 rng(seed);
        // Gate ids kGateStride apart: each used SGT entry starts a cache
        // line of its own, so which id a site gets cannot change which
        // SGT fills share a line.
        std::array<GateId, kSites> ids{};
        GateId first = m.domains().numGates();
        first = (first + kGateStride - 1) / kGateStride * kGateStride;
        for (unsigned i = 0; i < kSites; ++i)
            ids[i] = first + GateId(i) * kGateStride;
        for (unsigned i = kGateDomains; i > 1; --i)
            std::swap(slot[i], slot[1 + rng.below(i)]);
        for (unsigned i = kSites - 1; i > 0; --i)
            std::swap(ids[i], ids[rng.below(i + 1)]);

        auto ap = makeX86Asm(layout::userCodeBase);
        AsmIface &a = *ap;
        struct Site
        {
            Addr pc;
            AsmIface::Label dest;
            unsigned slot;
            GateId id;
        };
        std::vector<Site> sites;
        std::array<AsmIface::Label, 1 + kGateDomains> callee{};
        for (auto &l : callee)
            l = a.newLabel();
        auto gate = [&](bool extended, AsmIface::Label dest, unsigned s) {
            GateId id = ids[sites.size()];
            a.li(a.regGate(), id);
            Addr pc = a.here();
            if (extended)
                a.hccalls(a.regGate());
            else
                a.hccall(a.regGate());
            sites.push_back({pc, dest, s, id});
        };
        unsigned u0 = a.regUser(0), u1 = a.regUser(1), mk = a.regArg(2);

        // One-way gate to the next instruction, in slot @p s.
        auto hop = [&](unsigned s) {
            auto next_site = a.newLabel();
            gate(false, next_site, s);
            a.bind(next_site);
        };
        // Call/return pairs from slot 1 into slots 2 and 3 (hcrets may
        // never re-enter domain-0, so the pairs start in slot 1).
        auto pairs = [&] {
            for (unsigned s = 0; s < kHotSites; ++s)
                gate(true, callee[2 + s % 2], 2 + s % 2);
        };

        a.li(a.regSp(), layout::userStackTop);
        hop(1);
        a.li(mk, 1);
        a.simmark(mk);
        a.li(u0, kPairIters);
        auto pair_loop = a.newLabel();
        a.bind(pair_loop);
        pairs();
        a.loopDec(u0, pair_loop);
        a.li(mk, 2);
        a.simmark(mk);

        a.li(mk, 3);
        a.simmark(mk);
        a.li(u0, kOuterIters);
        auto outer = a.newLabel();
        a.bind(outer);
        a.li(u1, kHotReps);
        auto hot = a.newLabel();
        a.bind(hot);
        pairs();
        a.loopDec(u1, hot);
        // Chain 2,3,1,2,3 then domain-0: every gate switches.
        for (unsigned c = 0; c + 2 < kColdSites; ++c)
            hop(1 + (c + 1) % kGateDomains);
        hop(0);
        a.li(a.regArg(0), std::uint64_t(Sys::Getpid));
        a.syscallInst();
        hop(1);
        a.loopDec(u0, outer);
        a.li(mk, 4);
        a.simmark(mk);
        a.li(a.regArg(0), 0);
        a.halt(a.regArg(0));
        for (unsigned s = 2; s <= kGateDomains; ++s) {
            a.bind(callee[s]);
            a.hcrets();
        }
        a.loadInto(m.mem());

        std::sort(sites.begin(), sites.end(),
                  [](const Site &x, const Site &y) { return x.id < y.id; });
        for (const Site &site : sites) {
            // Unused ids in between get entries no pc can fire.
            while (m.domains().numGates() < site.id)
                m.domains().registerGate(0, 0, 0);
            GateId id = m.domains().registerGate(
                site.pc, a.labelAddr(site.dest), slot[site.slot]);
            if (id != site.id)
                fatal("gates-x86: gate %llu registered as %llu",
                      (unsigned long long)site.id, (unsigned long long)id);
        }
        m.domains().publish();
        return p;
    }

    double
    opsPerRound() const override
    {
        return double(kPairIters) * kHotSites +
               double(kOuterIters) * (kHotReps * kHotSites + kColdSites + 1);
    }

    void
    finish(Machine &m, const RunResult &r, Checks &checks,
           Observed &obs) override
    {
        double pair = double(markCycles(m.core(), 1, 2)) /
                      double(kPairIters * kHotSites);
        gate_cycles.push_back(pair);
        obs["gate_cycles"] = pair;
        double sgt = stat("pcu.sgt_cache.hit_rate");
        bool ok = r.reason == StopReason::Halted && r.halt_code == 0 &&
                  stat("pcu.switches") == double(gateSwitches()) &&
                  stat("pcu.faults") == 0 && sgt > 0.0 && sgt < 1.0;
        checks.op(ok, "gates-x86: halt, switch count, faults or SGT hit "
                      "rate differ from the program's design");
    }

    void
    layers(Metrics &m) override
    {
        SimWorkload::layers(m);
        m["isagrid.gate_cycles"] = {median(gate_cycles), "cycles",
                                    gate_cycles.size()};
    }
};

// --- fuzz-mix -----------------------------------------------------------

/**
 * runFuzz over both ISAs with one seed, then every artifact of each
 * final corpus replayed through runOracles with the contract oracle
 * on, as `isagrid-fuzz --replay` does.
 */
struct FuzzMix : Workload
{
    explicit FuzzMix(std::uint64_t seed) : seed(seed) {}

    std::uint64_t seed;
    BestParts campaign_ms; //!< per ISA
    BestParts replay_ms;   //!< per artifact, both corpora in turn
    BestParts seed_replay_ms; //!< the seed artifacts' part of replay_ms
    double replay_insts = 0.0;
    // Replay of the seed artifacts, which do not depend on the seed.
    double seed_insts = 0.0;
    double seed_cycles = 0.0;
    double cases = 0, retained = 0, coverage = 0;

    double
    setup() override
    {
        double t0 = now();
        Scope s("bench.setup");
        for (bool x86 : {false, true})
            builtinSeeds(x86);
        return now() - t0;
    }

    Observed
    round(Checks &checks) override
    {
        Observed obs;
        std::size_t artifact_index = 0, seed_index = 0;
        double t0 = now();
        Scope root("bench.round");
        cases = retained = coverage = 0;
        replay_insts = seed_insts = seed_cycles = 0.0;
        for (bool x86 : {false, true}) {
            const std::string isa = x86 ? "x86" : "riscv";
            FuzzOptions options;
            options.x86 = x86;
            options.seed = seed;
            options.max_iters = kFuzzIters;
            options.jobs = 1;
            double c0 = now();
            FuzzResult result = [&] {
                Scope s("fuzz.campaign");
                return runFuzz(options);
            }();
            campaign_ms.add(x86 ? 1 : 0, (now() - c0) * 1e3);
            const FuzzStats &st = result.stats;
            checks.ops(st.cases, result.findings.size(),
                       "fuzz-mix " + isa + ": campaign found a disagreement");
            checks.op(st.cases == kFuzzIters &&
                          result.corpus.size() == st.seeds + st.retained &&
                          !result.coverage.empty(),
                      "fuzz-mix " + isa + ": campaign counters inconsistent");
            obs[isa + ".cases"] = double(st.cases);
            obs[isa + ".retained"] = double(st.retained);
            obs[isa + ".coverage_keys"] = double(result.coverage.size());
            obs[isa + ".seeds"] = double(st.seeds);
            obs[isa + ".contract_runs"] = double(st.contract_runs);
            cases += double(st.cases);
            retained += double(st.retained);
            coverage += double(result.coverage.size());

            OracleOptions oracle;
            oracle.run_contract = true;
            double cycles = 0.0;
            for (std::size_t i = 0; i < result.corpus.size(); ++i) {
                const FuzzArtifact &artifact = result.corpus[i];
                double r0 = now();
                OracleOutcome out = runOracles(artifact, oracle);
                double dt_ms = (now() - r0) * 1e3;
                replay_ms.add(artifact_index++, dt_ms);
                replay_insts += double(out.interp.instructions);
                cycles += double(out.interp.cycles);
                // The corpus starts with the seeds.
                if (i < st.seeds) {
                    seed_replay_ms.add(seed_index++, dt_ms);
                    seed_insts += double(out.interp.instructions);
                    seed_cycles += double(out.interp.cycles);
                }
                checks.op(out.agree(), "fuzz-mix " + isa + ": replay of " +
                                           artifact.name + " disagrees");
            }
            obs[isa + ".replay_cycles"] = cycles;
        }
        walls.push_back(now() - t0);
        obs["guest_cycles"] = seed_cycles;
        obs["guest_insts"] = replay_insts;
        return obs;
    }

    void
    endToEnd(Metrics &m) override
    {
        double campaign = campaign_ms.totalSeconds();
        m["wall_s"] = {campaign + replay_ms.totalSeconds(), "s",
                       walls.size()};
        m["sim_mips"] = {seed_insts / seed_replay_ms.totalSeconds() / 1e6,
                         "MIPS", walls.size()};
        m["guest_cycles"] = {seed_cycles, "cycles", walls.size()};
        m["ops_per_s"] = {cases / campaign, "1/s", walls.size()};
        replay_ms.report(m);
    }

    void
    layers(Metrics &m) override
    {
        m["fuzz.cases"] = {cases, "count", 1};
        m["fuzz.retained"] = {retained, "count", 1};
        m["fuzz.coverage_keys"] = {coverage, "count", 1};
    }
};

// --- the run --------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload=lmbench-rv|gates-x86|fuzz-mix"
                 " --seed=N --seconds=S [--trace] [--spans=FILE]\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&](const char *flag) -> const char * {
            std::size_t n = std::strlen(flag);
            return a.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
        };
        char *end = nullptr;
        if (const char *v = value("--workload=")) {
            args.workload = v;
        } else if (const char *v = value("--seed=")) {
            args.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0')
                usage();
        } else if (const char *v = value("--seconds=")) {
            args.seconds = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || !(args.seconds > 0.0))
                usage();
        } else if (a == "--trace") {
            args.trace = true;
        } else if (const char *v = value("--spans=")) {
            args.spans = v;
        } else {
            usage();
        }
    }
    return args;
}

std::unique_ptr<Workload>
makeWorkload(const Args &args)
{
    if (args.workload == "lmbench-rv")
        return std::make_unique<LmbenchRv>();
    if (args.workload == "gates-x86")
        return std::make_unique<GatesX86>(args.seed);
    if (args.workload == "fuzz-mix")
        return std::make_unique<FuzzMix>(args.seed);
    usage();
}

/** Rounds until @p until (steady-clock seconds), at least kMinRounds. */
void
runRounds(Workload &w, double until, Checks &checks,
          std::vector<double> &setups, std::vector<Observed> &observed)
{
    for (unsigned n = 0; n < kMinRounds || now() < until; ++n) {
        setups.push_back(w.setup());
        observed.push_back(w.round(checks));
    }
}

/** Per-layer metrics from the spans of the traced rounds. */
void
spanLayers(const Tracer &tracer, double rounds, Metrics &m)
{
    auto layers = tracer.layers();
    auto self = [&](const char *name) {
        auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second.self_s;
    };
    auto calls = [&](const char *name) -> std::size_t {
        auto it = layers.find(name);
        return it == layers.end() ? 0 : it->second.calls;
    };
    auto ms = [&](const char *metric, const char *span) {
        m[metric] = {self(span) * 1e3 / rounds, "ms", calls(span)};
    };
    ms("cpu.machine.construct_ms", "cpu.machine.construct");
    ms("kernel.build_ms", "kernel.build");
    ms("workloads.build_ms", "workloads.build");
    ms("fuzz.campaign_ms", "fuzz.campaign");
    ms("fuzz.mutate_ms", "fuzz.mutate");
    ms("fuzz.oracles_ms", "fuzz.oracles");
    ms("verify.ms", "verify");
    ms("verify.xscan.ms", "verify.xscan");
    ms("verify.minpriv.ms", "verify.minpriv");
    ms("modelcheck.ms", "modelcheck");
    ms("modelcheck.replay_ms", "modelcheck.replay");
    ms("contract.ms", "contract");
    ms("trace.unattributed_ms", "bench.round");
    ms("trace.setup_unattributed_ms", "bench.setup");
    m["cpu.run_s"] = {self("cpu.run") / rounds, "s", calls("cpu.run")};
    m["fuzz.engines_ms"] = {
        (tracer.selfUnder("cpu.run", "fuzz.oracles") +
         tracer.selfUnder("cpu.machine.construct", "fuzz.oracles")) *
            1e3 / rounds,
        "ms", calls("fuzz.oracles")};
    m["trace.spans"] = {double(tracer.all().size()) / rounds, "count",
                        std::size_t(rounds)};
}

void
printMetrics(std::string &out, const Metrics &metrics)
{
    out += "\"metrics\":{";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        if (!first)
            out += ',';
        first = false;
        char buf[128];
        std::snprintf(buf, sizeof buf, ":{\"value\":%.17g,\"unit\":",
                      metric.value);
        jsonString(out, name);
        out += buf;
        jsonString(out, metric.unit);
        out += ",\"samples\":" + std::to_string(metric.samples) + "}";
    }
    out += '}';
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(args);
    Checks checks;
    std::vector<double> setups;
    std::vector<Observed> observed;

    // Set-up is timed on its own, several times, and reported as a
    // median: one set-up of a simulation workload takes about 1 ms and
    // jitters by several times that.
    double start = now();
    unsigned extra = dynamic_cast<FuzzMix *>(w.get()) ? kFuzzSetups - 1
                                                       : kExtraSetups;
    for (unsigned i = 0; i < extra; ++i)
        setups.push_back(w->setup());

    Metrics metrics;
    double measure = args.seconds - (now() - start);
    if (!args.trace) {
        runRounds(*w, now() + measure, checks, setups,
                  observed);
        metrics["setup_s"] = {median(setups), "s", setups.size()};
        w->endToEnd(metrics);
    } else {
        runRounds(*w, now() + measure / 2, checks, setups,
                  observed);
        double untraced = best(w->walls);
        w->walls.clear();
        Tracer tracer;
        perfbench::WrapCounters before = perfbench::wrapCounters;
        Tracer::active = &tracer;
        runRounds(*w, now() + measure / 2, checks, setups,
                  observed);
        Tracer::active = nullptr;
        double rounds = double(w->walls.size());
        double traced_wall = 0.0;
        for (double x : w->walls)
            traced_wall += x;
        const perfbench::WrapCounters &after = perfbench::wrapCounters;
        spanLayers(tracer, rounds, metrics);
        w->layers(metrics);
        auto per_round = [&](std::uint64_t a, std::uint64_t b) {
            return double(a - b) / rounds;
        };
        metrics["cpu.machine.constructs"] = {
            per_round(after.constructs, before.constructs), "count",
            w->walls.size()};
        metrics["modelcheck.states"] = {
            per_round(after.mc_states, before.mc_states), "count",
            w->walls.size()};
        metrics["contract.runs"] = {
            per_round(after.contract_runs, before.contract_runs), "count",
            w->walls.size()};
        double insts = per_round(after.insts, before.insts);
        metrics["cpu.insts"] = {insts, "count", w->walls.size()};
        metrics["cpu.ns_per_inst"] = {
            insts ? metrics["cpu.run_s"].value / insts * 1e9 : 0.0, "ns",
            w->walls.size()};
        metrics["trace.overhead_s"] = {best(w->walls) - untraced, "s",
                                       w->walls.size()};
        // Self times of everything inside the timed rounds, which must
        // add up to the rounds' wall time (run.py --selftest checks).
        double in_rounds = 0.0;
        const auto &spans = tracer.all();
        std::vector<std::size_t> root(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i) {
            // A parent is always recorded before its children.
            root[i] = spans[i].parent < 0
                          ? i
                          : root[std::size_t(spans[i].parent)];
            if (std::strcmp(spans[root[i]].name, "bench.round") == 0)
                in_rounds += spans[i].self();
        }
        metrics["trace.self_share"] = {
            traced_wall > 0 ? in_rounds / traced_wall : 0.0, "ratio",
            w->walls.size()};
        if (!args.spans.empty() && !tracer.write(args.spans))
            fatal("cannot write %s", args.spans.c_str());
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    if (!args.trace)
        metrics["peak_rss_mb"] = {double(usage.ru_maxrss) / 1024.0, "MB", 1};

    std::string out = "{\"workload\":";
    jsonString(out, args.workload);
    out += ",\"seed\":" + std::to_string(args.seed);
    out += ",\"trace\":" + std::string(args.trace ? "1" : "0");
    out += ",\"build_type\":";
    jsonString(out, PERFBENCH_BUILD_TYPE);
    out += ",\"compiler\":";
    jsonString(out, PERFBENCH_COMPILER);
    out += ",\"wraps\":";
    jsonString(out, PERFBENCH_WRAPS_ENABLED);
    out += ",\"attempted\":" + std::to_string(checks.attempted);
    out += ",\"failed\":" + std::to_string(checks.failed);
    out += ",\"failures\":[";
    for (std::size_t i = 0; i < checks.failures.size(); ++i) {
        if (i)
            out += ',';
        jsonString(out, checks.failures[i]);
    }
    out += "],\"rounds\":[";
    for (std::size_t i = 0; i < observed.size(); ++i) {
        if (i)
            out += ',';
        out += '{';
        bool first = true;
        for (const auto &[k, v] : observed[i]) {
            if (!first)
                out += ',';
            first = false;
            jsonString(out, k);
            char buf[64];
            std::snprintf(buf, sizeof buf, ":%.17g", v);
            out += buf;
        }
        out += '}';
    }
    out += "],";
    printMetrics(out, metrics);
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
}
