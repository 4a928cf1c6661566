/**
 * @file
 * Block-translation engine equivalence tests (cpu/block).
 *
 * The engine is a host-side fast path only, so the properties under
 * test mirror the decode-cache contract but are stronger, because the
 * engine also *hoists* privilege checks to block entry:
 *
 *  - enabling the engine changes nothing observable: architectural
 *    results, cycle counts and every modeled statistic are
 *    bit-identical on the LMbench suite (all three stock PCU
 *    configurations plus bypass-off, 1-entry and unified privilege
 *    caches, both ISAs), on gate-heavy code (Table 4's ping-pong and
 *    a call/return mix that switches every few instructions, final
 *    domain included) and across the whole attack corpus — including
 *    the exact faulting pc of every blocked attack;
 *  - self-modifying code observes the new instruction on the very
 *    next execution (invalidation is exact, per 64B write
 *    generation);
 *  - the block-entry check-memo is flushed by policy republication:
 *    revoking a privilege and publishing faults at the exact pc the
 *    interpreter faults at, even when the faulting instruction sits
 *    in the middle of an already-translated hot block;
 *  - the domain-noninterference oracle (src/contract) reaches the
 *    same verdicts when its replayed machines run the block engine;
 *  - an engine that never runs touches no page of its tables, and an
 *    engine built on recycled tables starts empty.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attacks/attacks.hh"
#include "contract/contract.hh"
#include "cpu/machine.hh"
#include "isa/riscv/assembler.hh"
#include "isa/riscv/opcodes.hh"
#include "isa/x86/assembler.hh"
#include "kernel/asm_iface.hh"
#include "kernel/kernel_builder.hh"
#include "kernel/layout.hh"
#include "kernel/syscalls.hh"
#include "workloads/lmbench.hh"

using namespace isagrid;

namespace {

/** A hair-trigger hot threshold so short tests translate eagerly. */
constexpr std::uint32_t kHotNow = 2;

MachineConfig
blockConfig(bool on, PcuConfig pcu = PcuConfig::config8E())
{
    MachineConfig cfg;
    cfg.pcu = pcu;
    cfg.block_engine = on;
    cfg.block_hot_threshold = kHotNow;
    return cfg;
}

/**
 * Self-modifying RISC-V program (same shape as the decode-cache SMC
 * test, but with a warm-up loop so the patched pc sits inside a block
 * that is already translated when the store hits it):
 *
 *   loop:  T: addi x6, x0, 1      <- patched to addi x6, x0, 99
 *             x8 = &T; sw x7, 0(x8)
 *             if (--x5) goto loop
 *          halt(x6)
 */
RunResult
runRiscvSmc(Machine &m, std::uint64_t iters)
{
    const Addr patch_addr = 0x3000;
    riscv::RiscvAsm patch(patch_addr);
    patch.addi(6, 0, 99);
    patch.loadInto(m.mem());

    riscv::RiscvAsm a(0x1000);
    a.li(5, static_cast<std::int64_t>(iters));
    a.li(7, patch_addr);
    a.lw(7, 7, 0); // x7 = encoding of "addi x6, x0, 99"
    auto loop = a.newLabel();
    a.bind(loop);
    Addr t_addr = a.here();
    a.addi(6, 0, 1); // T: the instruction under attack
    a.li(8, t_addr);
    a.sw(7, 8, 0); // patch T for the next iteration
    a.addi(5, 5, -1);
    a.bne(5, 0, loop);
    a.halt(6);
    a.loadInto(m.mem());
    return m.run(0x1000, 100'000);
}

/**
 * Self-modifying RISC-V program whose patch *differs every
 * iteration*: T's immediate field (addi bits 31:20) is rewritten to
 * the live loop counter, so every store after translation is a real
 * code change and forces a retranslation (not just a generation
 * refresh). Iteration i executes the immediate stored by iteration
 * i+1 of the countdown, so the final halt code is 2 for iters >= 2.
 *
 *   loop:  T: addi x6, x0, 0      <- immediate patched to x5
 *             x8 = &T; x9 = encoding(addi x6,x0,0) + (x5 << 20)
 *             sw x9, 0(x8)
 *             if (--x5) goto loop
 *          halt(x6)
 */
RunResult
runRiscvSmcVarying(Machine &m, std::uint64_t iters)
{
    const Addr patch_addr = 0x3000;
    riscv::RiscvAsm patch(patch_addr);
    patch.addi(6, 0, 0); // base encoding, immediate field zero
    patch.loadInto(m.mem());

    riscv::RiscvAsm a(0x1000);
    a.li(5, static_cast<std::int64_t>(iters));
    a.li(7, patch_addr);
    a.lw(7, 7, 0); // x7 = encoding of "addi x6, x0, 0"
    auto loop = a.newLabel();
    a.bind(loop);
    Addr t_addr = a.here();
    a.addi(6, 0, 0); // T: immediate rewritten every iteration
    a.li(8, t_addr);
    a.slli(9, 5, 20); // x9 = x5 << 20 (the I-immediate field)
    a.add(9, 9, 7);
    a.sw(9, 8, 0);
    a.addi(5, 5, -1);
    a.bne(5, 0, loop);
    a.halt(6);
    a.loadInto(m.mem());
    return m.run(0x1000, 100'000);
}

/** Same shape on x86: T is "movImm rax, 1" (10 bytes). */
RunResult
runX86Smc(Machine &m, std::uint64_t iters)
{
    using namespace x86;
    const Addr patch_addr = 0x3000;
    X86Asm patch(patch_addr);
    patch.movImm(RAX, 99);
    patch.loadInto(m.mem());

    X86Asm a(0x1000);
    a.movImm(RCX, static_cast<std::int64_t>(iters));
    auto loop = a.newLabel();
    a.bind(loop);
    Addr t_addr = a.here();
    a.movImm(RAX, 1); // T: patched to movImm RAX, 99
    a.movImm(RDX, patch_addr);
    a.movImm(RBX, t_addr);
    a.load64(RSI, RDX, 0);
    a.store64(RSI, RBX, 0);
    a.load16(RSI, RDX, 8);
    a.store16(RSI, RBX, 8);
    a.addi(RCX, -1);
    a.jnz(loop);
    a.halt(RAX);
    a.loadInto(m.mem());
    return m.run(0x1000, 100'000);
}

/** Run the LMbench suite under a decomposed kernel; return the run
 *  result plus the full stats dump. */
std::pair<RunResult, std::string>
runLmbench(bool x86_isa, bool block_on, PcuConfig pcu)
{
    auto m = x86_isa ? Machine::gem5x86(blockConfig(block_on, pcu))
                     : Machine::rocket(blockConfig(block_on, pcu));
    Addr entry = buildLmbenchSuite(*m, 30);
    KernelConfig kc;
    kc.mode = KernelMode::Decomposed;
    KernelBuilder builder(*m, kc);
    KernelImage image = builder.build(entry);
    RunResult r = m->run(image.boot_pc, 200'000'000);
    if (block_on) {
        const BlockEngine *eng = m->core().blockEngine();
        EXPECT_NE(eng, nullptr);
        EXPECT_GT(eng->stats().entries, 0u)
            << "block engine never entered a translated block";
        EXPECT_GT(eng->stats().translated_insts, 0u);
    }
    std::ostringstream os;
    m->dumpStats(os);
    return {r, os.str()};
}

/** Replay one attack scenario with the block engine on/off; return
 *  the run result plus the full stats dump. */
std::pair<RunResult, std::string>
runAttackWithEngine(const AttackScenario &scenario, bool x86_isa,
                    bool block_on)
{
    PreparedAttack prepared = prepareAttack(scenario, x86_isa, true);
    Machine &m = *prepared.machine;
    m.core().setBlockEngine(block_on ? kHotNow : 0);
    m.core().reset(prepared.payload_entry);
    m.pcu().setGridReg(GridReg::Domain, prepared.payload_domain);
    RunResult r = m.core().run(100'000);
    std::ostringstream os;
    m.dumpStats(os);
    return {r, os.str()};
}

void
expectIdentical(const std::pair<RunResult, std::string> &on,
                const std::pair<RunResult, std::string> &off,
                const std::string &what)
{
    EXPECT_EQ(on.first.reason, off.first.reason) << what;
    EXPECT_EQ(on.first.halt_code, off.first.halt_code) << what;
    EXPECT_EQ(on.first.fault, off.first.fault) << what;
    EXPECT_EQ(on.first.fault_pc, off.first.fault_pc) << what;
    EXPECT_EQ(on.first.instructions, off.first.instructions) << what;
    EXPECT_EQ(on.first.cycles, off.first.cycles) << what;
    EXPECT_EQ(on.second, off.second)
        << what << ": stat dumps differ between block engine on/off";
}

const AttackScenario *
findAttack(const std::vector<AttackScenario> &list,
           const std::string &name)
{
    for (const AttackScenario &s : list)
        if (s.name == name)
            return &s;
    return nullptr;
}

} // namespace

// ---------------------------------------------------------------------
// Exact SMC invalidation under translation
// ---------------------------------------------------------------------

TEST(BlockSmc, RiscvPatchOfTranslatedBlockIsObserved)
{
    // Every iteration writes a *different* encoding into the already-
    // translated loop body: each entry must observe the new immediate
    // through a real retranslation.
    auto m = Machine::rocket(blockConfig(true));
    RunResult r = runRiscvSmcVarying(*m, 6);
    ASSERT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(r.halt_code, 2u)
        << "translated block served a stale instruction after SMC";
    ASSERT_NE(m->core().blockEngine(), nullptr);
    const auto &st = m->core().blockEngine()->stats();
    EXPECT_GT(st.entries, 0u) << "loop never ran translated";
    EXPECT_GE(st.invalidations, 1u)
        << "the patching store must invalidate the translation";
    EXPECT_GE(st.retranslations, 1u);
}

TEST(BlockSmc, RiscvSameByteStoreOnlyRefreshes)
{
    // The first patch (1 -> 99) lands before the loop is hot; every
    // later store rewrites identical bytes. Entry revalidation must
    // take the cheap generation-refresh path, never a retranslation.
    auto m = Machine::rocket(blockConfig(true));
    RunResult r = runRiscvSmc(*m, 20);
    ASSERT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(r.halt_code, 99u);
    ASSERT_NE(m->core().blockEngine(), nullptr);
    const auto &st = m->core().blockEngine()->stats();
    EXPECT_GT(st.entries, 0u) << "loop never ran translated";
    EXPECT_GE(st.gen_refreshes, 1u)
        << "same-byte stores must be recognized by the byte compare";
    EXPECT_EQ(st.invalidations, 0u)
        << "no byte ever changed after translation";
}

TEST(BlockSmc, X86PatchOfTranslatedBlockIsObserved)
{
    auto m = Machine::gem5x86(blockConfig(true));
    RunResult r = runX86Smc(*m, 20);
    ASSERT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(r.halt_code, 99u)
        << "translated block served a stale instruction after SMC";
    ASSERT_NE(m->core().blockEngine(), nullptr);
    EXPECT_GT(m->core().blockEngine()->stats().entries, 0u);
}

TEST(BlockSmc, PathologicalPatchingMatchesInterpreter)
{
    // A real code change on every iteration, far past
    // kMaxInvalidations: the block must end up blacklisted and
    // execution falls back, still bit-identical to the interpreter.
    auto on = Machine::rocket(blockConfig(true));
    RunResult r_on = runRiscvSmcVarying(*on, 64);
    auto off = Machine::rocket(blockConfig(false));
    RunResult r_off = runRiscvSmcVarying(*off, 64);
    EXPECT_EQ(r_on.reason, r_off.reason);
    EXPECT_EQ(r_on.halt_code, r_off.halt_code);
    EXPECT_EQ(r_on.instructions, r_off.instructions);
    EXPECT_EQ(r_on.cycles, r_off.cycles);
    ASSERT_NE(on->core().blockEngine(), nullptr);
    EXPECT_GE(on->core().blockEngine()->stats().dead_blocks, 1u)
        << "pathological SMC must blacklist the block";
}

// ---------------------------------------------------------------------
// LMbench observational equivalence, all stock configs, both ISAs
// ---------------------------------------------------------------------

class BlockLmbench
    : public ::testing::TestWithParam<std::tuple<bool, int>>
{
  public:
    static PcuConfig
    pcuOf(int idx)
    {
        PcuConfig pcu = PcuConfig::config8E();
        switch (idx) {
          case 0: return PcuConfig::config16E();
          case 1: return pcu;
          case 2: return PcuConfig::config8EN();
          case 3: // no bypass register: every check walks the caches
            pcu.bypass_enabled = false;
            return pcu;
          case 4: // 1-entry HPT and SGT caches: a miss on every switch
            pcu.hpt_cache_entries = 1;
            pcu.sgt_cache_entries = 1;
            return pcu;
          default: // one unified HPT cache
            pcu.unified_hpt_cache = true;
            return pcu;
        }
    }

    static const char *
    nameOf(int idx)
    {
        static const char *const names[] = {"16E",       "8E",
                                            "8EN",       "8E_nobypass",
                                            "1E",        "8E_unified"};
        return names[idx];
    }
};

TEST_P(BlockLmbench, OnOffBitIdentical)
{
    auto [x86, pcu_idx] = GetParam();
    expectIdentical(runLmbench(x86, true, pcuOf(pcu_idx)),
                    runLmbench(x86, false, pcuOf(pcu_idx)),
                    std::string("lmbench/") + (x86 ? "x86" : "riscv"));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BlockLmbench,
    ::testing::Combine(::testing::Bool(), ::testing::Range(0, 6)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "x86" : "riscv") +
               "_" + BlockLmbench::nameOf(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Gate-heavy code: a domain switch every few instructions
// ---------------------------------------------------------------------

namespace {

/** One gate-heavy run: result, stat dump and the final domain. */
struct GateRun
{
    RunResult result;
    std::string stats;
    DomainId domain = 0;
};

/** A program's gate sites: each loads its own id and traverses. */
struct GateSites
{
    Machine &m;
    AsmIface &a;
    struct Site
    {
        Addr pc;
        AsmIface::Label dest;
        DomainId domain;
    };
    std::vector<Site> sites;

    void
    add(bool extended, AsmIface::Label dest, DomainId domain)
    {
        a.li(a.regGate(), m.domains().numGates() + sites.size());
        sites.push_back({a.here(), dest, domain});
        if (extended)
            a.hccalls(a.regGate());
        else
            a.hccall(a.regGate());
    }

    /** Load the program and register the sites, in id order. */
    void
    publish()
    {
        a.loadInto(m.mem());
        for (const Site &site : sites)
            m.domains().registerGate(site.pc, a.labelAddr(site.dest),
                                     site.domain);
        m.domains().publish();
    }
};

GateRun
gateRun(Machine &m, const RunResult &r)
{
    std::ostringstream os;
    m.dumpStats(os);
    return {r, os.str(), m.pcu().currentDomain()};
}

/**
 * Table 4's hccall row: one-way hccalls alternating between two
 * baseline domains, 16 gate sites per loop pass, run from reset in
 * domain-0 with no kernel (bench/bench_scenarios.cc, table4).
 */
GateRun
runPingPong(bool x86, bool block_on, PcuConfig pcu)
{
    auto m = x86 ? Machine::gem5x86(blockConfig(block_on, pcu))
                 : Machine::rocket(blockConfig(block_on, pcu));
    DomainId d1 = m->domains().createBaselineDomain();
    DomainId d2 = m->domains().createBaselineDomain();
    auto ap = x86 ? makeX86Asm(layout::userCodeBase)
                  : makeRiscvAsm(layout::userCodeBase);
    AsmIface &a = *ap;
    GateSites gates{*m, a, {}};
    auto site = [&](DomainId dest_domain) {
        auto dest = a.newLabel();
        gates.add(false, dest, dest_domain);
        a.bind(dest);
    };
    unsigned u0 = a.regUser(0);
    a.li(a.regSp(), layout::userStackTop);
    site(d1); // warm-up pass
    a.li(u0, 40);
    auto loop = a.newLabel();
    a.bind(loop);
    for (unsigned s = 0; s < 16; ++s)
        site(s % 2 ? d1 : d2);
    a.loopDec(u0, loop);
    a.li(a.regArg(0), 0);
    a.halt(a.regArg(0));
    gates.publish();
    m->core().reset(layout::userCodeBase);
    return gateRun(*m, m->core().run(1'000'000));
}

/**
 * The repository benchmark's gates-x86 shape on a monolithic kernel:
 * passes of 4 hccalls/hcrets pairs from d1 into d2 and d3, repeated
 * 4 times, then one-way hccalls through every domain to domain-0, an
 * empty syscall and a hop back to d1 (perfbench/bench.cc, GatesX86).
 */
GateRun
runCallReturn(bool x86, bool block_on, PcuConfig pcu)
{
    auto m = x86 ? Machine::gem5x86(blockConfig(block_on, pcu))
                 : Machine::rocket(blockConfig(block_on, pcu));
    KernelConfig kc;
    kc.mode = KernelMode::Monolithic;
    KernelBuilder builder(*m, kc);
    Addr boot_pc = builder.build(layout::userCodeBase).boot_pc;
    std::array<DomainId, 4> slot{};
    for (unsigned i = 1; i < slot.size(); ++i)
        slot[i] = m->domains().createBaselineDomain();

    auto ap = x86 ? makeX86Asm(layout::userCodeBase)
                  : makeRiscvAsm(layout::userCodeBase);
    AsmIface &a = *ap;
    GateSites gates{*m, a, {}};
    std::array<AsmIface::Label, 4> callee{};
    for (auto &l : callee)
        l = a.newLabel();
    auto hop = [&](unsigned s) {
        auto next = a.newLabel();
        gates.add(false, next, slot[s]);
        a.bind(next);
    };
    auto pairs = [&] {
        for (unsigned s = 0; s < 4; ++s)
            gates.add(true, callee[2 + s % 2], slot[2 + s % 2]);
    };
    unsigned u0 = a.regUser(0), u1 = a.regUser(1);
    a.li(a.regSp(), layout::userStackTop);
    hop(1);
    a.li(u0, 30);
    auto outer = a.newLabel();
    a.bind(outer);
    a.li(u1, 4);
    auto hot = a.newLabel();
    a.bind(hot);
    pairs();
    a.loopDec(u1, hot);
    for (unsigned c = 0; c < 5; ++c)
        hop(1 + (c + 1) % 3);
    hop(0);
    a.li(a.regArg(0), std::uint64_t(Sys::Getpid));
    a.syscallInst();
    hop(1);
    a.loopDec(u0, outer);
    a.li(a.regArg(0), 0);
    a.halt(a.regArg(0));
    for (unsigned s = 2; s < callee.size(); ++s) {
        a.bind(callee[s]);
        a.hcrets();
    }
    gates.publish();
    return gateRun(*m, m->run(boot_pc, 1'000'000));
}

} // namespace

class BlockGates
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>>
{
};

TEST_P(BlockGates, OnOffBitIdentical)
{
    // 1-entry privilege caches make every bypass refill after a
    // switch miss, so the refill's stall is part of what must match.
    auto [x86, pingpong, one_entry] = GetParam();
    PcuConfig pcu = PcuConfig::config8E();
    if (one_entry)
        pcu.hpt_cache_entries = pcu.sgt_cache_entries = 1;
    auto run = pingpong ? runPingPong : runCallReturn;
    GateRun on = run(x86, true, pcu);
    GateRun off = run(x86, false, pcu);
    ASSERT_EQ(off.result.reason, StopReason::Halted);
    EXPECT_EQ(off.result.halt_code, 0u);
    expectIdentical({on.result, on.stats}, {off.result, off.stats},
                    pingpong ? "ping-pong" : "call/return");
    EXPECT_EQ(on.domain, off.domain);
    EXPECT_NE(off.domain, 0u) << "the program ends in a baseline domain";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockGates,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "x86" : "riscv") +
               (std::get<1>(info.param) ? "_pingpong" : "_callret") +
               (std::get<2>(info.param) ? "_1E" : "");
    });

// ---------------------------------------------------------------------
// Attack corpus: every blocked attack faults at the same pc
// ---------------------------------------------------------------------

TEST(BlockEquivalence, AttackCorpusBothIsas)
{
    for (bool x86_isa : {false, true}) {
        for (const auto &scenario : attackScenarios(x86_isa)) {
            if (scenario.x86_only && !x86_isa)
                continue;
            expectIdentical(
                runAttackWithEngine(scenario, x86_isa, true),
                runAttackWithEngine(scenario, x86_isa, false),
                std::string("attack ") + scenario.name +
                    (x86_isa ? " (x86)" : " (riscv)"));
        }
    }
}

// ---------------------------------------------------------------------
// Check-memo flush: republication faults mid-block at the exact pc
// ---------------------------------------------------------------------

namespace {

/**
 * Gate into a baseline domain and run an add-heavy loop hot, so the
 * loop body is translated with a filled check-memo for that domain.
 * Returns the machine, the loop pc and the pc of the first add.
 */
struct HotLoop
{
    std::unique_ptr<Machine> machine;
    DomainId domain = 0;
    Addr loop_pc = 0;
    Addr add_pc = 0;
};

HotLoop
runHotLoop(bool block_on)
{
    HotLoop h;
    h.machine = Machine::rocket(blockConfig(block_on));
    Machine &m = *h.machine;
    auto &dm = m.domains();
    h.domain = dm.createBaselineDomain();

    riscv::RiscvAsm a(0x1000);
    auto target = a.newLabel();
    a.li(10, 0); // gate id 0
    Addr gate_pc = a.here();
    a.hccall(10);
    a.bind(target);
    a.li(5, 50);
    a.li(6, 0);
    auto loop = a.newLabel();
    a.bind(loop);
    h.loop_pc = a.here();
    h.add_pc = a.here();
    a.add(6, 6, 5);
    a.addi(5, 5, -1);
    a.bne(5, 0, loop);
    a.halt(6);
    a.finalize();
    dm.registerGate(gate_pc, a.labelAddr(target), h.domain);
    dm.publish();
    a.loadInto(m.mem());

    RunResult r = m.run(0x1000, 100'000);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(r.halt_code, 1275u); // sum 1..50
    return h;
}

} // namespace

TEST(BlockMemoFlush, RevokeAndPublishFaultsAtExactPc)
{
    // Phase 1: run the loop hot in d1 — with the engine on, the loop
    // body is a translated block whose check-memo covers IT_ADD.
    HotLoop on = runHotLoop(true);
    ASSERT_NE(on.machine->core().blockEngine(), nullptr);
    EXPECT_GT(on.machine->core().blockEngine()->stats().memo_fills +
                  on.machine->core().blockEngine()->stats().memo_hits,
              0u)
        << "hot loop in a non-zero domain must exercise the memo";
    HotLoop off = runHotLoop(false);

    // Phase 2: revoke the loop's add and republish (pflh), then
    // re-enter the already-translated loop. The stale memo must not
    // survive the flush: both machines fault at the first add.
    for (HotLoop *h : {&on, &off}) {
        Machine &m = *h->machine;
        m.domains().revokeInstruction(h->domain, riscv::IT_ADD);
        m.domains().publish();
        m.core().reset(h->loop_pc);
        m.pcu().setGridReg(GridReg::Domain, h->domain);
        RunResult r = m.core().run(1'000);
        EXPECT_EQ(r.reason, StopReason::UnhandledFault);
        EXPECT_EQ(r.fault, FaultType::InstPrivilege);
        EXPECT_EQ(r.fault_pc, h->add_pc)
            << "fault must land on the revoked instruction itself";
    }
}

namespace {

/**
 * A loop in d1 calls into d2 through hccalls ten times; the callee
 * block [addi, add, hcrets] runs hot, so with the engine on it is a
 * translated block entered right after a switch.
 */
struct CallLoop
{
    std::unique_ptr<Machine> machine;
    DomainId d1 = 0, d2 = 0;
    Addr loop_pc = 0, callee_pc = 0, add_pc = 0, ret_pc = 0;
};

CallLoop
runCallLoop(bool block_on)
{
    CallLoop c;
    c.machine = Machine::rocket(blockConfig(block_on));
    Machine &m = *c.machine;
    auto &dm = m.domains();
    c.d1 = dm.createBaselineDomain();
    c.d2 = dm.createBaselineDomain();
    riscv::RiscvAsm a(0x1000);
    auto loop = a.newLabel(), callee = a.newLabel();
    a.li(10, 0);
    Addr entry_gate = a.here();
    a.hccall(10);
    a.bind(loop);
    c.loop_pc = a.here();
    a.li(10, 1);
    Addr call_gate = a.here();
    a.hccalls(10);
    a.addi(5, 5, -1);
    a.bne(5, 0, loop);
    a.halt(7);
    a.bind(callee);
    c.callee_pc = a.here();
    a.addi(6, 6, 1);
    c.add_pc = a.here();
    a.add(7, 7, 6);
    c.ret_pc = a.here();
    a.hcrets();
    a.finalize();
    dm.registerGate(entry_gate, a.labelAddr(loop), c.d1);
    dm.registerGate(call_gate, a.labelAddr(callee), c.d2);
    dm.publish();
    a.loadInto(m.mem());
    m.core().reset(0x1000);
    m.core().state().setReg(5, 10);
    RunResult r = m.core().run(10'000);
    EXPECT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(r.halt_code, 55u); // 1 + 2 + ... + 10
    return c;
}

} // namespace

TEST(BlockMemoFlush, DeniedOpAfterARefillFaultsAtItsPc)
{
    // d2 loses add. After the next switch, op 0 of the callee block
    // refills the bypass register and passes; the memo no longer
    // covers the block, so op 1 takes its own check and faults there.
    for (bool on : {true, false}) {
        CallLoop c = runCallLoop(on);
        Machine &m = *c.machine;
        m.domains().revokeInstruction(c.d2, riscv::IT_ADD);
        m.domains().publish();
        m.core().reset(c.loop_pc);
        m.core().state().setReg(5, 10);
        m.pcu().setGridReg(GridReg::Domain, c.d1);
        RunResult r = m.core().run(10'000);
        EXPECT_EQ(r.reason, StopReason::UnhandledFault);
        EXPECT_EQ(r.fault, FaultType::InstPrivilege);
        EXPECT_EQ(r.fault_pc, c.add_pc) << (on ? "engine on" : "off");
    }
}

TEST(BlockGateFault, HcretsOnAnEmptyStackFaultsAtItsPc)
{
    // Entering the translated callee block in d2 with nothing on the
    // trusted stack: the block's closing hcrets faults, at its own pc,
    // after the two ops before it retired.
    RunResult runs[2];
    for (bool on : {true, false}) {
        CallLoop c = runCallLoop(on);
        Machine &m = *c.machine;
        const BlockEngine *eng = m.core().blockEngine();
        std::uint64_t entries = on ? eng->stats().entries : 0;
        m.core().reset(c.callee_pc);
        m.pcu().setGridReg(GridReg::Domain, c.d2);
        runs[on] = m.core().run(10'000);
        EXPECT_EQ(runs[on].reason, StopReason::UnhandledFault);
        EXPECT_NE(runs[on].fault, FaultType::None);
        EXPECT_EQ(runs[on].fault_pc, c.ret_pc) << (on ? "engine on" : "off");
        EXPECT_EQ(runs[on].instructions, 3u);
        if (on) {
            EXPECT_EQ(eng->stats().entries, entries + 1)
                << "the callee must run as a translated block";
        }
    }
    EXPECT_EQ(runs[0].fault, runs[1].fault);
    EXPECT_EQ(runs[0].cycles, runs[1].cycles);
}

// ---------------------------------------------------------------------
// The noninterference oracle under translated execution
// ---------------------------------------------------------------------

namespace {

ContractOptions
oracleOptions()
{
    ContractOptions opt;
    opt.max_windows = 8;
    opt.max_insts = 50'000;
    opt.depth_bound = 4;
    opt.max_states = 4096;
    return opt;
}

/** A stock decomposed kernel whose replayed machines run the block
 *  engine (the oracle's step hooks exercise the fallback path; the
 *  plain oracle runs exercise translation). */
ContractScenario
blockKernelScenario(bool x86)
{
    ContractScenario scenario;
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    scenario.build = [x86, config]() {
        auto machine = x86 ? Machine::gem5x86(blockConfig(true))
                           : Machine::rocket(blockConfig(true));
        auto ua = x86 ? makeX86Asm(layout::userCodeBase)
                      : makeRiscvAsm(layout::userCodeBase);
        ua->li(ua->regArg(0), 0);
        ua->halt(ua->regArg(0));
        ua->loadInto(machine->mem());
        KernelBuilder builder(*machine, config);
        builder.build(layout::userCodeBase);
        return machine;
    };
    auto probe = x86 ? Machine::gem5x86() : Machine::rocket();
    auto pa = x86 ? makeX86Asm(layout::userCodeBase)
                  : makeRiscvAsm(layout::userCodeBase);
    pa->li(pa->regArg(0), 0);
    pa->halt(pa->regArg(0));
    pa->loadInto(probe->mem());
    KernelBuilder builder(*probe, config);
    KernelImage image = builder.build(layout::userCodeBase);
    scenario.start_pc = image.boot_pc;
    scenario.code_regions = image.code_regions;
    return scenario;
}

ContractScenario
blockAttackScenario(const AttackScenario &s, bool x86)
{
    ContractScenario scenario;
    scenario.build = [s, x86]() {
        PreparedAttack prepared = prepareAttack(s, x86, true);
        prepared.machine->core().setBlockEngine(kHotNow);
        return std::move(prepared.machine);
    };
    PreparedAttack prepared = prepareAttack(s, x86, true);
    scenario.start_pc = prepared.payload_entry;
    scenario.start_domain = prepared.payload_domain;
    scenario.code_regions = prepared.image.code_regions;
    return scenario;
}

} // namespace

TEST(BlockContract, StockKernelStaysClean)
{
    ContractReport report =
        checkContract(blockKernelScenario(false), oracleOptions());
    EXPECT_TRUE(report.clean()) << report.text();
    EXPECT_EQ(report.plausible(), 0u) << report.text();
}

TEST(BlockContract, MaskProbeStillConfirmed)
{
    std::vector<AttackScenario> list = attackScenarios(false);
    const AttackScenario *s =
        findAttack(list, "Mask-probe side channel");
    ASSERT_NE(s, nullptr);
    ContractReport report =
        checkContract(blockAttackScenario(*s, false), oracleOptions());
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.plausible(), 0u) << report.text();
    bool confirmed_dyn = false;
    for (const ContractFinding &f : report.findings)
        if (f.check == "dyn-divergence" &&
            f.verdict == ContractVerdict::Confirmed)
            confirmed_dyn = true;
    EXPECT_TRUE(confirmed_dyn)
        << "oracle must still confirm the divergence when its "
           "replayed machines run translated:\n"
        << report.text();
}

// ---------------------------------------------------------------------
// Construction: the tables are recycled zero pages
// ---------------------------------------------------------------------

namespace {

/** Resident pages among those covering [p, p + len) (mincore). */
std::size_t
residentPageCount(const void *p, std::size_t len)
{
    const std::size_t page = std::size_t(sysconf(_SC_PAGESIZE));
    auto lo = reinterpret_cast<std::uintptr_t>(p) & ~(page - 1);
    auto hi = (reinterpret_cast<std::uintptr_t>(p) + len + page - 1) &
              ~(page - 1);
    std::vector<unsigned char> vec((hi - lo) / page);
    EXPECT_EQ(mincore(reinterpret_cast<void *>(lo), hi - lo, vec.data()),
              0);
    std::size_t n = 0;
    for (unsigned char v : vec)
        n += v & 1;
    return n;
}

} // namespace

TEST(BlockEngine, UnusedEngineTouchesNoTablePage)
{
    // A thread of its own keeps no recycled mappings, so the tables
    // are fresh: a resident page means building the machine or its
    // kernel wrote it.
    std::thread([] {
        auto m = Machine::rocket(blockConfig(true));
        KernelConfig kc;
        kc.mode = KernelMode::Decomposed;
        KernelBuilder(*m, kc).build(layout::userCodeBase);
        const BlockEngine *eng = m->core().blockEngine();
        ASSERT_NE(eng, nullptr);
        for (auto [data, bytes] : eng->tableSpans()) {
            ASSERT_GT(bytes, 0u);
            EXPECT_EQ(residentPageCount(data, bytes), 0u);
        }
    }).join();
}

namespace {

void
expectZeroTables(const BlockEngine &eng)
{
    for (auto [data, bytes] : eng.tableSpans()) {
        const auto *p = static_cast<const unsigned char *>(data);
        EXPECT_EQ(std::count(p, p + bytes, 0), std::ptrdiff_t(bytes))
            << "a recycled table holds a nonzero byte";
    }
}

} // namespace

TEST(BlockEngine, RecycledTablesStartEmpty)
{
    std::thread([] {
        constexpr std::uint32_t kHot = 3;
        // PCs that between them hash to every slot of both tables.
        std::vector<Addr> pcs;
        std::vector<bool> slot(std::size_t{1} << BlockEngine::kSlotBits);
        std::vector<bool> heat(std::size_t{1} << BlockEngine::kHeatBits);
        std::size_t left = slot.size() + heat.size();
        for (Addr pc = 0; left > 0; pc += 4) {
            bool fresh = false;
            for (auto [seen, i] :
                 {std::pair{&slot, BlockEngine::slotIndex(pc)},
                  std::pair{&heat, BlockEngine::heatIndex(pc)}}) {
                if (!(*seen)[i]) {
                    (*seen)[i] = true;
                    --left;
                    fresh = true;
                }
            }
            if (fresh)
                pcs.push_back(pc);
        }

        auto m = Machine::rocket(blockConfig(false));
        CoreBase &core = m->core();
        // pc ~0 lies past any memory, and its tag reads as an empty
        // slot's: heating it must still leave nothing behind.
        core.setBlockEngine(kHot);
        for (int i = 0; i < 4; ++i)
            core.blockEngine()->heat(~Addr{0});
        core.setBlockEngine(0);
        core.setBlockEngine(kHot);
        expectZeroTables(*core.blockEngine());

        BlockEngine *used = core.blockEngine();
        // One heat short of translation everywhere, then translate as
        // many as fit (guest memory is zero, so each block is dead,
        // but its lookup slot is filled all the same).
        for (Addr pc : pcs) {
            used->heat(pc);
            used->heat(pc);
        }
        for (std::size_t i = 0; i + 1 < BlockEngine::kMaxBlocks; ++i)
            used->heat(pcs[i]);
        ASSERT_GT(used->numBlocks(), BlockEngine::kMaxBlocks / 2);
        core.setBlockEngine(0); // recycles both tables
        core.setBlockEngine(kHot);
        expectZeroTables(*core.blockEngine());

        BlockEngine &eng = *core.blockEngine();
        for (Addr pc : pcs) {
            ASSERT_EQ(eng.find(pc), nullptr) << "pc " << pc;
            ASSERT_EQ(eng.heat(pc), nullptr)
                << "pc " << pc << " kept its heat from the last engine";
        }
        EXPECT_EQ(eng.numBlocks(), 0u);
    }).join();
}

TEST(BlockEngine, CapacityFlushStartsOver)
{
    // Past kMaxBlocks translations the engine drops every block and
    // hands its arena back; lookups then miss and translation goes on.
    auto m = Machine::rocket(blockConfig(false));
    m->core().setBlockEngine(1);
    BlockEngine &eng = *m->core().blockEngine();
    const Addr n = BlockEngine::kMaxBlocks + 8;
    for (Addr i = 0; i < n; ++i) {
        eng.heat(4 * i); // the first execution only starts the count
        ASSERT_NE(eng.heat(4 * i), nullptr); // dead: memory is zero
    }
    EXPECT_EQ(eng.stats().flushes, 1u);
    EXPECT_EQ(eng.numBlocks(), 8u);
    EXPECT_EQ(eng.find(0), nullptr);
    ASSERT_NE(eng.find(4 * (n - 1)), nullptr);
    EXPECT_TRUE(eng.find(4 * (n - 1))->dead);
}
