/**
 * @file
 * Decoded-instruction cache tests (cpu/decode_cache.hh).
 *
 * The cache is a host-side fast path only, so two properties must
 * hold: self-modifying code observes the *new* instruction on the
 * very next execution (invalidation is exact, driven by PhysMem write
 * generations), and enabling/disabling the cache changes nothing
 * observable — architectural results, cycle counts and every modeled
 * statistic are bit-identical.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attacks/attacks.hh"
#include "cpu/decode_cache.hh"
#include "cpu/machine.hh"
#include "isa/riscv/assembler.hh"
#include "isa/x86/assembler.hh"
#include "kernel/kernel_builder.hh"
#include "workloads/lmbench.hh"

using namespace isagrid;

namespace {

/** The interpreter (block engine off) with the given cache size. */
MachineConfig
configWithCache(std::uint32_t entries)
{
    MachineConfig cfg;
    cfg.decode_cache_entries = entries;
    cfg.block_engine = false;
    return cfg;
}

/**
 * Self-modifying RISC-V program: a two-iteration loop whose body
 * instruction is executed (and therefore cached) on the first pass,
 * then overwritten by a store. The patch word is assembled at a
 * scratch address by a second assembler, so the test never hardcodes
 * an encoding.
 *
 *   loop:  T: addi x6, x0, 1      <- patched to addi x6, x0, 99
 *             x8 = &T; sw x7, 0(x8)
 *             if (--x5) goto loop
 *          halt(x6)
 */
RunResult
runRiscvSmc(Machine &m)
{
    const Addr patch_addr = 0x3000;
    riscv::RiscvAsm patch(patch_addr);
    patch.addi(6, 0, 99);
    patch.loadInto(m.mem());

    riscv::RiscvAsm a(0x1000);
    a.li(5, 2);
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
    return m.run(0x1000, 10'000);
}

/** Same shape on x86: T is "movImm rax, 1" (10 bytes), copied over
 *  from a scratch assembly of "movImm rax, 99" with two load/store
 *  pairs. */
RunResult
runX86Smc(Machine &m)
{
    using namespace x86;
    const Addr patch_addr = 0x3000;
    X86Asm patch(patch_addr);
    patch.movImm(RAX, 99);
    patch.loadInto(m.mem());

    X86Asm a(0x1000);
    a.movImm(RCX, 2);
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
    return m.run(0x1000, 10'000);
}

/** Run the LMbench suite under a decomposed kernel; return the run
 *  result plus the full stats dump. */
std::pair<RunResult, std::string>
runLmbench(bool x86_isa, std::uint32_t cache_entries)
{
    auto m = x86_isa ? Machine::gem5x86(configWithCache(cache_entries))
                     : Machine::rocket(configWithCache(cache_entries));
    Addr entry = buildLmbenchSuite(*m, 30);
    KernelConfig kc;
    kc.mode = KernelMode::Decomposed;
    KernelBuilder builder(*m, kc);
    KernelImage image = builder.build(entry);
    RunResult r = m->run(image.boot_pc, 200'000'000);
    std::ostringstream os;
    m->dumpStats(os);
    return {r, os.str()};
}

/** Replay one attack scenario with the given cache size; return the
 *  run result plus the full stats dump. */
std::pair<RunResult, std::string>
runAttackWithCache(const AttackScenario &scenario, bool x86_isa,
                   std::uint32_t cache_entries)
{
    PreparedAttack prepared = prepareAttack(scenario, x86_isa, true);
    Machine &m = *prepared.machine;
    m.core().setDecodeCache(cache_entries);
    m.core().setBlockEngine(0);
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
        << what << ": stat dumps differ between decode-cache on/off";
}

} // namespace

// The slots start as zero pages, so an all-zero slot must read as
// empty: the tag is ~pc, which keeps pc 0 (a valid PC) distinct.
TEST(DecodeCacheSlots, FreshCacheMissesInEverySlot)
{
    PhysMem mem(64 * 1024);
    DecodeCache cache(mem, MachineConfig{}.decode_cache_entries);
    EXPECT_EQ(cache.lookup(0), nullptr);

    std::vector<bool> probed(cache.numEntries());
    std::size_t left = probed.size();
    for (Addr pc = 0; left > 0 && pc < 64 * probed.size(); ++pc) {
        ASSERT_EQ(cache.lookup(pc), nullptr) << "pc " << pc;
        std::size_t slot = cache.slotOf(pc);
        if (!probed[slot]) {
            probed[slot] = true;
            --left;
        }
    }
    EXPECT_EQ(left, 0u) << "some slot was never probed";
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(DecodeCacheSlots, RecycledCacheMissesInEverySlot)
{
    PhysMem mem(64 * 1024);
    const std::uint32_t entries = MachineConfig{}.decode_cache_entries;
    DecodedInst inst;
    inst.valid = true;
    inst.length = 4;
    {
        DecodeCache used(mem, entries);
        for (Addr pc = 0; pc < 4 * entries; pc += 4)
            used.insert(pc, inst, true, true);
        ASSERT_NE(used.lookup(0), nullptr);
    }
    // Takes the slots the first cache recycled.
    DecodeCache cache(mem, entries);
    std::vector<bool> probed(cache.numEntries());
    std::size_t left = probed.size();
    for (Addr pc = 0; left > 0 && pc < 64 * probed.size(); ++pc) {
        ASSERT_EQ(cache.lookup(pc), nullptr) << "pc " << pc;
        std::size_t slot = cache.slotOf(pc);
        if (!probed[slot]) {
            probed[slot] = true;
            --left;
        }
    }
    EXPECT_EQ(left, 0u) << "some slot was never probed";
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(DecodeCacheSlots, PcZeroHitsOnceInserted)
{
    PhysMem mem(64 * 1024);
    DecodeCache cache(mem, 16);
    DecodedInst inst;
    inst.valid = true;
    inst.length = 4;
    cache.insert(0, inst, false, true);
    const DecodeCache::Entry *hit = cache.lookup(0);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->inst.length, 4u);
    EXPECT_TRUE(hit->check_cacheable);
    mem.write8(3, 0);
    EXPECT_EQ(cache.lookup(0), nullptr) << "the store must invalidate";
    EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(DecodeCacheSmc, RiscvStoreIntoExecutedCodeIsObserved)
{
    auto m = Machine::rocket();
    ASSERT_GT(m->config().decode_cache_entries, 0u)
        << "decode cache must be on by default for this test to bite";
    RunResult r = runRiscvSmc(*m);
    ASSERT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(r.halt_code, 99u)
        << "second execution of the patched PC returned the stale "
           "cached instruction";
    ASSERT_NE(m->core().decodeCache(), nullptr);
    EXPECT_GE(m->core().decodeCache()->invalidations(), 1u)
        << "the patching store must invalidate the cached decode";
}

TEST(DecodeCacheSmc, X86StoreIntoExecutedCodeIsObserved)
{
    auto m = Machine::gem5x86();
    RunResult r = runX86Smc(*m);
    ASSERT_EQ(r.reason, StopReason::Halted);
    EXPECT_EQ(r.halt_code, 99u)
        << "second execution of the patched PC returned the stale "
           "cached instruction";
    ASSERT_NE(m->core().decodeCache(), nullptr);
    EXPECT_GE(m->core().decodeCache()->invalidations(), 1u);
}

TEST(DecodeCacheSmc, DisabledCacheRunsTheSamePrograms)
{
    auto mr = Machine::rocket(configWithCache(0));
    EXPECT_EQ(mr->core().decodeCache(), nullptr);
    RunResult rr = runRiscvSmc(*mr);
    ASSERT_EQ(rr.reason, StopReason::Halted);
    EXPECT_EQ(rr.halt_code, 99u);

    auto mx = Machine::gem5x86(configWithCache(0));
    RunResult rx = runX86Smc(*mx);
    ASSERT_EQ(rx.reason, StopReason::Halted);
    EXPECT_EQ(rx.halt_code, 99u);
}

TEST(DecodeCacheEquivalence, LmbenchRiscv)
{
    expectIdentical(runLmbench(false, 16384), runLmbench(false, 0),
                    "lmbench/riscv");
}

TEST(DecodeCacheEquivalence, LmbenchX86)
{
    expectIdentical(runLmbench(true, 16384), runLmbench(true, 0),
                    "lmbench/x86");
}

TEST(DecodeCacheEquivalence, LmbenchTinyCacheThrashes)
{
    // A 2-entry cache conflicts constantly: hit, miss and
    // invalidation traffic all change, the modeled machine must not.
    expectIdentical(runLmbench(false, 2), runLmbench(false, 0),
                    "lmbench/riscv tiny cache");
}

TEST(DecodeCacheEquivalence, AttackCorpusBothIsas)
{
    for (bool x86_isa : {false, true}) {
        for (const auto &scenario : attackScenarios(x86_isa)) {
            if (scenario.x86_only && !x86_isa)
                continue;
            expectIdentical(
                runAttackWithCache(scenario, x86_isa, 16384),
                runAttackWithCache(scenario, x86_isa, 0),
                std::string("attack ") + scenario.name +
                    (x86_isa ? " (x86)" : " (riscv)"));
        }
    }
}
