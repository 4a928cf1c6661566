/**
 * @file
 * Superset-disassembly audit tests (verify/superset.hh, isagrid-xscan).
 *
 * Four properties anchor the analysis:
 *  - determinism: decoding every byte offset of every stock image is a
 *    pure function of the bytes, run to run and against the simulator's
 *    DecodeCache fast path;
 *  - stock images audit clean on both ISAs in every kernel mode (all
 *    entry points and resolved targets are aligned, so the misaligned
 *    superset is pruned away);
 *  - the hidden-instruction-chain attacks are flagged statically with
 *    the two-hop reachability chain recorded, and every finding is
 *    dynamically confirmed — a full runXscan never leaves a finding
 *    Plausible;
 *  - the whole attack corpus discharges completely (no Plausible
 *    leftovers anywhere, on either ISA).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "attacks/attacks.hh"
#include "cpu/decode_cache.hh"
#include "cpu/machine.hh"
#include "isa/disasm.hh"
#include "isa/riscv/opcodes.hh"
#include "kernel/kernel_builder.hh"
#include "kernel/layout.hh"
#include "verify/superset.hh"

using namespace isagrid;

namespace {

/** Build a stock kernel machine + image, as the CLI does. */
struct BuiltKernel
{
    std::unique_ptr<Machine> machine;
    KernelImage image;
};

BuiltKernel
buildKernel(bool x86, KernelMode mode, bool tstacks = false)
{
    BuiltKernel b;
    b.machine = x86 ? Machine::gem5x86() : Machine::rocket();
    auto ua = x86 ? makeX86Asm(layout::userCodeBase)
                  : makeRiscvAsm(layout::userCodeBase);
    ua->li(ua->regArg(0), 0);
    ua->halt(ua->regArg(0));
    ua->loadInto(b.machine->mem());

    KernelConfig config;
    config.mode = mode;
    config.per_thread_tstack = tstacks;
    KernelBuilder builder(*b.machine, config);
    b.image = builder.build(layout::userCodeBase);
    return b;
}

XscanScenario
kernelScenario(bool x86, KernelMode mode)
{
    XscanScenario scenario;
    scenario.build = [x86, mode]() {
        BuiltKernel b = buildKernel(x86, mode);
        return std::move(b.machine);
    };
    BuiltKernel probe = buildKernel(x86, mode);
    scenario.entries = {probe.image.boot_pc, probe.image.trap_entry};
    scenario.code_regions = probe.image.code_regions;
    return scenario;
}

XscanScenario
attackScenarioFor(bool x86, const std::string &name)
{
    for (const AttackScenario &s : attackScenarios(x86)) {
        if (s.name != name)
            continue;
        XscanScenario scenario;
        scenario.build = [s, x86]() {
            return std::move(prepareAttack(s, x86, true).machine);
        };
        PreparedAttack probe = prepareAttack(s, x86, true);
        scenario.entries = {probe.image.boot_pc, probe.image.trap_entry,
                            probe.payload_entry};
        scenario.code_regions = probe.image.code_regions;
        return scenario;
    }
    ADD_FAILURE() << "no scenario " << name;
    return {};
}

} // namespace

/**
 * Every byte offset of every stock code region decodes identically on
 * repeated runs, and identically through a DecodeCache insert/lookup
 * round-trip (valid instructions only — the cache never memoizes
 * invalid decodes).
 */
TEST(Superset, ExhaustiveOffsetDecodeIsDeterministic)
{
    for (bool x86 : {false, true}) {
        BuiltKernel b = buildKernel(x86, KernelMode::Decomposed);
        const IsaModel &isa = b.machine->isa();
        const PhysMem &mem = b.machine->mem();
        DecodeCache cache(mem, 1024);
        Addr step = isa.maxInstBytes() > 4 ? 1 : 2;
        std::size_t offsets = 0;
        for (const CodeRegion &region : b.image.code_regions) {
            for (Addr pc = region.base; pc < region.limit; pc += step) {
                DecodedInst first = decodeAt(isa, mem, pc);
                DecodedInst again = decodeAt(isa, mem, pc);
                ASSERT_EQ(first.valid, again.valid) << std::hex << pc;
                ASSERT_EQ(first.length, again.length) << std::hex << pc;
                ASSERT_STREQ(first.mnemonic, again.mnemonic)
                    << std::hex << pc;
                if (!first.valid)
                    continue;
                // Round-trip through the simulator's decode cache: a
                // hit must reproduce the direct decode bit-for-bit.
                if (const auto *hit = cache.lookup(pc)) {
                    ASSERT_STREQ(hit->inst.mnemonic, first.mnemonic);
                    ASSERT_EQ(hit->inst.length, first.length);
                } else {
                    cache.insert(pc, first, isa.instPrivileged(first),
                                 false);
                    const auto *filled = cache.lookup(pc);
                    ASSERT_NE(filled, nullptr) << std::hex << pc;
                    ASSERT_STREQ(filled->inst.mnemonic, first.mnemonic);
                }
                ++offsets;
            }
        }
        EXPECT_GT(offsets, 0u) << (x86 ? "x86" : "riscv");
    }
}

/** Stock images audit clean in every mode, on both ISAs. */
TEST(Superset, StockImagesScanClean)
{
    for (bool x86 : {false, true}) {
        for (KernelMode mode :
             {KernelMode::Monolithic, KernelMode::Decomposed,
              KernelMode::NestedMonitor}) {
            XscanScenario scenario = kernelScenario(x86, mode);
            XscanReport report = runXscan(scenario);
            EXPECT_EQ(report.violations(), 0u)
                << (x86 ? "x86" : "riscv") << " mode "
                << int(mode) << "\n" << report.text();
            EXPECT_EQ(report.warnings(), 0u)
                << (x86 ? "x86" : "riscv") << " mode " << int(mode);
            EXPECT_EQ(report.plausible(), 0u);
            EXPECT_TRUE(report.clean());
            EXPECT_GT(report.stats.offsets_scanned, 0u);
            EXPECT_GT(report.stats.entry_points, 0u);
        }
    }
}

/**
 * The two-hop hidden-instruction chains: found statically with the
 * full reachability chain, predicted fault isagrid-inst-privilege,
 * and confirmed dynamically.
 */
TEST(Superset, HiddenChainAttacksFlaggedAndConfirmed)
{
    struct Row
    {
        bool x86;
        const char *name;
    };
    for (const Row &row :
         {Row{true, "Hidden instruction chain (immediates)"},
          Row{false, "Hidden instruction chain (carrier words)"}}) {
        XscanScenario scenario = attackScenarioFor(row.x86, row.name);
        ASSERT_TRUE(scenario.build);

        // Static half alone: the finding exists but stays Plausible.
        XscanOptions static_only;
        static_only.run_dynamic = false;
        XscanReport st = runXscan(scenario, static_only);
        ASSERT_EQ(st.violations(), 1u) << row.name << "\n" << st.text();
        const XscanFinding &f = st.findings().front();
        EXPECT_EQ(f.check, "ui-priv-escape");
        EXPECT_EQ(f.expect, FaultType::InstPrivilege);
        EXPECT_EQ(f.verdict, XscanVerdict::Plausible);
        // Two hops: the hidden jump the payload enters at, then the
        // hidden privileged instruction it lands on.
        ASSERT_GE(f.chain.size(), 2u) << row.name;
        EXPECT_EQ(f.chain.back(), f.addr);
        // Only the x86 chain hides inside a *valid* aligned carrier
        // (the movabs); the RISC-V carrier words are themselves
        // undecodable at their aligned boundary, so no carrier exists.
        if (row.x86)
            EXPECT_NE(f.carrier_pc, 0u);
        EXPECT_FALSE(f.hidden_text.empty());

        // Full audit: everything discharges, nothing stays Plausible.
        XscanReport full = runXscan(scenario);
        ASSERT_EQ(full.violations(), 1u) << full.text();
        EXPECT_EQ(full.confirmed(), 1u) << full.text();
        EXPECT_EQ(full.plausible(), 0u) << full.text();
        EXPECT_EQ(full.findings().front().verdict,
                  XscanVerdict::Confirmed);
    }
}

/**
 * The prediction is the PCU's verdict: a hidden privileged instruction
 * whose domain's instruction-bitmap row lies off the bus faults with
 * MemoryFault, not InstPrivilege, and the probe confirms it.
 */
TEST(Superset, OffBusInstructionRowPredictsMemoryFault)
{
    for (bool x86 : {true, false}) {
        const std::string name =
            x86 ? "Hidden instruction chain (immediates)"
                : "Hidden instruction chain (carrier words)";
        XscanScenario scenario = attackScenarioFor(x86, name);
        ASSERT_TRUE(scenario.build);
        scenario.build = [build = scenario.build] {
            auto m = build();
            m->pcu().setGridReg(GridReg::InstCap, 0x7ffffffff000);
            return m;
        };
        XscanReport report = runXscan(scenario);
        ASSERT_EQ(report.violations(), 1u) << name << "\n" << report.text();
        const XscanFinding &f = report.findings().front();
        EXPECT_EQ(f.check, "ui-priv-escape");
        EXPECT_EQ(f.expect, FaultType::MemoryFault);
        EXPECT_EQ(f.verdict, XscanVerdict::Confirmed) << report.text();
    }
}

/**
 * A hidden write of a bit-maskable CSR whose write bit is clear and
 * whose mask is all zero takes the bit-mask path: the PCU raises
 * CsrMaskViolation for any change of the value, not CsrPrivilege.
 */
TEST(Superset, AllZeroBitMaskPredictsMaskViolation)
{
    AttackScenario s;
    s.name = "hidden sstatus write under an all-zero bit-mask";
    s.configure = [](Machine &m, const KernelImage &image) {
        for (InstTypeId t = 0; t < m.isa().numInstTypes(); ++t) {
            if (std::string(m.isa().instTypeName(t)) == "csrrwi")
                m.domains().allowInstruction(image.kernel_domain, t);
        }
        m.domains().revokeCsrWrite(image.kernel_domain, riscv::CSR_SSTATUS);
        m.domains().setCsrMask(image.kernel_domain, riscv::CSR_SSTATUS, 0);
        m.domains().publish();
    };
    s.emit = [](AsmIface &a) {
        // At island+2: csrrwi x0, sstatus, 2 — setting SIE changes the
        // reset value, which an all-zero mask rejects.
        Addr island = a.here();
        a.rawBytes({0x13, 0x00, 0x73, 0x50, 0x01, 0x10, 0x00, 0x00});
        Addr entry = a.here();
        a.jmpAbs(island + 2, a.regTmp(0));
        return entry;
    };
    XscanScenario scenario;
    scenario.build = [s] {
        return std::move(prepareAttack(s, false, true).machine);
    };
    PreparedAttack probe = prepareAttack(s, false, true);
    scenario.entries = {probe.image.boot_pc, probe.image.trap_entry,
                        probe.payload_entry};
    scenario.code_regions = probe.image.code_regions;

    XscanReport report = runXscan(scenario);
    ASSERT_EQ(report.violations(), 1u) << report.text();
    const XscanFinding &f = report.findings().front();
    EXPECT_EQ(f.check, "ui-priv-escape");
    EXPECT_EQ(f.expect, FaultType::CsrMaskViolation);
    EXPECT_EQ(f.verdict, XscanVerdict::Confirmed) << report.text();
}

/**
 * Corpus-wide discharge: across every attack scenario on both ISAs, a
 * full audit never leaves a finding Plausible — the static analysis
 * never claims anything the machine does not reproduce.
 */
TEST(Superset, NoFindingSurvivesPlausibleAcrossCorpus)
{
    for (bool x86 : {false, true}) {
        for (const AttackScenario &s : attackScenarios(x86)) {
            XscanScenario scenario = attackScenarioFor(x86, s.name);
            XscanReport report = runXscan(scenario);
            EXPECT_EQ(report.plausible(), 0u)
                << (x86 ? "x86 " : "riscv ") << s.name << "\n"
                << report.text();
            for (const XscanFinding &f : report.findings())
                EXPECT_NE(f.verdict, XscanVerdict::Plausible)
                    << s.name << " @ " << std::hex << f.addr;
        }
    }
}
