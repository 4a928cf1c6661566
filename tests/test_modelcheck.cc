/**
 * @file
 * Tests of the bounded model checker (src/modelcheck) and its
 * simulator-replayed counterexamples.
 *
 * Both directions of the acceptance criterion:
 *  - every legitimate kernel-builder configuration explores to the
 *    depth bound with zero violations (warnings are advisory);
 *  - every attack scenario's prepared image yields at least one
 *    violation whose counterexample trace the Machine simulator
 *    confirms step by step.
 * Plus reachability-only negatives the single-configuration verifier
 * cannot express: cross-domain masked-write composition, corrupt raw
 * dest_domain words, and trusted-stack storage outside trusted
 * memory.
 */

#include <gtest/gtest.h>

#include "attacks/attacks.hh"
#include "isa/riscv/opcodes.hh"
#include "isagrid/hpt.hh"
#include "isagrid/sgt.hh"
#include "kernel/kernel_builder.hh"
#include "kernel/layout.hh"
#include "modelcheck/modelcheck.hh"
#include "modelcheck/replay.hh"

using namespace isagrid;

namespace {

struct BuiltKernel
{
    std::unique_ptr<Machine> machine;
    KernelImage image;
};

BuiltKernel
buildKernel(bool x86, KernelConfig config)
{
    BuiltKernel built;
    built.machine = x86 ? Machine::gem5x86() : Machine::rocket();

    auto ua = x86 ? makeX86Asm(layout::userCodeBase)
                  : makeRiscvAsm(layout::userCodeBase);
    ua->li(ua->regArg(0), 0);
    ua->halt(ua->regArg(0));
    ua->loadInto(built.machine->mem());

    KernelBuilder builder(*built.machine, config);
    built.image = builder.build(layout::userCodeBase);
    return built;
}

McResult
check(Machine &machine, const std::vector<CodeRegion> &regions,
      const PolicySnapshot &snap, DomainId initial_domain,
      const McOptions &options)
{
    ModelChecker checker(machine.isa(), machine.mem(), snap, regions,
                         initial_domain, options);
    return checker.run();
}

const McViolation *
findCheck(const McResult &result, const std::string &check)
{
    for (const McViolation &f : result.findings)
        if (f.check == check)
            return &f;
    return nullptr;
}

/** Replay every Violation finding and assert the simulator agrees. */
void
expectAllReplay(Machine &machine, const McResult &result,
                const PolicySnapshot &snap, DomainId initial_domain)
{
    for (const McViolation &f : result.findings) {
        if (f.severity != Severity::Violation)
            continue;
        ReplayResult r = replayTrace(machine, f.trace, snap,
                                     initial_domain);
        EXPECT_TRUE(r.ok)
            << f.check << " at " << hexAddr(f.addr)
            << " did not replay: " << r.detail;
    }
}

constexpr std::size_t
idx(GridReg r)
{
    return static_cast<std::size_t>(r);
}

} // namespace

// ---------------------------------------------------------------------
// Legitimate configurations: the reachable space is violation-free
// ---------------------------------------------------------------------

struct CleanCase
{
    const char *name;
    bool x86;
    KernelMode mode;
    bool tstacks;
    Cycle timer;
};

// gtest would print the raw bytes, pointers included, into the ctest
// name, which then changes with every load address. Print the name.
void PrintTo(const CleanCase &c, std::ostream *os)
{
    *os << c.name;
}

class McClean : public ::testing::TestWithParam<CleanCase>
{
};

TEST_P(McClean, ExploresWithoutViolations)
{
    const CleanCase &c = GetParam();
    KernelConfig config;
    config.mode = c.mode;
    config.per_thread_tstack = c.tstacks;
    config.timer_interval = c.timer;
    BuiltKernel built = buildKernel(c.x86, config);

    PolicySnapshot snap =
        PolicySnapshot::fromPcu(built.machine->pcu());
    McOptions options;
    options.depth_bound = 4;
    McResult result = check(*built.machine, built.image.code_regions,
                            snap, 0, options);
    EXPECT_TRUE(result.clean()) << result.text();
    EXPECT_EQ(result.violations(), 0u);
    EXPECT_GE(result.stats.states, 1u);
    EXPECT_FALSE(result.stats.state_cap_hit);
    if (c.mode != KernelMode::Monolithic) {
        EXPECT_GT(result.stats.domains_scanned, 1u)
            << "decomposed configurations must reach their domains";
        EXPECT_EQ(result.stats.depth_reached, options.depth_bound);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, McClean,
    ::testing::Values(
        CleanCase{"rv_native", false, KernelMode::Monolithic, false, 0},
        CleanCase{"rv_decomposed", false, KernelMode::Decomposed, false,
                  0},
        CleanCase{"rv_nested", false, KernelMode::NestedMonitor, false,
                  0},
        CleanCase{"rv_tstacks_timer", false, KernelMode::Decomposed,
                  true, 10'000},
        CleanCase{"x86_native", true, KernelMode::Monolithic, false, 0},
        CleanCase{"x86_decomposed", true, KernelMode::Decomposed, false,
                  0},
        CleanCase{"x86_nested", true, KernelMode::NestedMonitor, false,
                  0},
        CleanCase{"x86_tstacks_timer", true, KernelMode::Decomposed,
                  true, 10'000}),
    [](const auto &info) { return info.param.name; });

// ---------------------------------------------------------------------
// Attack scenarios: flagged, and every counterexample replays
// ---------------------------------------------------------------------

class McAttacks : public ::testing::TestWithParam<bool>
{
};

TEST_P(McAttacks, EveryScenarioYieldsReplayedCounterexample)
{
    bool x86 = GetParam();
    for (const AttackScenario &s : attackScenarios(x86)) {
        PreparedAttack prepared = prepareAttack(s, x86, true);
        PolicySnapshot snap =
            PolicySnapshot::fromPcu(prepared.machine->pcu());
        McOptions options;
        options.depth_bound = 2;
        McResult result =
            check(*prepared.machine, prepared.image.code_regions, snap,
                  prepared.payload_domain, options);
        EXPECT_GE(result.violations(), 1u)
            << s.name << " not flagged:\n" << result.text();
        expectAllReplay(*prepared.machine, result, snap,
                        prepared.payload_domain);
    }
}

INSTANTIATE_TEST_SUITE_P(Isas, McAttacks, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "x86" : "riscv";
                         });

TEST(McAttacks, RopStyleReturnIsAnUnderflowCounterexample)
{
    for (const AttackScenario &s : attackScenarios(false)) {
        if (s.name.find("hcrets") == std::string::npos)
            continue;
        PreparedAttack prepared = prepareAttack(s, false, true);
        PolicySnapshot snap =
            PolicySnapshot::fromPcu(prepared.machine->pcu());
        McResult result =
            check(*prepared.machine, prepared.image.code_regions, snap,
                  prepared.payload_domain, {});
        const McViolation *f = findCheck(result, "mc-ret-underflow");
        ASSERT_NE(f, nullptr) << result.text();
        ASSERT_FALSE(f->trace.empty());
        EXPECT_EQ(f->trace.back().expect,
                  FaultType::TrustedStackFault);
    }
}

// ---------------------------------------------------------------------
// Write-composition escalation: only reachability analysis sees it
// ---------------------------------------------------------------------

TEST(McComposition, CrossDomainMaskedWritesEscalate)
{
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    BuiltKernel built = buildKernel(false, config);
    Machine &m = *built.machine;
    PolicySnapshot snap = PolicySnapshot::fromPcu(m.pcu());

    ASSERT_FALSE(built.image.service_domains.empty());
    DomainId da = built.image.mm_domain;
    DomainId db = built.image.service_domains.begin()->second;
    ASSERT_NE(da, db);

    // Misconfigure: grant the two domains *disjoint* sstatus write
    // masks (and make sure neither holds the full write bit). Each
    // individual masked write is policy-legal; the chain flips a bit
    // set no single mask covers.
    const IsaModel &isa = m.isa();
    HptLayout hpt(isa.numInstTypes(), isa.numControlledCsrs(),
                  isa.numMaskableCsrs());
    CsrIndex mi = isa.csrMaskIndex(riscv::CSR_SSTATUS);
    CsrIndex bi = isa.csrBitmapIndex(riscv::CSR_SSTATUS);
    ASSERT_NE(mi, invalidCsrIndex);
    ASSERT_NE(bi, invalidCsrIndex);
    Addr mask_base = snap.reg(GridReg::CsrBitMask);
    Addr cap_base = snap.reg(GridReg::CsrCap);
    m.mem().write64(hpt.maskAddr(mask_base, da, mi), RegVal{1} << 62);
    m.mem().write64(hpt.maskAddr(mask_base, db, mi), RegVal{1} << 61);
    for (DomainId d : {da, db}) {
        Addr word = hpt.regWordAddr(cap_base, d, hpt.regGroupOf(bi));
        m.mem().write64(word, m.mem().read64(word) &
                                  ~(RegVal{1} << hpt.regWriteBit(bi)));
    }

    McOptions options;
    options.depth_bound = 6;
    McResult result =
        check(m, built.image.code_regions, snap, 0, options);
    const McViolation *f = findCheck(result, "mc-mask-composition");
    ASSERT_NE(f, nullptr) << result.text();

    ReplayResult r = replayTrace(m, f->trace, snap, 0);
    EXPECT_TRUE(r.ok) << r.detail;
}

// ---------------------------------------------------------------------
// Corrupt raw dest_domain words (the satellite of sgt.hh's contract)
// ---------------------------------------------------------------------

TEST(McGates, CorruptDestDomainWordFlaggedAndReplays)
{
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    BuiltKernel built = buildKernel(false, config);
    Machine &m = *built.machine;
    PolicySnapshot snap = PolicySnapshot::fromPcu(m.pcu());

    Addr table = snap.reg(GridReg::GateAddr);
    SgtEntry entry = sgtRead(m.mem(), table, 0);
    entry.dest_domain = DomainId{1} << 40;
    sgtWrite(m.mem(), table, 0, entry);

    McOptions options;
    options.depth_bound = 2;
    McResult result =
        check(m, built.image.code_regions, snap, 0, options);
    const McViolation *f = findCheck(result, "mc-gate-dest-domain");
    ASSERT_NE(f, nullptr) << result.text();
    ASSERT_FALSE(f->trace.empty());
    EXPECT_EQ(f->trace.back().expect, FaultType::GateFault);

    // The PCU must fault cleanly on the raw out-of-range word — this
    // replay would crash (or mis-tag the privilege caches) if the
    // range validation regressed.
    ReplayResult r = replayTrace(m, f->trace, snap, 0);
    EXPECT_TRUE(r.ok) << r.detail;
}

// ---------------------------------------------------------------------
// Trusted-stack storage outside trusted memory is forgeable
// ---------------------------------------------------------------------

TEST(McStack, StackOutsideTrustedMemoryForgeable)
{
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    BuiltKernel built = buildKernel(false, config);
    Machine &m = *built.machine;
    PolicySnapshot snap = PolicySnapshot::fromPcu(m.pcu());

    // Relocate the trusted stack to ordinary guest memory.
    Addr fake = 0x70000;
    snap.regs[idx(GridReg::Hcsb)] = fake;
    snap.regs[idx(GridReg::Hcsp)] = fake;
    snap.regs[idx(GridReg::Hcsl)] = fake + 0x100;

    McOptions options;
    options.depth_bound = 4;
    McResult result =
        check(m, built.image.code_regions, snap, 0, options);
    const McViolation *f = findCheck(result, "mc-stack-forge");
    ASSERT_NE(f, nullptr) << result.text();

    // The trace overwrites the topmost frame with ordinary stores and
    // hcrets into a domain that never called — confirmed live.
    ReplayResult r = replayTrace(m, f->trace, snap, 0);
    EXPECT_TRUE(r.ok) << r.detail;
}

// ---------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------

TEST(McReport, JsonCarriesFindingsAndStats)
{
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    BuiltKernel built = buildKernel(false, config);
    PolicySnapshot snap =
        PolicySnapshot::fromPcu(built.machine->pcu());
    McOptions options;
    options.depth_bound = 2;
    McResult result = check(*built.machine, built.image.code_regions,
                            snap, 0, options);
    std::string json = result.json();
    EXPECT_NE(json.find("\"violations\":0"), std::string::npos);
    EXPECT_NE(json.find("\"stats\""), std::string::npos);
    EXPECT_NE(json.find("\"findings\""), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}
