/**
 * @file
 * Tests of the static privilege-policy verifier (src/verify).
 *
 * Both directions of the acceptance criterion:
 *  - every legitimate kernel-builder configuration verifies with zero
 *    violations (warnings are advisory and allowed);
 *  - every attack scenario's prepared image is flagged with at least
 *    one violation, without simulating the payload.
 * Plus structural negatives built by tampering with a good snapshot.
 */

#include <gtest/gtest.h>

#include "attacks/attacks.hh"
#include "isagrid/sgt.hh"
#include "kernel/kernel_builder.hh"
#include "kernel/layout.hh"
#include "verify/verify.hh"

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

VerifyReport
verify(Machine &machine, const KernelImage &image,
       const VerifyOptions &options = {})
{
    PolicySnapshot snap = PolicySnapshot::fromPcu(machine.pcu());
    Verifier verifier(machine.isa(), machine.mem(), snap,
                      image.code_regions, options);
    return verifier.run();
}

bool
hasCheck(const VerifyReport &report, const std::string &check)
{
    for (const Finding &f : report.findings())
        if (f.check == check)
            return true;
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// Legitimate configurations: zero violations
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

class VerifyClean : public ::testing::TestWithParam<CleanCase>
{
};

TEST_P(VerifyClean, NoViolations)
{
    const CleanCase &c = GetParam();
    KernelConfig config;
    config.mode = c.mode;
    config.per_thread_tstack = c.tstacks;
    config.timer_interval = c.timer;
    BuiltKernel built = buildKernel(c.x86, config);

    VerifyOptions options;
    options.lint = true; // lints must not be violations either
    VerifyReport report = verify(*built.machine, built.image, options);
    EXPECT_TRUE(report.clean()) << report.text();
    EXPECT_EQ(report.violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, VerifyClean,
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

TEST(VerifyClean, BuilderOptInHookAcceptsGoodImages)
{
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    config.verify = true; // would fatal() on a violation
    BuiltKernel built = buildKernel(false, config);
    EXPECT_GT(built.image.code_regions.size(), 1u);
}

TEST(VerifyClean, KernelBuilderRecordsCoherentRegions)
{
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    for (bool x86 : {false, true}) {
        BuiltKernel built = buildKernel(x86, config);
        ASSERT_FALSE(built.image.code_regions.empty());
        for (const CodeRegion &r : built.image.code_regions) {
            EXPECT_LT(r.base, r.limit) << r.name;
            EXPECT_LE(r.limit, built.machine->mem().size()) << r.name;
        }
    }
}

// ---------------------------------------------------------------------
// Attack scenarios: every prepared image is statically flagged
// ---------------------------------------------------------------------

class VerifyAttacks : public ::testing::TestWithParam<bool>
{
};

TEST_P(VerifyAttacks, EveryScenarioFlagged)
{
    bool x86 = GetParam();
    for (const AttackScenario &s : attackScenarios(x86)) {
        PreparedAttack prepared = prepareAttack(s, x86, true);
        VerifyReport report =
            verify(*prepared.machine, prepared.image);
        EXPECT_GE(report.violations(), 1u)
            << s.name << " not flagged:\n" << report.text();
    }
}

INSTANTIATE_TEST_SUITE_P(Isas, VerifyAttacks, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "x86" : "riscv";
                         });

TEST(VerifyAttacks, GateForgeryFlaggedAsGateViolation)
{
    for (const AttackScenario &s : attackScenarios(false)) {
        if (s.name.find("Forged gate") == std::string::npos)
            continue;
        PreparedAttack prepared = prepareAttack(s, false, true);
        VerifyReport report =
            verify(*prepared.machine, prepared.image);
        EXPECT_TRUE(hasCheck(report, "gate-unregistered"))
            << report.text();
    }
}

// ---------------------------------------------------------------------
// Structural negatives: tampering with a good configuration
// ---------------------------------------------------------------------

namespace {

VerifyReport
verifyTampered(void (*tamper)(PolicySnapshot &, Machine &))
{
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    BuiltKernel built = buildKernel(false, config);
    PolicySnapshot snap = PolicySnapshot::fromPcu(built.machine->pcu());
    tamper(snap, *built.machine);
    Verifier verifier(built.machine->isa(), built.machine->mem(), snap,
                      built.image.code_regions);
    return verifier.run();
}

constexpr std::size_t
idx(GridReg r)
{
    return static_cast<std::size_t>(r);
}

} // namespace

TEST(VerifyStructure, InflatedGateCountFlagged)
{
    VerifyReport report = verifyTampered(
        +[](PolicySnapshot &snap, Machine &) {
            snap.regs[idx(GridReg::GateNr)] += 1;
        });
    EXPECT_GE(report.violations(), 1u);
}

TEST(VerifyStructure, BrokenTrustedMemoryGeometryFlagged)
{
    VerifyReport report = verifyTampered(
        +[](PolicySnapshot &snap, Machine &) {
            // Shrink the window to a non-power-of-two size.
            snap.regs[idx(GridReg::Tmeml)] =
                snap.reg(GridReg::Tmemb) + 12345;
        });
    EXPECT_TRUE(hasCheck(report, "tmem-geometry")) << report.text();
}

TEST(VerifyStructure, DisabledTrustedMemoryFlagged)
{
    VerifyReport report = verifyTampered(
        +[](PolicySnapshot &snap, Machine &) {
            snap.regs[idx(GridReg::Tmemb)] = 0;
            snap.regs[idx(GridReg::Tmeml)] = 0;
        });
    EXPECT_TRUE(hasCheck(report, "tmem-disabled")) << report.text();
}

TEST(VerifyStructure, SgtOutsideTrustedMemoryFlagged)
{
    VerifyReport report = verifyTampered(
        +[](PolicySnapshot &snap, Machine &) {
            snap.regs[idx(GridReg::GateAddr)] = 0x1000; // guest-writable
        });
    EXPECT_TRUE(hasCheck(report, "table-outside-tmem"))
        << report.text();
}

TEST(VerifyStructure, CorruptedGateDestinationFlagged)
{
    VerifyReport report = verifyTampered(
        +[](PolicySnapshot &snap, Machine &machine) {
            // Redirect gate 0's dest_addr into the middle of nowhere.
            Addr entry =
                sgtEntryAddr(snap.reg(GridReg::GateAddr), 0);
            machine.mem().write64(entry + 8, 0x5);
        });
    EXPECT_GE(report.violations(), 1u);
}

TEST(VerifyStructure, GateDestDomainOutOfRangeFlagged)
{
    VerifyReport report = verifyTampered(
        +[](PolicySnapshot &snap, Machine &machine) {
            Addr entry =
                sgtEntryAddr(snap.reg(GridReg::GateAddr), 0);
            machine.mem().write64(entry + 16, 999);
        });
    EXPECT_TRUE(hasCheck(report, "gate-dest-domain")) << report.text();
}

// ---------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------

TEST(VerifyReportTest, JsonAndTextRenderCounts)
{
    PreparedAttack prepared =
        prepareAttack(attackScenarios(false).front(), false, true);
    VerifyReport report = verify(*prepared.machine, prepared.image);
    ASSERT_GE(report.violations(), 1u);

    std::string json = report.json();
    EXPECT_NE(json.find("\"violations\":"), std::string::npos);
    EXPECT_NE(json.find("\"findings\":["), std::string::npos);
    EXPECT_NE(json.find("\"severity\":\"violation\""),
              std::string::npos);

    std::string text = report.text();
    EXPECT_NE(text.find("violation"), std::string::npos);
    EXPECT_NE(text.find("violations,"), std::string::npos);
}

TEST(VerifyReportTest, MaxFindingsBoundsRecordingNotCounting)
{
    PreparedAttack prepared =
        prepareAttack(attackScenarios(true).front(), true, true);
    VerifyOptions options;
    options.max_findings = 0;
    PolicySnapshot snap =
        PolicySnapshot::fromPcu(prepared.machine->pcu());
    Verifier verifier(prepared.machine->isa(), prepared.machine->mem(),
                      snap, prepared.image.code_regions, options);
    VerifyReport report = verifier.run();
    EXPECT_TRUE(report.findings().empty());
    EXPECT_GE(report.violations(), 1u); // counts keep accumulating
    EXPECT_NE(report.text().find("not recorded"), std::string::npos);
}

TEST(VerifyReportTest, SeverityNames)
{
    EXPECT_STREQ(severityName(Severity::Violation), "violation");
    EXPECT_STREQ(severityName(Severity::Warning), "warning");
    EXPECT_STREQ(severityName(Severity::Lint), "lint");
}

// ---------------------------------------------------------------------
// ConstTracker: ALU copy-chain folding
// ---------------------------------------------------------------------

class ConstTrackerFolding : public ::testing::TestWithParam<bool>
{
};

INSTANTIATE_TEST_SUITE_P(Isas, ConstTrackerFolding, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "x86" : "riscv";
                         });

TEST_P(ConstTrackerFolding, AluCopyChainResolvesGateId)
{
    bool x86 = GetParam();
    auto machine = x86 ? Machine::gem5x86() : Machine::rocket();
    auto a = x86 ? makeX86Asm(0x1000) : makeRiscvAsm(0x1000);

    // The gate id 5 is only known by folding the whole chain: a
    // zeroing xor, an or-copy and a subtraction. Each of these used
    // to kill the destination register, leaving the hccall's gate id
    // unresolved for every downstream static analysis.
    a->li(a->regArg(1), 7);
    a->xor_(a->regGate(), a->regGate());
    a->or_(a->regGate(), a->regArg(1));
    a->li(a->regArg(2), 2);
    a->sub(a->regGate(), a->regArg(2));
    Addr gate_pc = a->here();
    a->hccall(a->regGate());
    a->loadInto(machine->mem());

    CodeRegion region{0x1000, a->here(), 1, "folded"};
    std::optional<RegVal> at_gate;
    walkRegion(machine->isa(), machine->mem(), region,
               [&](const ScanStep &step) {
                   if (step.pc == gate_pc)
                       at_gate = step.consts->value(step.inst->rs1);
               });
    ASSERT_TRUE(at_gate.has_value())
        << "gate id register did not resolve through the copy chain";
    EXPECT_EQ(*at_gate, 5u);
}
