/**
 * @file
 * Tests of the least-privilege inference and policy minimization
 * (src/verify/dataflow.hh, src/verify/minimize.hh).
 *
 * The acceptance criteria of the subsystem:
 *  - for every kernel-builder configuration on both prototypes the
 *    minimized policy is a semantic subset of the configured one;
 *  - a deliberately over-provisioned configuration loses at least one
 *    grant, with a finding naming the evidence;
 *  - differential validation: the attack corpus stays blocked and
 *    benign workloads behave identically under the minimized policy,
 *    and the minimized configuration still verifies and model-checks
 *    clean.
 */

#include <gtest/gtest.h>

#include "attacks/attacks.hh"
#include "kernel/kernel_builder.hh"
#include "kernel/layout.hh"
#include "modelcheck/modelcheck.hh"
#include "verify/dataflow.hh"
#include "verify/minimize.hh"
#include "verify/verify.hh"
#include "workloads/lmbench.hh"

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

MinimizeResult
minimize(BuiltKernel &built)
{
    Machine &m = *built.machine;
    PolicySnapshot snap = PolicySnapshot::fromPcu(m.pcu());
    PrivilegeInference inference(m.isa(), m.mem(), snap,
                                 built.image.code_regions);
    inference.addEntry(built.image.kernel_domain,
                       built.image.trap_entry);
    return minimizePolicy(m.isa(), m.mem(), snap, inference);
}

bool
hasCheck(const MinimizeResult &result, const std::string &check)
{
    for (const Finding &f : result.findings)
        if (f.check == check)
            return true;
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// Subset property across the configuration matrix
// ---------------------------------------------------------------------

struct MinprivCase
{
    const char *name;
    bool x86;
    KernelMode mode;
    bool tstacks;
    Cycle timer;
};

// gtest would print the raw bytes, pointers included, into the ctest
// name, which then changes with every load address. Print the name.
void PrintTo(const MinprivCase &c, std::ostream *os)
{
    *os << c.name;
}

class MinprivMatrix : public ::testing::TestWithParam<MinprivCase>
{
};

TEST_P(MinprivMatrix, MinimizedPolicyIsSubsetOfConfigured)
{
    const MinprivCase &c = GetParam();
    KernelConfig config;
    config.mode = c.mode;
    config.per_thread_tstack = c.tstacks;
    config.timer_interval = c.timer;
    BuiltKernel built = buildKernel(c.x86, config);
    MinimizeResult result = minimize(built);

    EXPECT_TRUE(result.subset) << result.text();
    // Reachable code keeps its grants: something must survive in any
    // decomposed configuration.
    if (c.mode != KernelMode::Monolithic)
        EXPECT_GE(result.kept_grants, 1u) << result.text();
    for (const Finding &f : result.findings)
        EXPECT_NE(f.severity, Severity::Violation) << result.text();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MinprivMatrix,
    ::testing::Values(
        MinprivCase{"rv_native", false, KernelMode::Monolithic, false,
                    0},
        MinprivCase{"rv_decomposed", false, KernelMode::Decomposed,
                    false, 0},
        MinprivCase{"rv_nested", false, KernelMode::NestedMonitor,
                    false, 0},
        MinprivCase{"rv_tstacks_timer", false, KernelMode::Decomposed,
                    true, 10'000},
        MinprivCase{"x86_native", true, KernelMode::Monolithic, false,
                    0},
        MinprivCase{"x86_decomposed", true, KernelMode::Decomposed,
                    false, 0},
        MinprivCase{"x86_nested", true, KernelMode::NestedMonitor,
                    false, 0},
        MinprivCase{"x86_tstacks_timer", true, KernelMode::Decomposed,
                    true, 10'000}),
    [](const auto &info) { return info.param.name; });

// ---------------------------------------------------------------------
// Over-provisioned configurations lose grants
// ---------------------------------------------------------------------

class MinprivOvergrants : public ::testing::TestWithParam<bool>
{
};

INSTANTIATE_TEST_SUITE_P(Isas, MinprivOvergrants, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "x86" : "riscv";
                         });

TEST_P(MinprivOvergrants, OverprovisionedGrantsAreRemoved)
{
    bool x86 = GetParam();
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    BuiltKernel base = buildKernel(x86, config);
    MinimizeResult base_result = minimize(base);

    config.overprovision = true;
    BuiltKernel over = buildKernel(x86, config);
    MinimizeResult over_result = minimize(over);

    // The drifted configuration must lose strictly more than the
    // shipped one, and the never-executed instruction grant (wfi /
    // wbinvd) must be among the removals.
    EXPECT_GT(over_result.overgrants, base_result.overgrants)
        << over_result.text();
    EXPECT_TRUE(hasCheck(over_result, "overgrant-inst"))
        << over_result.text();
    EXPECT_TRUE(over_result.subset);
}

TEST(MinprivOvergrantsRiscv, ShippedConfigHasUnusedTrapCsrs)
{
    // The decomposed RISC-V kernel grants SSCRATCH and STVAL to the
    // kernel domain but the emitted handler never touches them — the
    // inference must catch the drift in the shipped configuration.
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    BuiltKernel built = buildKernel(false, config);
    MinimizeResult result = minimize(built);
    EXPECT_GE(result.overgrants, 1u);
    EXPECT_TRUE(hasCheck(result, "overgrant-csr-read"))
        << result.text();
}

// ---------------------------------------------------------------------
// Differential validation
// ---------------------------------------------------------------------

namespace {

AttackOutcome
replayAttack(PreparedAttack &prepared, bool minimize_policy)
{
    Machine &machine = *prepared.machine;
    if (minimize_policy) {
        PolicySnapshot snap = PolicySnapshot::fromPcu(machine.pcu());
        PrivilegeInference inference(machine.isa(), machine.mem(),
                                     snap,
                                     prepared.image.code_regions);
        inference.addEntry(prepared.image.kernel_domain,
                           prepared.image.trap_entry);
        inference.addEntry(prepared.payload_domain,
                           prepared.payload_entry);
        MinimizeResult result =
            minimizePolicy(machine.isa(), machine.mem(), snap,
                           inference);
        applyMinimizedPolicy(machine.isa(), machine.mem(), snap,
                             result, &machine.pcu());
    }
    machine.core().reset(prepared.payload_entry);
    machine.pcu().setGridReg(GridReg::Domain, prepared.payload_domain);
    RunResult r = machine.core().run(100'000);
    AttackOutcome outcome;
    outcome.reached_halt = r.reason == StopReason::Halted;
    outcome.blocked = r.reason == StopReason::UnhandledFault;
    outcome.fault = r.fault;
    return outcome;
}

} // namespace

class MinprivDifferential : public ::testing::TestWithParam<bool>
{
};

INSTANTIATE_TEST_SUITE_P(Isas, MinprivDifferential, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "x86" : "riscv";
                         });

TEST_P(MinprivDifferential, AttackCorpusStaysBlocked)
{
    bool x86 = GetParam();
    for (const AttackScenario &s : attackScenarios(x86)) {
        PreparedAttack base = prepareAttack(s, x86, true);
        AttackOutcome before = replayAttack(base, false);
        PreparedAttack mini = prepareAttack(s, x86, true);
        AttackOutcome after = replayAttack(mini, true);
        EXPECT_EQ(before.blocked, after.blocked) << s.name;
        EXPECT_EQ(before.reached_halt, after.reached_halt) << s.name;
    }
}

TEST_P(MinprivDifferential, BenignWorkloadBehavesIdentically)
{
    bool x86 = GetParam();
    RunResult results[2];
    for (bool minimized : {false, true}) {
        auto machine = x86 ? Machine::gem5x86() : Machine::rocket();
        Addr entry = buildLmbenchSuite(*machine, 10);
        KernelConfig config;
        config.mode = KernelMode::Decomposed;
        config.minimize_policy = minimized;
        KernelBuilder builder(*machine, config);
        KernelImage image = builder.build(entry);
        results[minimized] = machine->run(image.boot_pc);
    }
    EXPECT_EQ(results[0].reason, results[1].reason);
    EXPECT_EQ(results[0].halt_code, results[1].halt_code);
    EXPECT_EQ(results[0].fault, results[1].fault);
    EXPECT_EQ(results[0].instructions, results[1].instructions);
}

TEST_P(MinprivDifferential, VerifierAndModelCheckerStayClean)
{
    bool x86 = GetParam();
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    config.minimize_policy = true;
    BuiltKernel built = buildKernel(x86, config);

    PolicySnapshot snap =
        PolicySnapshot::fromPcu(built.machine->pcu());
    Verifier verifier(built.machine->isa(), built.machine->mem(),
                      snap, built.image.code_regions);
    VerifyReport report = verifier.run();
    EXPECT_EQ(report.violations(), 0u) << report.text();

    McOptions options;
    options.depth_bound = 4;
    ModelChecker checker(built.machine->isa(), built.machine->mem(),
                         snap, built.image.code_regions, 0, options);
    McResult mc = checker.run();
    EXPECT_EQ(mc.violations(), 0u);
}

TEST(MinprivKernelHook, MinimizedKernelStillBootsAndHalts)
{
    for (bool x86 : {false, true}) {
        KernelConfig config;
        config.mode = KernelMode::Decomposed;
        config.minimize_policy = true;
        BuiltKernel built = buildKernel(x86, config);
        RunResult r = built.machine->run(built.image.boot_pc);
        EXPECT_EQ(r.reason, StopReason::Halted) << (x86 ? "x86" : "rv");
        EXPECT_EQ(r.halt_code, 0u);
    }
}

// ---------------------------------------------------------------------
// Inference internals observable through the public surface
// ---------------------------------------------------------------------

TEST(MinprivInference, EntrySeedsCoverGatesAndTrapVector)
{
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    BuiltKernel built = buildKernel(false, config);
    PolicySnapshot snap =
        PolicySnapshot::fromPcu(built.machine->pcu());
    PrivilegeInference inference(built.machine->isa(),
                                 built.machine->mem(), snap,
                                 built.image.code_regions);
    inference.addEntry(built.image.kernel_domain,
                       built.image.trap_entry);
    inference.run();

    // Every SGT destination plus the explicit trap entry is a seed.
    PolicyView view(built.machine->isa(), built.machine->mem(), snap);
    EXPECT_EQ(inference.entries().size(),
              static_cast<std::size_t>(view.numGates()) + 1);

    // The trap path is reachable: the kernel domain consumes the
    // trap-cause CSR, which only the trap handler reads.
    auto it = inference.needs().find(built.image.kernel_domain);
    ASSERT_NE(it, inference.needs().end());
    EXPECT_FALSE(it->second.csr_reads.empty());
    EXPECT_FALSE(it->second.inst_types.empty());
}

TEST(MinprivInference, RunIsIdempotent)
{
    KernelConfig config;
    config.mode = KernelMode::Decomposed;
    BuiltKernel built = buildKernel(false, config);
    PolicySnapshot snap =
        PolicySnapshot::fromPcu(built.machine->pcu());
    PrivilegeInference inference(built.machine->isa(),
                                 built.machine->mem(), snap,
                                 built.image.code_regions);
    inference.run();
    auto needs_first = inference.needs();
    inference.run();
    EXPECT_EQ(needs_first.size(), inference.needs().size());
}
