/**
 * @file
 * Table 1 reproduction: every ISA-abuse-based attack succeeds natively
 * and is blocked by ISA-Grid with the right hardware exception.
 */

#include <gtest/gtest.h>

#include "attacks/attacks.hh"

using namespace isagrid;

class Attacks : public ::testing::TestWithParam<std::tuple<bool, int>>
{
};

namespace {

/** (is_x86, index) for every scenario of both ISAs — no empty slots. */
std::vector<std::tuple<bool, int>>
allScenarios()
{
    std::vector<std::tuple<bool, int>> params;
    for (bool is_x86 : {false, true}) {
        for (int i = 0; i < int(attackScenarios(is_x86).size()); ++i)
            params.emplace_back(is_x86, i);
    }
    return params;
}

} // namespace

TEST(AttackTable, ScenarioCountsPerIsa)
{
    // Adding a scenario must be a visible change to this table.
    EXPECT_EQ(attackScenarios(false).size(), 10u);
    EXPECT_EQ(attackScenarios(true).size(), 17u);
}

TEST_P(Attacks, BlockedWithIsaGridSucceedsNatively)
{
    bool is_x86 = std::get<0>(GetParam());
    int index = std::get<1>(GetParam());
    auto scenarios = attackScenarios(is_x86);
    const AttackScenario &s = scenarios.at(index);

    AttackOutcome guarded = runAttack(s, is_x86, true);
    EXPECT_TRUE(guarded.blocked)
        << s.name << ": not blocked under ISA-Grid";
    EXPECT_FALSE(guarded.reached_halt) << s.name;

    if (!s.requires_isagrid) {
        AttackOutcome native = runAttack(s, is_x86, false);
        EXPECT_TRUE(native.reached_halt)
            << s.name << ": prerequisite failed natively (fault "
            << faultName(native.fault) << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, Attacks, ::testing::ValuesIn(allScenarios()),
    [](const auto &info) {
        bool is_x86 = std::get<0>(info.param);
        int index = std::get<1>(info.param);
        auto scenarios = attackScenarios(is_x86);
        std::string name = is_x86 ? "x86_" : "riscv_";
        for (char c : scenarios.at(index).name)
            name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
        return name;
    });

TEST(AttackFaults, ExpectedFaultTypes)
{
    // Spot-check the exception classes of representative rows.
    auto x86_scenarios = attackScenarios(true);
    auto find = [&](const std::string &needle) -> const AttackScenario & {
        for (const auto &s : x86_scenarios)
            if (s.name.find(needle) != std::string::npos)
                return s;
        ADD_FAILURE() << needle << " not found";
        return x86_scenarios.front();
    };

    // Voltage attack: register bitmap rejection.
    EXPECT_EQ(runAttack(find("V0LTpwn"), true, true).fault,
              FaultType::CsrPrivilege);
    // CR0.CD: bit-mask equation rejection.
    EXPECT_EQ(runAttack(find("Stealthy"), true, true).fault,
              FaultType::CsrMaskViolation);
    // Hidden out: instruction bitmap rejection.
    EXPECT_EQ(runAttack(find("Unintended"), true, true).fault,
              FaultType::InstPrivilege);
    // Forged gate: gate property (i).
    EXPECT_EQ(runAttack(find("Forged"), true, true).fault,
              FaultType::GateFault);
    // hcrets without a call: trusted-stack bounds.
    EXPECT_EQ(runAttack(find("hcrets"), true, true).fault,
              FaultType::TrustedStackFault);
}
