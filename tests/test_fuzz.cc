/**
 * @file
 * isagrid-fuzz: determinism, cross-oracle agreement on the committed
 * corpus, and regressions for the tool bugs the fuzzer found.
 *
 * The three regression families (all discovered by differential
 * fuzzing, all fixed in the responsible tool, not papered over in the
 * harness):
 *
 *  1. the model checker synthesized CSR-write transitions for domains
 *     whose instruction-type grants cannot execute any CSR write, so
 *     its counterexamples faulted isagrid-inst-privilege on replay;
 *  2. the model checker expected a gate-fault from an injected
 *     hccall even when the domain's instruction bitmap denies the
 *     gate instruction itself (the PCU checks the type bitmap first);
 *  3. both execution engines' data-access bounds check computed
 *     `addr + size > mem.size()` and wrapped for addresses near 2^64,
 *     letting a wild store reach the backing store (host panic)
 *     instead of raising a memory fault.
 *
 * The committed corpus under tests/data/fuzz_corpus/ holds the
 * minimized trigger configurations; regenerate deliberately with
 * ISAGRID_REGEN_GOLDEN=1 after changing the kernel or attack images.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "fuzz/fuzz.hh"
#include "isagrid/hpt.hh"
#include "kernel/asm_iface.hh"

using namespace isagrid;

namespace {

std::string
corpusDir()
{
    return std::string(TEST_DATA_DIR) + "/fuzz_corpus";
}

InstTypeId
typeIdByName(const IsaModel &isa, std::string_view name)
{
    for (InstTypeId t = 0; t < isa.numInstTypes(); ++t) {
        if (isa.instTypeName(t) == name)
            return t;
    }
    return invalidInstType;
}

/** The serialized whole-campaign output (report + corpus bytes). */
std::string
campaignBytes(const FuzzResult &result)
{
    std::string out = result.json();
    out += '\n';
    for (const FuzzArtifact &a : result.corpus)
        out += a.serialize();
    for (const FuzzFinding &f : result.findings)
        out += f.artifact.serialize();
    return out;
}

/**
 * Clear one instruction-type grant in the artifact's HPT image.
 * Returns false when the domain never had the bit (nothing revoked).
 */
bool
revokeInstType(FuzzArtifact &artifact, const IsaModel &isa,
               DomainId domain, InstTypeId type)
{
    if (type == invalidInstType)
        return false;
    HptLayout hpt(isa.numInstTypes(), isa.numControlledCsrs(),
                  isa.numMaskableCsrs());
    Addr addr = hpt.instWordAddr(artifact.snapshot.reg(GridReg::InstCap),
                                 domain, type / HptLayout::wordBits);
    std::uint64_t bit = 1ull << (type % HptLayout::wordBits);
    if ((artifact.read64(addr) & bit) == 0)
        return false;
    Mutation m;
    m.kind = MutationKind::PolicyFlip;
    m.addr = addr;
    m.a = bit;
    m.apply(artifact);
    return true;
}

/** Grant one extra bit in a domain's bit-mask array entry. */
void
grantMaskBit(FuzzArtifact &artifact, const IsaModel &isa,
             DomainId domain, CsrIndex index, std::uint64_t bit)
{
    HptLayout hpt(isa.numInstTypes(), isa.numControlledCsrs(),
                  isa.numMaskableCsrs());
    Mutation m;
    m.kind = MutationKind::MaskFlip;
    m.addr = hpt.maskAddr(artifact.snapshot.reg(GridReg::CsrBitMask),
                          domain, index);
    m.a = bit;
    m.apply(artifact);
}

/** The attack-scenario seeds (payload-positioned, payload domain). */
std::vector<FuzzArtifact>
attackSeeds(bool x86)
{
    std::vector<FuzzArtifact> seeds = builtinSeeds(x86);
    std::erase_if(seeds, [](const FuzzArtifact &a) {
        return a.startsAtReset();
    });
    return seeds;
}

/**
 * Regression 1 trigger: a payload domain gains a mask grant while its
 * instruction grants cannot execute any CSR write — the checker must
 * not claim CSR-write reachability it cannot witness.
 */
FuzzArtifact
maskedWriteTrigger(bool x86, const IsaModel &isa)
{
    std::vector<FuzzArtifact> seeds = attackSeeds(x86);
    for (FuzzArtifact &seed : seeds) {
        DomainId d = seed.analysisDomain();
        if (d == 0 || d >= seed.snapshot.reg(GridReg::DomainNr))
            continue;
        if (isa.numMaskableCsrs() == 0)
            continue;
        grantMaskBit(seed, isa, d, 0, 0x100000);
        revokeInstType(seed, isa,
                       d, typeIdByName(isa, x86 ? "wrmsr" : "csrrw"));
        seed.name = std::string(x86 ? "x86" : "riscv") +
                    "-masked-write-type-revoked";
        return seed;
    }
    ADD_FAILURE() << "no attack seed with a payload domain";
    return {};
}

/**
 * Regression 2 trigger: the payload domain's hccall type bit is
 * revoked, so every modelled gate traversal — registered or injected —
 * must expect an inst-privilege fault, not a gate fault.
 */
FuzzArtifact
injectedGateTrigger(bool x86, const IsaModel &isa)
{
    std::vector<FuzzArtifact> seeds = attackSeeds(x86);
    for (FuzzArtifact &seed : seeds) {
        DomainId d = seed.analysisDomain();
        if (d == 0 || d >= seed.snapshot.reg(GridReg::DomainNr))
            continue;
        if (!revokeInstType(seed, isa, d, typeIdByName(isa, "hccall")))
            continue;
        seed.name = std::string(x86 ? "x86" : "riscv") +
                    "-injected-gate-type-revoked";
        return seed;
    }
    ADD_FAILURE() << "no attack seed grants hccall to its payload";
    return {};
}

} // namespace

class FuzzBothIsas : public ::testing::TestWithParam<bool>
{
};

INSTANTIATE_TEST_SUITE_P(Isas, FuzzBothIsas,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "x86" : "riscv";
                         });

TEST_P(FuzzBothIsas, BuiltinSeedsAgreeAcrossAllOracles)
{
    FuzzOptions options;
    options.x86 = GetParam();
    options.seeds_only = true;
    options.contract_stride = 4;
    FuzzResult result = runFuzz(options);
    EXPECT_TRUE(result.clean()) << result.text();
    EXPECT_GT(result.stats.seeds, 0u);
    EXPECT_GT(result.stats.contract_runs, 0u);
}

TEST_P(FuzzBothIsas, CampaignIsDeterministicAcrossJobsAndRuns)
{
    FuzzOptions options;
    options.x86 = GetParam();
    options.seed = 5;
    options.max_iters = 16;
    options.contract_stride = 8;

    options.jobs = 1;
    std::string serial = campaignBytes(runFuzz(options));
    options.jobs = 3;
    std::string threaded = campaignBytes(runFuzz(options));
    std::string threaded_again = campaignBytes(runFuzz(options));

    EXPECT_EQ(serial, threaded)
        << "worker count changed campaign output";
    EXPECT_EQ(threaded, threaded_again)
        << "identical options produced different campaign output";
}

TEST_P(FuzzBothIsas, RevokedCsrWriteTypeKeepsOraclesAgreeing)
{
    // Regression 1 (sweep form): every attack seed, payload domain
    // given a mask grant its instruction grants cannot use.
    bool x86 = GetParam();
    std::unique_ptr<Machine> probe = builtinSeeds(x86).front().restore();
    const IsaModel &isa = probe->isa();
    if (isa.numMaskableCsrs() == 0)
        GTEST_SKIP() << "no maskable CSRs on this ISA";
    for (FuzzArtifact &seed : attackSeeds(x86)) {
        DomainId d = seed.analysisDomain();
        if (d == 0 || d >= seed.snapshot.reg(GridReg::DomainNr))
            continue;
        grantMaskBit(seed, isa, d, 0, 0x100000);
        revokeInstType(seed, isa,
                       d, typeIdByName(isa, x86 ? "wrmsr" : "csrrw"));
        OracleOutcome outcome = runOracles(seed);
        EXPECT_TRUE(outcome.agree()) << seed.name << ": " <<
            (outcome.disagreements.empty()
                 ? std::string()
                 : outcome.disagreements.front().invariant + ": " +
                       outcome.disagreements.front().detail);
    }
}

TEST_P(FuzzBothIsas, RevokedGateTypeKeepsOraclesAgreeing)
{
    // Regression 2 (sweep form): every attack seed whose payload
    // domain held the hccall type bit loses it.
    bool x86 = GetParam();
    std::unique_ptr<Machine> probe = builtinSeeds(x86).front().restore();
    const IsaModel &isa = probe->isa();
    for (FuzzArtifact &seed : attackSeeds(x86)) {
        DomainId d = seed.analysisDomain();
        if (d == 0 || d >= seed.snapshot.reg(GridReg::DomainNr))
            continue;
        if (!revokeInstType(seed, isa, d, typeIdByName(isa, "hccall")))
            continue;
        OracleOutcome outcome = runOracles(seed);
        EXPECT_TRUE(outcome.agree()) << seed.name << ": " <<
            (outcome.disagreements.empty()
                 ? std::string()
                 : outcome.disagreements.front().invariant + ": " +
                       outcome.disagreements.front().detail);
    }
}

TEST_P(FuzzBothIsas, WildAddressAccessFaultsInsteadOfCrashing)
{
    // Regression 3: a load/store whose address wraps past 2^64 must
    // raise a memory fault on both engines, never reach the backing
    // store. Pre-fix this panicked the host process.
    bool x86 = GetParam();
    FuzzArtifact seed = builtinSeeds(x86).front();
    for (bool block_engine : {false, true}) {
        for (bool store : {false, true}) {
            std::unique_ptr<Machine> machine =
                seed.restore(block_engine);
            constexpr Addr entry = 0x70000;
            auto asm_ =
                x86 ? makeX86Asm(entry) : makeRiscvAsm(entry);
            asm_->li(asm_->regTmp(0), ~Addr{0} - 7);
            asm_->li(asm_->regTmp(1), 0x1234);
            if (store) {
                asm_->store64(asm_->regTmp(1), asm_->regTmp(0), 0);
            } else {
                asm_->load64(asm_->regTmp(1), asm_->regTmp(0), 0);
            }
            asm_->li(asm_->regTmp(2), 0x5a);
            asm_->halt(asm_->regTmp(2));
            asm_->loadInto(machine->mem());
            machine->core().reset(entry);
            RunResult run = machine->core().run(16);
            EXPECT_EQ(run.reason, StopReason::UnhandledFault)
                << (store ? "store" : "load")
                << (block_engine ? " (block engine)" : " (interp)");
            EXPECT_EQ(run.fault, FaultType::MemoryFault);
        }
    }
}

TEST_P(FuzzBothIsas, OffBusGridRegisterFaultsInsteadOfCrashing)
{
    // Regression: a guest-written inst-cap pointing past physical
    // memory. Every PCU table walk must raise MemoryFault identically
    // on both engines, and the oracles must run to completion with
    // the layout reported as a finding. Pre-fix the PCU's table read
    // (and minpriv's policy write-back) panicked the host.
    bool x86 = GetParam();
    std::string path = corpusDir() + "/" + (x86 ? "x86" : "riscv") +
                       "-masked-write-type-revoked.art";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing corpus file " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    FuzzArtifact artifact;
    std::string error;
    ASSERT_TRUE(FuzzArtifact::parse(buf.str(), artifact, error)) << error;
    artifact.snapshot.regs[static_cast<std::size_t>(GridReg::InstCap)] =
        0x7ffffffff000;

    RunResult runs[2];
    for (bool block_engine : {false, true}) {
        std::unique_ptr<Machine> machine = artifact.restore(block_engine);
        artifact.position(*machine);
        runs[block_engine] = machine->core().run(2000);
        EXPECT_GT(machine->core().faultsTaken(FaultType::MemoryFault), 0u)
            << (block_engine ? "block engine" : "interpreter");
    }
    EXPECT_EQ(runs[0].reason, runs[1].reason);
    EXPECT_EQ(runs[0].fault, runs[1].fault);
    EXPECT_EQ(runs[0].instructions, runs[1].instructions);
    EXPECT_EQ(runs[0].cycles, runs[1].cycles);

    OracleOutcome outcome = runOracles(artifact, OracleOptions{});
    const auto &checks = outcome.finding_checks;
    for (const char *check : {"table-outside-memory", "table-outside-tmem"})
        EXPECT_NE(std::find(checks.begin(), checks.end(), check),
                  checks.end())
            << check;
}

TEST_P(FuzzBothIsas, CommittedTriggersMatchGoldenFilesAndAgree)
{
    bool x86 = GetParam();
    std::unique_ptr<Machine> probe = builtinSeeds(x86).front().restore();
    const IsaModel &isa = probe->isa();
    std::vector<FuzzArtifact> triggers = {
        maskedWriteTrigger(x86, isa),
        injectedGateTrigger(x86, isa),
    };

    if (std::getenv("ISAGRID_REGEN_GOLDEN")) {
        std::filesystem::create_directories(corpusDir());
        for (const FuzzArtifact &t : triggers) {
            std::string path = corpusDir() + "/" + t.name + ".art";
            std::ofstream out(path);
            ASSERT_TRUE(out) << "cannot write " << path;
            out << t.serialize();
        }
        GTEST_SKIP() << "fuzz corpus regenerated in " << corpusDir();
    }

    for (const FuzzArtifact &t : triggers) {
        std::string path = corpusDir() + "/" + t.name + ".art";
        std::ifstream in(path);
        ASSERT_TRUE(in) << "missing corpus file " << path
                        << " (run once with ISAGRID_REGEN_GOLDEN=1)";
        std::stringstream buf;
        buf << in.rdbuf();
        EXPECT_EQ(buf.str(), t.serialize())
            << t.name << " drifted from the committed trigger; if the "
            << "kernel or attack images changed intentionally, "
            << "regenerate with ISAGRID_REGEN_GOLDEN=1 and commit";
    }
}

TEST(FuzzCorpus, EveryCommittedArtifactLoadsAndAgrees)
{
    if (std::getenv("ISAGRID_REGEN_GOLDEN"))
        GTEST_SKIP() << "regenerating";
    std::vector<std::filesystem::path> files;
    ASSERT_TRUE(std::filesystem::is_directory(corpusDir()))
        << corpusDir() << " missing";
    for (const auto &e :
         std::filesystem::directory_iterator(corpusDir())) {
        if (e.path().extension() == ".art")
            files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());
    for (const auto &path : files) {
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();
        FuzzArtifact artifact;
        std::string error;
        ASSERT_TRUE(FuzzArtifact::parse(buf.str(), artifact, error))
            << path << ": " << error;
        OracleOptions oracle;
        oracle.run_contract = true;
        OracleOutcome outcome = runOracles(artifact, oracle);
        EXPECT_TRUE(outcome.agree()) << path << ": " <<
            (outcome.disagreements.empty()
                 ? std::string()
                 : outcome.disagreements.front().invariant + ": " +
                       outcome.disagreements.front().detail);
    }
}

/**
 * Which checks fire is locked at the coverage-key level: the key of
 * every committed corpus artifact (every analyzer's check names and
 * mc's state bucket) and the retained count and keys of a fixed-seed
 * campaign per ISA (the seed-1, 48-case campaign whose counters the
 * fuzz-mix benchmark pins). A change to any analyzer's findings shows
 * here as a diff, not only as a benchmark mismatch. Regenerate with
 * ISAGRID_REGEN_GOLDEN=1 after an intended change and commit the diff.
 */
TEST(FuzzCorpus, CoverageKeysMatchGolden)
{
    std::vector<std::filesystem::path> files;
    for (const auto &e :
         std::filesystem::directory_iterator(corpusDir())) {
        if (e.path().extension() == ".art")
            files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    ASSERT_EQ(files.size(), 12u);

    std::string got;
    for (const auto &path : files) {
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();
        FuzzArtifact artifact;
        std::string error;
        ASSERT_TRUE(FuzzArtifact::parse(buf.str(), artifact, error))
            << path << ": " << error;
        OracleOptions oracle;
        oracle.run_contract = true;
        got += path.filename().string() + " " +
               runOracles(artifact, oracle).coverageKey() + "\n";
    }
    for (bool x86 : {false, true}) {
        FuzzOptions options;
        options.x86 = x86;
        options.seed = 1;
        options.max_iters = 48;
        FuzzResult result = runFuzz(options);
        const std::string isa = x86 ? "x86" : "riscv";
        got += "campaign " + isa + " seed 1 cases " +
               std::to_string(result.stats.cases) + " retained " +
               std::to_string(result.stats.retained) + " coverage_keys " +
               std::to_string(result.coverage.size()) + "\n";
        for (const std::string &key : result.coverage)
            got += isa + " " + key + "\n";
    }

    const std::string golden =
        std::string(TEST_DATA_DIR) + "/coverage_keys.golden.txt";
    if (std::getenv("ISAGRID_REGEN_GOLDEN")) {
        std::ofstream out(golden);
        ASSERT_TRUE(out) << "cannot write " << golden;
        out << got;
        GTEST_SKIP() << "regenerated " << golden;
    }
    std::ifstream in(golden);
    ASSERT_TRUE(in) << "missing " << golden
                    << " (run once with ISAGRID_REGEN_GOLDEN=1)";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "coverage keys drifted: an analyzer's findings changed; if "
           "intended, regenerate with ISAGRID_REGEN_GOLDEN=1 and commit";
}
