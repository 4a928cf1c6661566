/**
 * @file
 * Privilege Check Unit tests: the hybrid-grained check engine, the
 * privilege caches (hits, misses, LRU, flush, prefetch, bypass), the
 * Table 2 register access rules and the trusted-memory wiring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "isa/riscv/riscv_isa.hh"
#include "isa/x86/x86_isa.hh"
#include "isagrid/domain_manager.hh"
#include "isagrid/pcu.hh"
#include "isagrid/policy_view.hh"
#include "isagrid/privilege_set.hh"
#include "mem/phys_mem.hh"
#include "sim/random.hh"

using namespace isagrid;
using namespace isagrid::riscv;

namespace {

/** A PCU over real guest memory with a domain-0 runtime. */
struct PcuEnv
{
    explicit PcuEnv(PcuConfig config = PcuConfig::config8E())
        : mem(16 * 1024 * 1024), pcu(isa, mem, config),
          dm(pcu, mem, dmConfig())
    {
    }

    static DomainManagerConfig
    dmConfig()
    {
        DomainManagerConfig c;
        c.tmem_base = 8 * 1024 * 1024;
        c.tmem_size = 1024 * 1024;
        return c;
    }

    void
    enter(DomainId domain)
    {
        pcu.setGridReg(GridReg::Domain, domain);
        pcu.flushBuffers(PcuBuffer::InstCache); // reset bypass register
    }

    RiscvIsa isa;
    PhysMem mem;
    PrivilegeCheckUnit pcu;
    DomainManager dm;
};

} // namespace

TEST(Pcu, Domain0HasAllPrivileges)
{
    PcuEnv env;
    EXPECT_EQ(env.pcu.currentDomain(), 0u);
    for (InstTypeId t = 0; t < env.isa.numInstTypes(); ++t)
        EXPECT_TRUE(env.pcu.checkInstruction(t).allowed);
    EXPECT_TRUE(env.pcu.checkCsrRead(CSR_SATP).allowed);
    EXPECT_TRUE(env.pcu.checkCsrWrite(CSR_SATP, 0, ~0ull).allowed);
}

TEST(Pcu, FreshDomainHasNoPrivileges)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.publish();
    env.enter(d);
    CheckOutcome out = env.pcu.checkInstruction(IT_ADD);
    EXPECT_FALSE(out.allowed);
    EXPECT_EQ(out.fault, FaultType::InstPrivilege);
    out = env.pcu.checkCsrRead(CSR_SEPC);
    EXPECT_FALSE(out.allowed);
    EXPECT_EQ(out.fault, FaultType::CsrPrivilege);
}

TEST(Pcu, InstructionGrantIsPerType)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.allowInstruction(d, IT_ADD);
    env.dm.allowInstruction(d, IT_HALT);
    env.dm.publish();
    env.enter(d);
    EXPECT_TRUE(env.pcu.checkInstruction(IT_ADD).allowed);
    EXPECT_TRUE(env.pcu.checkInstruction(IT_HALT).allowed);
    EXPECT_FALSE(env.pcu.checkInstruction(IT_SUB).allowed);
    EXPECT_FALSE(env.pcu.checkInstruction(IT_SFENCE_VMA).allowed);
}

TEST(Pcu, RevokeInstructionTakesEffectAfterPublish)
{
    PcuEnv env;
    DomainId d = env.dm.createBaselineDomain();
    env.dm.publish();
    env.enter(d);
    EXPECT_TRUE(env.pcu.checkInstruction(IT_ADD).allowed);
    env.dm.revokeInstruction(d, IT_ADD);
    // Stale caches still allow (hardware caches are not snooped)...
    EXPECT_TRUE(env.pcu.checkInstruction(IT_ADD).allowed);
    // ...until domain-0 software flushes them (pflh).
    env.dm.publish();
    env.enter(d);
    EXPECT_FALSE(env.pcu.checkInstruction(IT_ADD).allowed);
}

TEST(Pcu, ReadAndWriteBitsAreIndependent)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.allowCsrRead(d, CSR_SEPC);
    env.dm.allowCsrWrite(d, CSR_SSCRATCH);
    env.dm.publish();
    env.enter(d);
    EXPECT_TRUE(env.pcu.checkCsrRead(CSR_SEPC).allowed);
    EXPECT_FALSE(env.pcu.checkCsrWrite(CSR_SEPC, 0, 1).allowed);
    EXPECT_FALSE(env.pcu.checkCsrRead(CSR_SSCRATCH).allowed);
    EXPECT_TRUE(env.pcu.checkCsrWrite(CSR_SSCRATCH, 0, 1).allowed);
}

TEST(Pcu, UncontrolledCsrIsOutOfScope)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.publish();
    env.enter(d);
    // 0x9999 is not in the controlled list: ISA-Grid does not police it
    // (the classical privilege level still applies in the core).
    EXPECT_TRUE(env.pcu.checkCsrRead(0x9999).allowed);
    EXPECT_TRUE(env.pcu.checkCsrWrite(0x9999, 0, 1).allowed);
}

TEST(Pcu, MaskPermitsOnlyMaskedBits)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.setCsrMask(d, CSR_SSTATUS, SSTATUS_SIE | SSTATUS_SPIE);
    env.dm.publish();
    env.enter(d);
    RegVal old = SSTATUS_SPP;
    // Toggling SIE: allowed by the mask.
    EXPECT_TRUE(
        env.pcu.checkCsrWrite(CSR_SSTATUS, old, old | SSTATUS_SIE)
            .allowed);
    // Clearing SPP: not masked.
    CheckOutcome out = env.pcu.checkCsrWrite(CSR_SSTATUS, old, 0);
    EXPECT_FALSE(out.allowed);
    EXPECT_EQ(out.fault, FaultType::CsrMaskViolation);
    // A no-change write always passes the equation.
    EXPECT_TRUE(env.pcu.checkCsrWrite(CSR_SSTATUS, old, old).allowed);
}

TEST(Pcu, FullWriteBitOverridesMask)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.allowCsrWrite(d, CSR_SSTATUS); // full write privilege
    env.dm.publish();
    env.enter(d);
    EXPECT_TRUE(env.pcu.checkCsrWrite(CSR_SSTATUS, 0, ~0ull).allowed);
}

TEST(Pcu, NonMaskableCsrWithoutWriteBitFaults)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.publish();
    env.enter(d);
    CheckOutcome out = env.pcu.checkCsrWrite(CSR_SATP, 0, 0);
    EXPECT_FALSE(out.allowed);
    EXPECT_EQ(out.fault, FaultType::CsrPrivilege);
}

TEST(Pcu, DomainsAreIsolatedFromEachOther)
{
    PcuEnv env;
    DomainId d1 = env.dm.createDomain();
    DomainId d2 = env.dm.createDomain();
    env.dm.allowInstruction(d1, IT_ADD);
    env.dm.allowCsrRead(d2, CSR_SEPC);
    env.dm.publish();

    env.enter(d1);
    EXPECT_TRUE(env.pcu.checkInstruction(IT_ADD).allowed);
    EXPECT_FALSE(env.pcu.checkCsrRead(CSR_SEPC).allowed);

    env.enter(d2);
    EXPECT_FALSE(env.pcu.checkInstruction(IT_ADD).allowed);
    EXPECT_TRUE(env.pcu.checkCsrRead(CSR_SEPC).allowed);
}

// ---------------------------------------------------------------------
// Privilege caches
// ---------------------------------------------------------------------

TEST(PcuCaches, MissThenHitWithLatency)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.allowCsrRead(d, CSR_SEPC);
    env.dm.publish();
    env.enter(d);

    CheckOutcome first = env.pcu.checkCsrRead(CSR_SEPC);
    EXPECT_TRUE(first.allowed);
    EXPECT_GT(first.stall, 0u) << "cold miss must pay a memory access";
    CheckOutcome second = env.pcu.checkCsrRead(CSR_SEPC);
    EXPECT_EQ(second.stall, 0u) << "hit incurs no extra cycles";
    EXPECT_EQ(env.pcu.regCache().misses(), 1u);
    EXPECT_EQ(env.pcu.regCache().hits(), 1u);
}

TEST(PcuCaches, TagsNeverAliasAcrossDomainIndexPairs)
{
    // Regression: the tag used to pack the index into 16 bits, so
    // (domain, index) and (domain + 1, index - 65536) shared a tag and
    // a privilege-cache hit could answer for the wrong domain.
    EXPECT_NE(PrivilegeCheckUnit::tagOf(1, 0),
              PrivilegeCheckUnit::tagOf(0, 65536));

    const DomainId domains[] = {0, 1, 2, 255, (1ull << 28) - 1};
    const std::uint32_t indices[] = {0, 1, 65535, 65536, 1u << 20,
                                     ~std::uint32_t{0}};
    std::set<std::uint64_t> tags;
    for (DomainId d : domains)
        for (std::uint32_t i : indices)
            EXPECT_TRUE(
                tags.insert(PrivilegeCheckUnit::tagOf(d, i)).second)
                << "tag collision at domain " << d << " index " << i;
}

TEST(PcuCaches, TagsIncludeDomainSoSwitchNeedsNoFlush)
{
    PcuEnv env;
    DomainId d1 = env.dm.createDomain();
    DomainId d2 = env.dm.createDomain();
    env.dm.allowCsrRead(d1, CSR_SEPC);
    env.dm.allowCsrRead(d2, CSR_SEPC);
    env.dm.publish();

    env.enter(d1);
    env.pcu.checkCsrRead(CSR_SEPC); // fill d1 entry
    env.enter(d2);
    env.pcu.checkCsrRead(CSR_SEPC); // fill d2 entry
    env.enter(d1);
    EXPECT_EQ(env.pcu.checkCsrRead(CSR_SEPC).stall, 0u)
        << "d1's entry must have survived the domain switches";
}

TEST(PcuCaches, BypassRegisterServesRepeatChecks)
{
    PcuEnv env;
    DomainId d = env.dm.createBaselineDomain();
    env.dm.publish();
    env.enter(d);

    env.pcu.checkInstruction(IT_ADD); // refill
    std::uint64_t lookups = env.pcu.instCache().lookups();
    for (int i = 0; i < 100; ++i)
        env.pcu.checkInstruction(IT_ADD);
    EXPECT_EQ(env.pcu.instCache().lookups(), lookups)
        << "bypassed checks must not touch the CAM";
    EXPECT_GE(env.pcu.bypassChecks(), 100u);
}

TEST(PcuCaches, BypassDisabledProbesCacheEveryTime)
{
    PcuConfig config = PcuConfig::config8E();
    config.bypass_enabled = false;
    PcuEnv env(config);
    DomainId d = env.dm.createBaselineDomain();
    env.dm.publish();
    env.enter(d);

    for (int i = 0; i < 50; ++i)
        env.pcu.checkInstruction(IT_ADD);
    EXPECT_GE(env.pcu.instCache().lookups(), 50u);
    EXPECT_EQ(env.pcu.bypassChecks(), 0u);
}

TEST(PcuCaches, NoSgtCacheConfigReadsMemoryEveryGate)
{
    PcuEnv env(PcuConfig::config8EN());
    DomainId d = env.dm.createBaselineDomain();
    GateId g = env.dm.registerGate(0x1000, 0x2000, d);
    env.dm.publish();

    GateOutcome o1 = env.pcu.gateCall(g, 0x1000, false);
    ASSERT_TRUE(o1.ok);
    EXPECT_GT(o1.stall, 0u);
    env.enter(0);
    GateOutcome o2 = env.pcu.gateCall(g, 0x1000, false);
    EXPECT_GT(o2.stall, 0u) << "8E.N always fetches the SGT from memory";
}

TEST(PcuCaches, SgtCacheHitsAfterFirstUse)
{
    PcuEnv env(PcuConfig::config8E());
    DomainId d = env.dm.createBaselineDomain();
    GateId g = env.dm.registerGate(0x1000, 0x2000, d);
    env.dm.publish();

    env.pcu.gateCall(g, 0x1000, false);
    env.enter(0);
    GateOutcome o2 = env.pcu.gateCall(g, 0x1000, false);
    EXPECT_EQ(o2.stall, 0u);
    EXPECT_EQ(env.pcu.sgtCache().hits(), 1u);
}

TEST(PcuCaches, LruEvictionUnderPressure)
{
    PcuConfig config;
    config.hpt_cache_entries = 2; // tiny mask cache
    PcuEnv env(config);
    DomainId d1 = env.dm.createDomain();
    DomainId d2 = env.dm.createDomain();
    DomainId d3 = env.dm.createDomain();
    for (DomainId d : {d1, d2, d3})
        env.dm.setCsrMask(d, CSR_SSTATUS, SSTATUS_SIE);
    env.dm.publish();

    auto probe = [&](DomainId d) {
        env.pcu.setGridReg(GridReg::Domain, d);
        return env.pcu.checkCsrWrite(CSR_SSTATUS, 0, SSTATUS_SIE)
            .stall;
    };
    probe(d1); // miss, fill
    probe(d2); // miss, fill (cache now d1,d2)
    EXPECT_EQ(probe(d1), 0u); // hit, d2 becomes LRU
    probe(d3); // evicts d2
    EXPECT_GT(probe(d2), 0u) << "d2's mask must have been evicted";
}

TEST(PcuCaches, PrefetchWarmsCsrEntries)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.allowCsrRead(d, CSR_SEPC);
    env.dm.setCsrMask(d, CSR_SSTATUS, SSTATUS_SIE);
    env.dm.publish();
    env.enter(d);

    EXPECT_EQ(env.pcu.prefetch(0).stall, 0u); // all CSRs, no pipeline stall
    EXPECT_EQ(env.pcu.checkCsrRead(CSR_SEPC).stall, 0u);
    EXPECT_EQ(env.pcu.checkCsrWrite(CSR_SSTATUS, 0, SSTATUS_SIE).stall,
              0u);
}

TEST(PcuCaches, PrefetchSingleCsrIsSelective)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.setCsrMask(d, CSR_SSTATUS, SSTATUS_SIE);
    env.dm.publish();
    env.enter(d);

    env.pcu.prefetch(CSR_SSTATUS);
    EXPECT_EQ(env.pcu.checkCsrWrite(CSR_SSTATUS, 0, SSTATUS_SIE).stall,
              0u);
}

TEST(PcuCaches, FlushSelectsBuffer)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.allowCsrRead(d, CSR_SEPC);
    env.dm.publish();
    env.enter(d);
    env.pcu.checkCsrRead(CSR_SEPC);
    env.pcu.flushBuffers(PcuBuffer::RegCache);
    EXPECT_GT(env.pcu.checkCsrRead(CSR_SEPC).stall, 0u);
}

// ---------------------------------------------------------------------
// Table 2 register rules
// ---------------------------------------------------------------------

TEST(GridRegs, DomainAndPdomainReadableEverywhere)
{
    PcuEnv env;
    DomainId d = env.dm.createBaselineDomain();
    GateId g = env.dm.registerGate(0x100, 0x200, d);
    env.dm.publish();
    env.pcu.gateCall(g, 0x100, false);

    RegVal v = 0;
    EXPECT_TRUE(env.pcu.readGridReg(GridReg::Domain, v).allowed);
    EXPECT_EQ(v, d);
    EXPECT_TRUE(env.pcu.readGridReg(GridReg::PDomain, v).allowed);
    EXPECT_EQ(v, 0u);
    // Everything else is domain-0 only.
    EXPECT_FALSE(env.pcu.readGridReg(GridReg::GateAddr, v).allowed);
    EXPECT_FALSE(env.pcu.readGridReg(GridReg::Tmemb, v).allowed);
}

TEST(GridRegs, WritesOnlyFromDomain0)
{
    PcuEnv env;
    DomainId d = env.dm.createBaselineDomain();
    GateId g = env.dm.registerGate(0x100, 0x200, d);
    env.dm.publish();

    EXPECT_TRUE(env.pcu.writeGridReg(GridReg::GateNr, 5).allowed);
    env.pcu.gateCall(g, 0x100, false);
    EXPECT_FALSE(env.pcu.writeGridReg(GridReg::GateNr, 6).allowed);
    EXPECT_EQ(env.pcu.gridReg(GridReg::GateNr), 5u);
}

TEST(GridRegs, DomainRegisterNeverWritableByCsrInstructions)
{
    PcuEnv env;
    // Even domain-0 cannot move the domain register with a CSR write;
    // only the switching engine does (Section 5.1).
    EXPECT_FALSE(env.pcu.writeGridReg(GridReg::Domain, 3).allowed);
    EXPECT_FALSE(env.pcu.writeGridReg(GridReg::PDomain, 3).allowed);
}

TEST(GridRegs, TmemRegistersDriveTheRangeCheck)
{
    PcuEnv env;
    // Configured by the DomainManager constructor already:
    EXPECT_TRUE(env.pcu.trustedMemory().enabled());
    EXPECT_FALSE(env.pcu.memoryAccessAllowed(
        env.dm.trustedStackBase(), 8) &&
        env.pcu.currentDomain() != 0)
        << "not reachable: domain-0 may access";
    // From a non-zero domain the stack region is off limits.
    env.pcu.setGridReg(GridReg::Domain, 1);
    EXPECT_FALSE(
        env.pcu.memoryAccessAllowed(env.dm.trustedStackBase(), 8));
    EXPECT_TRUE(env.pcu.memoryAccessAllowed(0x1000, 8));
}

TEST(GridRegs, StatsCountFaults)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.publish();
    env.enter(d);
    std::uint64_t before = env.pcu.faults();
    env.pcu.checkInstruction(IT_ADD);
    env.pcu.checkCsrRead(CSR_SEPC);
    EXPECT_EQ(env.pcu.faults(), before + 2);
}

// ---------------------------------------------------------------------
// Legal-instruction cache (Section 8 "Cache Optimization")
// ---------------------------------------------------------------------

TEST(LegalCache, HitSkipsTheCheckLogic)
{
    PcuConfig config = PcuConfig::config8E();
    config.legal_cache_entries = 16;
    PcuEnv env(config);
    DomainId d = env.dm.createBaselineDomain();
    env.dm.publish();
    env.enter(d);

    EXPECT_TRUE(env.pcu.checkInstructionAt(IT_ADD, 0x1000, true)
                    .allowed);
    std::uint64_t bypass_before = env.pcu.bypassChecks();
    EXPECT_TRUE(env.pcu.checkInstructionAt(IT_ADD, 0x1000, true)
                    .allowed);
    EXPECT_EQ(env.pcu.bypassChecks(), bypass_before)
        << "a legal-cache hit must bypass even the bypass register";
    EXPECT_EQ(env.pcu.legalCache().hits(), 1u);
}

TEST(LegalCache, DeniedInstructionsAreNeverCached)
{
    PcuConfig config = PcuConfig::config8E();
    config.legal_cache_entries = 16;
    PcuEnv env(config);
    DomainId d = env.dm.createDomain(); // no privileges
    env.dm.publish();
    env.enter(d);

    EXPECT_FALSE(env.pcu.checkInstructionAt(IT_ADD, 0x1000, true)
                     .allowed);
    EXPECT_FALSE(env.pcu.checkInstructionAt(IT_ADD, 0x1000, true)
                     .allowed);
    EXPECT_EQ(env.pcu.legalCache().hits(), 0u);
}

TEST(LegalCache, ValueDependentChecksAlwaysRerun)
{
    PcuConfig config = PcuConfig::config8E();
    config.legal_cache_entries = 16;
    PcuEnv env(config);
    DomainId d = env.dm.createBaselineDomain();
    env.dm.publish();
    env.enter(d);

    env.pcu.checkInstructionAt(IT_CSRRW, 0x1000, false);
    env.pcu.checkInstructionAt(IT_CSRRW, 0x1000, false);
    EXPECT_EQ(env.pcu.legalCache().hits() +
                  env.pcu.legalCache().misses(), 0u)
        << "non-cacheable checks must not touch the legal cache";
}

TEST(LegalCache, TagsIncludeTheDomain)
{
    PcuConfig config = PcuConfig::config8E();
    config.legal_cache_entries = 16;
    PcuEnv env(config);
    DomainId d1 = env.dm.createBaselineDomain();
    DomainId d2 = env.dm.createDomain(); // ADD not allowed
    env.dm.publish();

    env.enter(d1);
    EXPECT_TRUE(env.pcu.checkInstructionAt(IT_ADD, 0x1000, true)
                    .allowed);
    env.enter(d2);
    EXPECT_FALSE(env.pcu.checkInstructionAt(IT_ADD, 0x1000, true)
                     .allowed)
        << "d1's legal-cache entry must not leak into d2";
}

TEST(LegalCache, FlushInvalidates)
{
    PcuConfig config = PcuConfig::config8E();
    config.legal_cache_entries = 16;
    PcuEnv env(config);
    DomainId d = env.dm.createBaselineDomain();
    env.dm.publish();
    env.enter(d);
    env.pcu.checkInstructionAt(IT_ADD, 0x1000, true);
    // Revoke + publish: the stale legal entry must be gone.
    env.dm.revokeInstruction(d, IT_ADD);
    env.dm.publish();
    env.enter(d);
    EXPECT_FALSE(env.pcu.checkInstructionAt(IT_ADD, 0x1000, true)
                     .allowed);
}

// ---------------------------------------------------------------------
// Unified HPT cache (the Section 4.3 design alternative)
// ---------------------------------------------------------------------

TEST(UnifiedHpt, BehavesLikeSeparateCaches)
{
    PcuConfig config = PcuConfig::config8E();
    config.unified_hpt_cache = true;
    PcuEnv env(config);
    DomainId d = env.dm.createBaselineDomain();
    env.dm.allowCsrRead(d, CSR_SEPC);
    env.dm.setCsrMask(d, CSR_SSTATUS, SSTATUS_SIE);
    env.dm.publish();
    env.enter(d);

    EXPECT_TRUE(env.pcu.checkInstruction(IT_ADD).allowed);
    EXPECT_FALSE(env.pcu.checkInstruction(IT_SFENCE_VMA).allowed);
    EXPECT_TRUE(env.pcu.checkCsrRead(CSR_SEPC).allowed);
    EXPECT_FALSE(env.pcu.checkCsrRead(CSR_SATP).allowed);
    EXPECT_TRUE(
        env.pcu.checkCsrWrite(CSR_SSTATUS, 0, SSTATUS_SIE).allowed);
    EXPECT_FALSE(
        env.pcu.checkCsrWrite(CSR_SSTATUS, 0, SSTATUS_SPP).allowed);
    // All three HPT structures share one array (3x entries).
    EXPECT_EQ(env.pcu.instCache().numEntries(), 24u);
    EXPECT_EQ(env.pcu.regCache().numEntries(), 0u);
    EXPECT_EQ(env.pcu.maskCache().numEntries(), 0u);
}

TEST(UnifiedHpt, EntryTypesDoNotAlias)
{
    // Instruction group 0 and register group 0 of the same domain have
    // identical (domain, index) pairs; the entry-type tag field must
    // keep them apart.
    PcuConfig config = PcuConfig::config8E();
    config.unified_hpt_cache = true;
    PcuEnv env(config);
    DomainId d = env.dm.createDomain();
    env.dm.allowInstruction(d, IT_ADD); // inst word 0 nonzero
    // reg word 0 stays zero: no CSR grants.
    env.dm.publish();
    env.enter(d);
    EXPECT_TRUE(env.pcu.checkInstruction(IT_ADD).allowed);
    // If the reg-bitmap lookup aliased the inst word, bit 1 (write of
    // CSR 0 = sstatus... read bit of CSR 0) could leak through.
    EXPECT_FALSE(env.pcu.checkCsrRead(CSR_SSTATUS).allowed);
    EXPECT_FALSE(env.pcu.checkCsrWrite(CSR_SEPC, 0, 1).allowed);
}

TEST(UnifiedHpt, RegFlushAlsoInvalidatesBypassSnapshot)
{
    PcuConfig config = PcuConfig::config8E();
    config.unified_hpt_cache = true;
    PcuEnv env(config);
    DomainId d = env.dm.createBaselineDomain();
    env.dm.publish();
    env.enter(d);
    env.pcu.checkInstruction(IT_ADD);
    env.dm.revokeInstruction(d, IT_ADD);
    // Flushing the "register" buffer flushes the unified array; the
    // bypass register must not serve stale instruction bits.
    env.pcu.flushBuffers(PcuBuffer::RegCache);
    EXPECT_FALSE(env.pcu.checkInstruction(IT_ADD).allowed);
}

// ---------------------------------------------------------------------
// PcuCache unit regressions (the raw CAM template, isagrid/pcu_cache.hh)
// ---------------------------------------------------------------------

TEST(PcuCacheUnit, FillUpdatesMatchingEntryPastInvalidSlot)
{
    // Regression: fill()'s victim scan used to stop at the first
    // invalid slot, so a matching entry *after* that slot was
    // duplicated instead of updated. The duplicate silently ate a
    // slot, evicting an unrelated entry once the cache filled up.
    PcuCache<std::uint64_t> cache("unit_fill", 4);
    std::uint64_t v = 0;

    cache.fill(0xA, 1);
    cache.fill(0xB, 2);
    cache.fill(0xC, 3);
    ASSERT_TRUE(cache.lookup(0xB, v)); // keep B hotter than C
    cache.flushTag(0xA); // invalid slot now sits *before* B and C

    cache.fill(0xB, 20); // must update B in place, not duplicate it
    cache.fill(0xD, 4);
    cache.fill(0xE, 5); // two free slots exist iff B was not duplicated

    EXPECT_TRUE(cache.lookup(0xC, v))
        << "C was evicted: a duplicate of B consumed its slot";
    EXPECT_TRUE(cache.lookup(0xB, v));
    EXPECT_EQ(v, 20u) << "stale duplicate payload won the match scan";
    EXPECT_TRUE(cache.lookup(0xD, v));
    EXPECT_TRUE(cache.lookup(0xE, v));
}

namespace {

/**
 * The privilege cache as first written: an array of {valid, tag, lru,
 * payload} entries, where lookup() scans for the tag and fill() scans
 * again for the tag and the victim (the last invalid slot, else the
 * least recently used).
 */
class TwoScanCacheReference
{
  public:
    explicit TwoScanCacheReference(std::uint32_t n) : entries(n) {}

    bool
    lookup(std::uint64_t tag, std::uint64_t &out)
    {
        ++lookups;
        for (auto &e : entries) {
            if (e.valid && e.tag == tag) {
                e.lru = ++clock;
                out = e.payload;
                ++hits;
                return true;
            }
        }
        ++misses;
        return false;
    }

    bool
    contains(std::uint64_t tag)
    {
        ++lookups;
        for (const auto &e : entries)
            if (e.valid && e.tag == tag)
                return true;
        return false;
    }

    void
    fill(std::uint64_t tag, std::uint64_t payload)
    {
        if (entries.empty())
            return;
        Entry *victim = nullptr;
        for (auto &e : entries) {
            if (e.valid && e.tag == tag) {
                e.payload = payload;
                e.lru = ++clock;
                return;
            }
            if (!victim || !e.valid ||
                (victim->valid && e.lru < victim->lru))
                victim = &e;
        }
        *victim = {true, tag, ++clock, payload};
    }

    void
    flushAll()
    {
        for (auto &e : entries)
            e.valid = false;
    }

    void
    flushTag(std::uint64_t tag)
    {
        for (auto &e : entries) {
            if (e.valid && e.tag == tag) {
                e.valid = false;
                return;
            }
        }
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t lookups = 0;

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        std::uint64_t payload = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t clock = 0;
};

} // namespace

TEST(PcuCacheUnit, VictimReuseMatchesTwoScanReference)
{
    // fill() after a missing lookup() reuses the victim the lookup
    // picked. A random stream of lookups, fills (mostly of the tag
    // that just missed), presence probes and flushes must behave
    // exactly like the two-scan cache: same hits, same payloads, same
    // counters, hence the same evictions.
    for (std::uint32_t entries : {1u, 2u, 4u, 8u}) {
        PcuCache<std::uint64_t> cache("unit_victim", entries);
        TwoScanCacheReference ref(entries);
        SplitMix64 rng(entries);
        std::uint64_t last_miss = 0;
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t tag = rng.below(3 * entries + 2);
            const std::uint64_t payload = rng.next();
            switch (rng.below(20)) {
              case 0:
                cache.flushTag(tag);
                ref.flushTag(tag);
                break;
              case 1:
                if (rng.chance(1, 8)) {
                    cache.flushAll();
                    ref.flushAll();
                }
                break;
              case 2:
                ASSERT_EQ(ref.contains(tag), cache.contains(tag))
                    << entries << " entries, step " << i;
                break;
              case 3:
              case 4:
                cache.fill(tag, payload);
                ref.fill(tag, payload);
                break;
              case 5:
              case 6:
                // The miss-then-fill pattern of the PCU's walks, with
                // another lookup in between now and then.
                cache.fill(last_miss, payload);
                ref.fill(last_miss, payload);
                break;
              default: {
                std::uint64_t got = 0, want = 0;
                const bool hit = ref.lookup(tag, want);
                ASSERT_EQ(hit, cache.lookup(tag, got))
                    << entries << " entries, step " << i;
                if (hit) {
                    ASSERT_EQ(want, got)
                        << entries << " entries, step " << i;
                } else if (rng.chance(3, 4)) {
                    cache.fill(tag, payload);
                    ref.fill(tag, payload);
                } else {
                    last_miss = tag;
                }
              }
            }
            ASSERT_EQ(ref.hits, cache.hits()) << "step " << i;
            ASSERT_EQ(ref.misses, cache.misses()) << "step " << i;
            ASSERT_EQ(ref.lookups, cache.lookups()) << "step " << i;
        }
    }
}

TEST(PcuCacheUnit, ContainsCountsTowardLookupEnergyProxy)
{
    // A presence probe is a real CAM search in hardware: it must show
    // up in the `lookups` energy proxy even though it leaves hit/miss
    // stats and LRU state alone.
    PcuCache<std::uint64_t> cache("unit_contains", 4);
    cache.fill(0xA, 1);

    std::uint64_t lookups = cache.lookups();
    std::uint64_t hits = cache.hits();
    std::uint64_t misses = cache.misses();

    EXPECT_TRUE(cache.contains(0xA));
    EXPECT_FALSE(cache.contains(0xB));

    EXPECT_EQ(cache.lookups(), lookups + 2);
    EXPECT_EQ(cache.hits(), hits) << "contains must not count a hit";
    EXPECT_EQ(cache.misses(), misses) << "contains must not count a miss";
}

TEST(PcuCacheUnit, PrefetchProbesAreVisibleInLookupStats)
{
    // End-to-end: prefetch() probes the register-bitmap cache with
    // contains() before each fill; those probes are CAM searches and
    // must raise the energy proxy.
    PcuEnv env;
    DomainId d = env.dm.createBaselineDomain();
    env.dm.publish();
    env.enter(d);

    std::uint64_t before = env.pcu.regCache().lookups();
    env.pcu.prefetch(0);
    EXPECT_GT(env.pcu.regCache().lookups(), before)
        << "prefetch presence checks must count as CAM lookups";
}

// --- Off-bus table walks: the table bases and the trusted-stack
// pointer are guest-writable, so a walk may point past physical
// memory. It raises MemoryFault, charged like a fill, and never
// switches the domain (docs/isa_extension.md).

namespace {

constexpr Addr kOffBus = 0x7ffffffff000;

} // namespace

TEST(PcuBus, OffBusInstructionBitmapFaults)
{
    for (bool bypass : {true, false}) {
        PcuConfig config = PcuConfig::config8E();
        config.bypass_enabled = bypass;
        PcuEnv env(config);
        DomainId d = env.dm.createBaselineDomain();
        env.dm.publish();
        env.pcu.setGridReg(GridReg::InstCap, kOffBus);
        env.enter(d);
        CheckOutcome out = env.pcu.checkInstruction(IT_ADD);
        EXPECT_FALSE(out.allowed) << "bypass " << bypass;
        EXPECT_EQ(out.fault, FaultType::MemoryFault);
        EXPECT_EQ(out.stall, config.fallback_fill_latency);
        EXPECT_FALSE(env.pcu.bypassReady());
        EXPECT_EQ(env.pcu.currentDomain(), d);
    }
}

TEST(PcuBus, OffBusCsrTablesFault)
{
    PcuEnv env;
    DomainId d = env.dm.createDomain();
    env.dm.publish();
    env.pcu.setGridReg(GridReg::CsrCap, kOffBus);
    env.enter(d);
    EXPECT_EQ(env.pcu.checkCsrRead(CSR_SEPC).fault, FaultType::MemoryFault);
    EXPECT_EQ(env.pcu.checkCsrWrite(CSR_SEPC, 0, 1).fault,
              FaultType::MemoryFault);
    CheckOutcome fill = env.pcu.prefetch(0);
    EXPECT_FALSE(fill.allowed);
    EXPECT_EQ(fill.fault, FaultType::MemoryFault);
    EXPECT_GT(fill.stall, 0u) << "a faulting prefetch fill stalls";

    PcuEnv masked;
    DomainId m = masked.dm.createDomain();
    masked.dm.publish();
    masked.pcu.setGridReg(GridReg::CsrBitMask, kOffBus);
    masked.enter(m);
    EXPECT_EQ(masked.pcu.checkCsrWrite(CSR_SSTATUS, 0, SSTATUS_SIE).fault,
              FaultType::MemoryFault);
}

TEST(PcuBus, OffBusGateTableFaultsWithoutSwitching)
{
    PcuEnv env;
    DomainId d = env.dm.createBaselineDomain();
    GateId g = env.dm.registerGate(0x1000, 0x2000, d);
    env.dm.publish();
    env.pcu.setGridReg(GridReg::GateAddr, kOffBus);
    GateOutcome out = env.pcu.gateCall(g, 0x1000, false);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.fault, FaultType::MemoryFault);
    EXPECT_GT(out.stall, 0u);
    EXPECT_EQ(env.pcu.currentDomain(), 0u);
}

TEST(PcuBus, OffBusTrustedStackFaultsWithoutSwitching)
{
    PcuEnv env;
    DomainId d = env.dm.createBaselineDomain();
    GateId g = env.dm.registerGate(0x1000, 0x2000, d);
    env.dm.publish();
    env.pcu.setGridReg(GridReg::Hcsb, kOffBus);
    env.pcu.setGridReg(GridReg::Hcsl, kOffBus + 0x1000);

    // Push: the extended call faults before any switch.
    env.pcu.setGridReg(GridReg::Hcsp, kOffBus);
    GateOutcome call = env.pcu.gateCall(g, 0x1000, true, 0x1004);
    EXPECT_EQ(call.fault, FaultType::MemoryFault);
    EXPECT_EQ(env.pcu.currentDomain(), 0u);
    EXPECT_EQ(env.pcu.gridReg(GridReg::Hcsp), kOffBus);

    // Pop: the return faults and leaves the stack pointer alone.
    env.pcu.setGridReg(GridReg::Hcsp, kOffBus + 16);
    env.enter(d);
    GateOutcome ret = env.pcu.gateReturn();
    EXPECT_EQ(ret.fault, FaultType::MemoryFault);
    EXPECT_EQ(env.pcu.currentDomain(), d);
    EXPECT_EQ(env.pcu.gridReg(GridReg::Hcsp), kOffBus + 16);

    PerfFrame frames[4];
    EXPECT_EQ(env.pcu.trustedStackFrames(frames, 4), 0u);
}

namespace {

/**
 * A random table base register: on the bus, straddling the end of
 * memory (some rows on, some off, possibly unaligned), or within 8
 * bytes of 2^64 (rows of later domains wrap around to low addresses).
 */
Addr
randomBase(SplitMix64 &rng, std::uint64_t mem_size, std::uint64_t bytes)
{
    switch (rng.below(3)) {
      case 0: return rng.below(mem_size - bytes) & ~Addr{7};
      case 1: return mem_size - rng.below(bytes + 8);
      default: return ~Addr{0} - rng.below(8);
    }
}

/** Sparse random bit flips, sometimes none. */
RegVal
randomFlips(SplitMix64 &rng)
{
    return rng.chance(1, 4) ? 0 : rng.next() & rng.next() & rng.next();
}

/** PolicyViewPredictsTheMemoryFault over one ISA model. */
void
checkPolicyViewAgainstPcu(const IsaModel &isa, std::uint64_t seed)
{
    const PcuConfig unified = [] {
        PcuConfig c = PcuConfig::config8E();
        c.unified_hpt_cache = true;
        return c;
    }();
    const PcuConfig no_bypass = [] {
        PcuConfig c = PcuConfig::config8E();
        c.bypass_enabled = false;
        return c;
    }();
    const PcuConfig configs[] = {
        PcuConfig::config8E(), PcuConfig::config16E(),
        PcuConfig::config8EN(), no_bypass, unified, {1, 1, true, 100, 0},
    };
    const HptLayout hpt(isa.numInstTypes(), isa.numControlledCsrs(),
                        isa.numMaskableCsrs());
    std::vector<std::uint32_t> csrs = isa.controlledCsrAddrs();
    csrs.push_back(0x7c0); // not controlled: outside ISA-Grid's scope
    SplitMix64 rng(seed);

    for (int trial = 0; trial < 40; ++trial) {
        PhysMem mem(4096);
        for (Addr a = 0; a < mem.size(); a += 8)
            mem.write64(a, rng.next());
        const DomainId domains = rng.below(6);
        const GateId gates = rng.below(6);
        const std::uint64_t rows = domains + 2;
        const Addr gate_base =
            randomBase(rng, mem.size(), SgtEntry::sizeBytes * (gates + 1));
        for (GateId g = 0; g <= gates; ++g) {
            Addr a = sgtEntryAddr(gate_base, g);
            if (a < mem.size() && mem.size() - a >= SgtEntry::sizeBytes)
                sgtWrite(mem, gate_base, g,
                         {rng.below(64) * 4, rng.next(),
                          rng.below(domains + 2)});
        }
        PolicySnapshot snap;
        auto set = [&snap](GridReg r, RegVal v) {
            snap.regs[static_cast<std::size_t>(r)] = v;
        };
        set(GridReg::InstCap,
            randomBase(rng, mem.size(), hpt.instStride() * rows));
        set(GridReg::CsrCap,
            randomBase(rng, mem.size(), hpt.regStride() * rows));
        set(GridReg::CsrBitMask,
            randomBase(rng, mem.size(), hpt.maskStride() * rows));
        set(GridReg::GateAddr, gate_base);
        set(GridReg::DomainNr, domains);
        set(GridReg::GateNr, gates);
        const PolicyView view(isa, mem, snap);
        const std::uint64_t draws = rng.next();

        for (const PcuConfig &config : configs) {
            PrivilegeCheckUnit pcu(isa, mem, config);
            for (std::uint8_t r = 0; r < numGridRegs; ++r)
                pcu.setGridReg(GridReg(r), snap.regs[r]);
            SplitMix64 values(draws); // the same operands per config
            for (DomainId d = 0; d < rows; ++d) {
                auto enter = [&pcu, d] {
                    pcu.setGridReg(GridReg::Domain, d);
                    pcu.flushBuffers(PcuBuffer::InstCache);
                };
                enter();
                for (InstTypeId t = 0; t < isa.numInstTypes(); ++t) {
                    const Verdict v = view.inst(d, t);
                    ASSERT_EQ(pcu.checkInstruction(t).fault, v.fault)
                        << "trial " << trial << " domain " << d
                        << " type " << t;
                    if (d == 0) {
                        EXPECT_TRUE(v.allowed());
                    }
                }
                for (std::uint32_t csr : csrs) {
                    const RegVal old_value = values.next();
                    const RegVal new_value =
                        old_value ^ randomFlips(values);
                    const CsrIndex index = isa.csrBitmapIndex(csr);
                    const Verdict r = view.csrRead(d, index);
                    const Verdict w =
                        view.csrWrite(d, index, isa.csrMaskIndex(csr));
                    ASSERT_EQ(pcu.checkCsrRead(csr).fault, r.fault)
                        << "trial " << trial << " domain " << d
                        << " csr " << csr;
                    ASSERT_EQ(pcu.checkCsrWrite(csr, old_value, new_value)
                                  .fault,
                              w.write(old_value, new_value))
                        << "trial " << trial << " domain " << d
                        << " csr " << csr;
                    if (d == 0) {
                        EXPECT_TRUE(r.allowed() && w.allowed());
                    }
                }
                for (GateId g = 0; g <= gates; ++g) {
                    const Addr registered = view.gate(g).entry.gate_addr;
                    for (Addr pc : {registered, Addr(values.below(64) * 4)}) {
                        const Verdict v = view.gateCall(g, pc);
                        const GateOutcome out = pcu.gateCall(g, pc, false);
                        ASSERT_EQ(out.fault, v.fault)
                            << "trial " << trial << " gate " << g;
                        if (out.ok) {
                            EXPECT_EQ(out.dest_domain, v.entry.dest_domain);
                            EXPECT_EQ(out.dest_pc, v.entry.dest_addr);
                            enter();
                        }
                    }
                }
            }
        }
    }
}

} // namespace

TEST(PcuBus, PolicyViewPredictsTheMemoryFault)
{
    // Property: the analyses' verdict names the PCU's outcome — the
    // MemoryFault of a walk off the bus included — for every domain,
    // instruction type, CSR read and write and gate call, over random
    // tables and base registers, under every cache configuration.
    checkPolicyViewAgainstPcu(RiscvIsa(), 0x15a9);
    checkPolicyViewAgainstPcu(x86::X86Isa(), 0x9d1d);
}

TEST(PcuBus, FrameReturnVerdictMatchesThePcu)
{
    // hcrets pops a frame whose source domain must be non-zero and
    // configured (any domain when domain-nr is 0).
    for (DomainId domains : {0u, 1u, 4u}) {
        for (DomainId src = 0; src < 6; ++src) {
            PcuEnv env;
            env.pcu.setGridReg(GridReg::DomainNr, domains);
            env.pcu.setGridReg(GridReg::Hcsb, 0x1000);
            env.pcu.setGridReg(GridReg::Hcsl, 0x1100);
            env.pcu.setGridReg(GridReg::Hcsp, 0x1010);
            env.mem.write64(0x1000, 0x4000);
            env.mem.write64(0x1008, src);
            PolicyView view(env.isa, env.mem,
                            PolicySnapshot::fromPcu(env.pcu));
            EXPECT_EQ(env.pcu.gateReturn().fault,
                      view.frameReturn(src).fault)
                << "domains " << domains << " src " << src;
        }
    }
}

TEST(PcuBus, PrivilegeSetReadsAWrappingTableAsDeny)
{
    // The static view of the same tables: a row address within 8 bytes
    // of 2^64 must read as deny, not wrap past the bound check — so
    // every controlled CSR is high for the domain.
    PcuEnv env;
    DomainId d = env.dm.createBaselineDomain();
    env.dm.allowCsrRead(d, CSR_SEPC);
    env.dm.publish();
    env.pcu.setGridReg(GridReg::InstCap,
                       ~Addr{0} - 3 - d * env.pcu.layout().instStride());
    env.pcu.setGridReg(GridReg::CsrCap,
                       ~Addr{0} - 3 - d * env.pcu.layout().regStride());
    PolicyView view(env.isa, env.mem, PolicySnapshot::fromPcu(env.pcu));
    EXPECT_EQ(view.inst(d, IT_ADD).fault, FaultType::MemoryFault);
    EXPECT_EQ(view.csrRead(d, env.isa.csrBitmapIndex(CSR_SEPC)).fault,
              FaultType::MemoryFault);
    std::vector<std::uint32_t> high = PrivilegeSet::highCsrs(view, d);
    EXPECT_NE(std::find(high.begin(), high.end(), CSR_SSTATUS), high.end());
    for (std::uint32_t csr : env.isa.controlledCsrAddrs()) {
        bool expected = !env.isa.isGridReg(csr) &&
                        !PrivilegeSet::implicitInput(env.isa, csr);
        EXPECT_EQ(std::find(high.begin(), high.end(), csr) != high.end(),
                  expected)
            << csr;
    }
}
