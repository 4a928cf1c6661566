/**
 * @file
 * Privilege Check Unit tests: the hybrid-grained check engine, the
 * privilege caches (hits, misses, LRU, flush, prefetch, bypass), the
 * Table 2 register access rules and the trusted-memory wiring.
 */

#include <gtest/gtest.h>

#include <set>

#include "isa/riscv/riscv_isa.hh"
#include "isagrid/domain_manager.hh"
#include "isagrid/pcu.hh"
#include "isagrid/privilege_set.hh"
#include "mem/phys_mem.hh"
#include "verify/image_scan.hh"

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

TEST(PcuBus, PolicyViewPredictsTheMemoryFault)
{
    // The analyses' view of the tables names exactly the walks the PCU
    // faults on, with and without the bypass register, and reads them
    // as deny.
    for (bool bypass : {true, false}) {
        PcuConfig config = PcuConfig::config8E();
        config.bypass_enabled = bypass;
        for (GridReg reg : {GridReg::InstCap, GridReg::CsrCap,
                            GridReg::CsrBitMask, GridReg::GateAddr}) {
            PcuEnv env(config);
            DomainId d = env.dm.createBaselineDomain();
            GateId g = env.dm.registerGate(0x1000, 0x2000, d);
            env.dm.publish();
            env.pcu.setGridReg(reg, kOffBus);
            PolicySnapshot snap = PolicySnapshot::fromPcu(env.pcu);
            PolicyView view(env.isa, env.mem, snap);
            CsrIndex sepc = env.isa.csrBitmapIndex(CSR_SEPC);
            CsrIndex sstatus = env.isa.csrMaskIndex(CSR_SSTATUS);
            const bool inst = reg != GridReg::InstCap;
            const bool csr = reg != GridReg::CsrCap;
            const bool mask = reg != GridReg::CsrBitMask;
            const bool gate = reg != GridReg::GateAddr;
            EXPECT_EQ(view.instOnBus(d), inst) << int(reg);
            EXPECT_EQ(view.csrOnBus(d, sepc), csr) << int(reg);
            EXPECT_EQ(view.maskOnBus(d, sstatus), mask) << int(reg);
            EXPECT_EQ(view.gateOnBus(g), gate) << int(reg);
            EXPECT_TRUE(view.instOnBus(0)) << "domain-0 is unchecked";
            if (!inst) {
                EXPECT_FALSE(view.instAllowed(d, IT_ADD));
            }

            env.enter(d);
            EXPECT_EQ(env.pcu.checkInstruction(IT_ADD).fault ==
                          FaultType::MemoryFault,
                      !inst);
            EXPECT_EQ(env.pcu.checkCsrRead(CSR_SEPC).fault ==
                          FaultType::MemoryFault,
                      !csr);
            EXPECT_EQ(env.pcu.checkCsrWrite(CSR_SSTATUS, 0, SSTATUS_SIE)
                              .fault == FaultType::MemoryFault,
                      !csr || !mask);
            env.enter(0);
            EXPECT_EQ(env.pcu.gateCall(g, 0x1000, false).fault ==
                          FaultType::MemoryFault,
                      !gate);
        }
    }
}

TEST(PcuBus, PrivilegeSetReadsAWrappingTableAsDeny)
{
    // The static view of the same tables: a row address within 8 bytes
    // of 2^64 must read as deny, not wrap past the bound check.
    PcuEnv env;
    DomainId d = env.dm.createBaselineDomain();
    env.dm.publish();
    env.pcu.setGridReg(GridReg::InstCap,
                       ~Addr{0} - 3 - d * env.pcu.layout().instStride());
    PrivilegeSet priv(env.isa, env.mem, env.pcu);
    EXPECT_FALSE(priv.instAllowed(d, IT_ADD));
}
