/**
 * @file
 * Unit and property tests for the memory system: physical memory,
 * set-associative caches, hierarchies and the trusted-memory range.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/phys_mem.hh"
#include "mem/tlb.hh"
#include "mem/trusted_memory.hh"
#include "sim/random.hh"

using namespace isagrid;

TEST(PhysMem, ReadWriteWidths)
{
    PhysMem mem(4096);
    mem.write8(0, 0xab);
    EXPECT_EQ(mem.read8(0), 0xab);
    mem.write16(8, 0x1234);
    EXPECT_EQ(mem.read16(8), 0x1234);
    mem.write32(16, 0xdeadbeef);
    EXPECT_EQ(mem.read32(16), 0xdeadbeefu);
    mem.write64(24, 0x0123456789abcdefull);
    EXPECT_EQ(mem.read64(24), 0x0123456789abcdefull);
}

TEST(PhysMem, LittleEndianLayout)
{
    PhysMem mem(64);
    mem.write32(0, 0x04030201);
    EXPECT_EQ(mem.read8(0), 1);
    EXPECT_EQ(mem.read8(1), 2);
    EXPECT_EQ(mem.read8(2), 3);
    EXPECT_EQ(mem.read8(3), 4);
}

TEST(PhysMem, BlockCopyRoundTrips)
{
    PhysMem mem(256);
    std::uint8_t src[10] = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
    mem.writeBlock(100, src, sizeof src);
    std::uint8_t dst[10] = {};
    mem.readBlock(100, dst, sizeof dst);
    EXPECT_EQ(0, std::memcmp(src, dst, sizeof src));
}

TEST(PhysMem, OutOfRangePanics)
{
    PhysMem mem(64);
    EXPECT_DEATH(mem.read64(60), "");
    EXPECT_DEATH(mem.write8(64, 1), "");
}

TEST(Cache, HitAfterFill)
{
    Cache cache({"c", 1024, 64, 2, 1});
    bool hit = true;
    cache.access(0x100, false, hit);
    EXPECT_FALSE(hit);
    cache.access(0x100, false, hit);
    EXPECT_TRUE(hit);
    // Any address in the same line hits too.
    cache.access(0x13f, false, hit);
    EXPECT_TRUE(hit);
    cache.access(0x140, false, hit);
    EXPECT_FALSE(hit);
}

TEST(Cache, LruEviction)
{
    // 2-way, line 64, 2 sets -> addresses 0, 128, 256 map to set 0.
    Cache cache({"c", 256, 64, 2, 1});
    bool hit;
    cache.access(0, false, hit);
    cache.access(128, false, hit);
    cache.access(0, false, hit); // touch 0: 128 becomes LRU
    cache.access(256, false, hit); // evicts 128
    cache.access(0, false, hit);
    EXPECT_TRUE(hit);
    cache.access(128, false, hit);
    EXPECT_FALSE(hit) << "LRU line must have been evicted";
}

TEST(Cache, WritebackCountsDirtyEvictions)
{
    Cache cache({"c", 128, 64, 1, 1}); // direct-mapped, 2 sets
    bool hit;
    cache.access(0, true, hit);        // dirty line
    cache.access(128, false, hit);     // evicts dirty line 0
    EXPECT_EQ(cache.stats().lookup("c.writebacks"), 1.0);
    cache.access(256, false, hit);     // evicts clean line 128
    EXPECT_EQ(cache.stats().lookup("c.writebacks"), 1.0);
}

TEST(Cache, FlushAllInvalidates)
{
    Cache cache({"c", 1024, 64, 4, 1});
    bool hit;
    cache.access(0, false, hit);
    cache.flushAll();
    cache.access(0, false, hit);
    EXPECT_FALSE(hit);
}

TEST(Cache, FlushLineIsSelective)
{
    Cache cache({"c", 1024, 64, 4, 1});
    bool hit;
    cache.access(0, false, hit);
    cache.access(64, false, hit);
    cache.flushLine(0);
    cache.access(64, false, hit);
    EXPECT_TRUE(hit);
    cache.access(0, false, hit);
    EXPECT_FALSE(hit);
}

TEST(Cache, ContainsDoesNotPerturb)
{
    Cache cache({"c", 256, 64, 2, 1});
    bool hit;
    cache.access(0, false, hit);
    std::uint64_t hits_before = cache.hits();
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(0x1000));
    EXPECT_EQ(cache.hits(), hits_before);
}

TEST(Cache, InvalidGeometryIsFatal)
{
    EXPECT_DEATH(Cache({"c", 100, 60, 2, 1}), "");  // non-pow2 line
    EXPECT_DEATH(Cache({"c", 192, 64, 2, 1}), "");  // non-pow2 sets
}

/** Property: hit rate of a working set that fits is perfect. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometry, FittingWorkingSetAlwaysHitsAfterWarmup)
{
    auto [size_kb, assoc] = GetParam();
    Cache cache({"c", std::uint64_t(size_kb) * 1024, 64,
                 std::uint32_t(assoc), 1});
    std::uint64_t lines = std::uint64_t(size_kb) * 1024 / 64;
    bool hit;
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.access(i * 64, false, hit);
    for (std::uint64_t i = 0; i < lines; ++i) {
        cache.access(i * 64, false, hit);
        EXPECT_TRUE(hit) << "line " << i;
    }
}

TEST_P(CacheGeometry, RandomAccessesNeverCrash)
{
    auto [size_kb, assoc] = GetParam();
    Cache cache({"c", std::uint64_t(size_kb) * 1024, 64,
                 std::uint32_t(assoc), 1});
    SplitMix64 rng(42);
    bool hit;
    for (int i = 0; i < 5000; ++i)
        cache.access(rng.below(1 << 22), rng.chance(1, 3), hit);
    EXPECT_EQ(cache.hits() + cache.misses(), 5000u);
}

TEST_P(CacheGeometry, RefPathMatchesSetScan)
{
    // The memoized Cache::Ref / Tlb::Ref paths are exact by
    // revalidation: one random stream of reads, writes and flushes
    // through access() and through accessRef() must agree in latency
    // and in every counter at every step.
    auto [size_kb, assoc] = GetParam();
    const std::vector<CacheParams> levels = {
        {"l1", std::uint64_t(size_kb) * 1024, 64, std::uint32_t(assoc), 2},
        {"l2", 64 * 1024, 64, 8, 10}};
    CacheHierarchy plain(levels, 100), memo(levels, 100);
    const TlbParams tlb_params{"tlb", 16, 4, 4096, 30};
    Tlb plain_tlb(tlb_params), memo_tlb(tlb_params);
    Cache::Ref refs[2];
    Tlb::Ref tlb_ref;
    SplitMix64 rng(7);
    Addr addr = 0;
    for (int i = 0; i < 4000; ++i) {
        addr = rng.chance(1, 4) ? rng.below(1 << 20) : addr + rng.below(24);
        switch (rng.below(16)) {
          case 0:
            plain.flushAll();
            memo.flushAll();
            break;
          case 1:
            for (std::size_t l = 0; l < plain.numLevels(); ++l) {
                plain.level(l).flushLine(addr);
                memo.level(l).flushLine(addr);
            }
            break;
          case 2:
            plain_tlb.flushPage(addr);
            memo_tlb.flushPage(addr);
            break;
          case 3:
            plain_tlb.flushAll();
            memo_tlb.flushAll();
            break;
          default: {
            const bool write = rng.chance(1, 3);
            ASSERT_EQ(plain.access(addr, write),
                      memo.accessRef(addr, write, refs[rng.below(2)]))
                << "step " << i;
            ASSERT_EQ(plain_tlb.access(addr),
                      memo_tlb.accessRef(addr, tlb_ref))
                << "step " << i;
          }
        }
        std::map<std::string, double> want, got;
        plain.stats().values("", want);
        memo.stats().values("", got);
        plain_tlb.stats().values("", want);
        memo_tlb.stats().values("", got);
        ASSERT_EQ(want, got) << "step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(1, 4, 32),
                       ::testing::Values(1, 2, 4, 16)));

TEST(CacheHierarchy, LatencyAccumulatesThroughLevels)
{
    CacheHierarchy h({{"l1", 1024, 64, 2, 2}, {"l2", 4096, 64, 4, 20}},
                     100);
    // Cold: L1 miss + L2 miss + memory.
    EXPECT_EQ(h.access(0, false), 2u + 20u + 100u);
    // Warm: L1 hit only.
    EXPECT_EQ(h.access(0, false), 2u);
    EXPECT_EQ(h.missLatency(), 122u);
}

TEST(CacheHierarchy, L2CatchesL1Evictions)
{
    // Tiny L1 (1 line), big L2.
    CacheHierarchy h({{"l1", 64, 64, 1, 1}, {"l2", 8192, 64, 4, 10}},
                     100);
    h.access(0, false);
    h.access(64, false); // evicts 0 from L1, still in L2
    EXPECT_EQ(h.access(0, false), 1u + 10u);
}

TEST(CacheHierarchy, FlushAllReachesEveryLevel)
{
    CacheHierarchy h({{"l1", 1024, 64, 2, 1}, {"l2", 4096, 64, 4, 5}},
                     50);
    h.access(0, false);
    h.flushAll();
    EXPECT_EQ(h.access(0, false), 1u + 5u + 50u);
}

TEST(TrustedMemory, DisabledAllowsEverything)
{
    TrustedMemory tmem;
    EXPECT_FALSE(tmem.enabled());
    EXPECT_TRUE(tmem.softwareAccessAllowed(5, 0x1000, 8));
}

TEST(TrustedMemory, Domain0AlwaysAllowed)
{
    TrustedMemory tmem;
    tmem.configure(0x10000, 0x20000);
    EXPECT_TRUE(tmem.softwareAccessAllowed(0, 0x10000, 8));
    EXPECT_FALSE(tmem.softwareAccessAllowed(1, 0x10000, 8));
}

TEST(TrustedMemory, BoundaryConditions)
{
    TrustedMemory tmem;
    tmem.configure(0x10000, 0x20000);
    // Just below, just above, straddling.
    EXPECT_TRUE(tmem.softwareAccessAllowed(1, 0xfff8, 8));
    EXPECT_FALSE(tmem.softwareAccessAllowed(1, 0xfff9, 8));
    EXPECT_TRUE(tmem.softwareAccessAllowed(1, 0x20000, 8));
    EXPECT_FALSE(tmem.softwareAccessAllowed(1, 0x1ffff, 8));
    EXPECT_FALSE(tmem.softwareAccessAllowed(1, 0x18000, 1));
}

TEST(TrustedMemory, RequiresPowerOfTwoSizeAndAlignment)
{
    TrustedMemory tmem;
    EXPECT_DEATH(tmem.configure(0x1000, 0x1000 + 0x300), "");
    EXPECT_DEATH(tmem.configure(0x800, 0x800 + 0x1000), "");
    tmem.configure(0x2000, 0x3000); // 4K-aligned 4K region: fine
    EXPECT_TRUE(tmem.enabled());
}

/** Property sweep: overlap is symmetric with the naive definition. */
TEST(TrustedMemory, OverlapMatchesNaiveDefinition)
{
    TrustedMemory tmem;
    tmem.configure(0x400, 0x800);
    SplitMix64 rng(3);
    for (int i = 0; i < 2000; ++i) {
        Addr addr = rng.below(0x1000);
        std::size_t len = 1 + rng.below(16);
        bool naive = false;
        for (std::size_t k = 0; k < len; ++k)
            naive |= (addr + k >= 0x400 && addr + k < 0x800);
        EXPECT_EQ(tmem.overlaps(addr, len), naive)
            << std::hex << addr << "+" << len;
    }
}

TEST(Tlb, HitAfterWalk)
{
    Tlb tlb({"t", 8, 2, 4096, 50});
    EXPECT_EQ(tlb.access(0x1000), 50u); // walk
    EXPECT_EQ(tlb.access(0x1ff8), 0u);  // same page
    EXPECT_EQ(tlb.access(0x2000), 50u); // next page
    EXPECT_EQ(tlb.misses(), 2u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(Tlb, FlushAllForcesRewalks)
{
    Tlb tlb({"t", 8, 2, 4096, 50});
    tlb.access(0x1000);
    tlb.flushAll();
    EXPECT_EQ(tlb.access(0x1000), 50u);
}

TEST(Tlb, FlushPageIsSelective)
{
    Tlb tlb({"t", 8, 2, 4096, 50});
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.flushPage(0x1234);
    EXPECT_EQ(tlb.access(0x2000), 0u);
    EXPECT_EQ(tlb.access(0x1000), 50u);
}

TEST(Tlb, LruWithinSet)
{
    // 2-way, 2 sets: pages 0, 2, 4 map to set 0.
    Tlb tlb({"t", 4, 2, 4096, 50});
    tlb.access(0x0000);
    tlb.access(0x2000);
    tlb.access(0x0000);          // page 0 most recent
    tlb.access(0x4000);          // evicts page 2
    EXPECT_EQ(tlb.access(0x0000), 0u);
    EXPECT_EQ(tlb.access(0x2000), 50u);
}

TEST(Tlb, BadGeometryIsFatal)
{
    EXPECT_DEATH(Tlb({"t", 7, 2, 4096, 10}), "");
    EXPECT_DEATH(Tlb({"t", 12, 2, 4096, 10}), ""); // 6 sets: not pow2
}
