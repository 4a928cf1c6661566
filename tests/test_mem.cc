/**
 * @file
 * Unit and property tests for the memory system: lazily zeroed
 * arrays, physical memory, set-associative caches, hierarchies and the
 * trusted-memory range.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "mem/cache.hh"
#include "mem/phys_mem.hh"
#include "mem/ref_table.hh"
#include "mem/tlb.hh"
#include "mem/trusted_memory.hh"
#include "mem/zero_pages.hh"
#include "sim/random.hh"

using namespace isagrid;

namespace {

const std::size_t kHostPage = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));

/**
 * mincore() over the pages of [p, p + len): one flag per page, true
 * when resident; errno is left set when the range is not mapped.
 */
std::vector<bool>
residentPages(const void *p, std::size_t len, int &rc)
{
    auto lo = reinterpret_cast<std::uintptr_t>(p) & ~(kHostPage - 1);
    auto hi = (reinterpret_cast<std::uintptr_t>(p) + len + kHostPage - 1) &
              ~(kHostPage - 1);
    std::vector<unsigned char> vec((hi - lo) / kHostPage);
    rc = mincore(reinterpret_cast<void *>(lo), hi - lo, vec.data());
    std::vector<bool> resident(vec.size());
    for (std::size_t i = 0; i < vec.size(); ++i)
        resident[i] = vec[i] & 1;
    return resident;
}

/** Whether the page holding @p p is mapped. */
bool
mapped(const void *p)
{
    int rc = 0;
    residentPages(p, 1, rc);
    return rc == 0;
}

/**
 * Run @p body on a thread of its own: it starts with no recycled
 * mappings, and the ones it keeps are unmapped when it ends.
 */
template <typename F>
void
onOwnThread(F body)
{
    std::thread t(body);
    t.join();
}

} // namespace

TEST(ZeroPages, FreshArrayReadsZero)
{
    constexpr std::size_t kBytes = 64ull << 20;
    ZeroPages<std::uint8_t> a(kBytes);
    ASSERT_EQ(a.size(), kBytes);
    SplitMix64 rng(1);
    for (int i = 0; i < 4096; ++i)
        ASSERT_EQ(a[rng.below(kBytes)], 0);
    EXPECT_EQ(a[0], 0);
    EXPECT_EQ(a[kBytes - 1], 0);
}

TEST(ZeroPages, OnlyWrittenPagesBecomeResident)
{
    constexpr std::size_t kBytes = 64ull << 20;
    ZeroPages<std::uint8_t> a(kBytes);
    int rc = 0;
    std::vector<bool> before = residentPages(a.data(), kBytes, rc);
    ASSERT_EQ(rc, 0);
    EXPECT_EQ(std::count(before.begin(), before.end(), true), 0);

    const std::size_t offset = 1000 * kHostPage + 123;
    a[offset] = 7;
    std::vector<bool> after = residentPages(a.data(), kBytes, rc);
    ASSERT_EQ(rc, 0);
    EXPECT_EQ(std::count(after.begin(), after.end(), true), 1);
    EXPECT_TRUE(after[offset / kHostPage]);
}

TEST(ZeroPages, MoveLeavesOneOwnerWhichUnmaps)
{
    ZeroPages<std::uint64_t> a(1024);
    a[3] = 42;
    std::uint64_t *mapped = a.data();

    ZeroPages<std::uint64_t> b(std::move(a));
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(b.data(), mapped);
    EXPECT_EQ(b.size(), 1024u);
    EXPECT_EQ(b[3], 42u);

    // Assignment unmaps what the target held before.
    ZeroPages<std::uint64_t> c(16);
    std::uint64_t *replaced = c.data();
    c = std::move(b);
    int rc = 0;
    residentPages(replaced, 16 * sizeof(std::uint64_t), rc);
    EXPECT_EQ(rc, -1);
    EXPECT_EQ(errno, ENOMEM);
    EXPECT_EQ(b.data(), nullptr);
    EXPECT_EQ(c.data(), mapped);
    EXPECT_EQ(c[3], 42u);

    { ZeroPages<std::uint64_t> last(std::move(c)); }
    residentPages(mapped, 1024 * sizeof(std::uint64_t), rc);
    EXPECT_EQ(rc, -1);
    EXPECT_EQ(errno, ENOMEM);
}

TEST(ZeroPages, FailedMappingIsFatalWithTheRequestedSize)
{
    EXPECT_EXIT(ZeroPages<std::uint8_t>(std::size_t{1} << 62),
                ::testing::ExitedWithCode(1),
                "cannot map 4611686018427387904 x 1 bytes");
    // count * sizeof(T) overflows size_t.
    EXPECT_EXIT(ZeroPages<std::uint64_t>(std::size_t{1} << 62),
                ::testing::ExitedWithCode(1),
                "cannot map 4611686018427387904 x 8 bytes");
}

TEST(ZeroPages, ReadingOnePastTheEndFaults)
{
    // 1000 elements fill no whole number of pages: the array still ends
    // at the guard page.
    ZeroPages<std::uint32_t> a(1000);
    const volatile std::uint32_t *p = a.data();
    EXPECT_EQ(p[999], 0u);
    EXPECT_DEATH((void)p[1000], "");
}

TEST(ZeroPages, RecycleZeroesMarkedPagesAndKeepsTheMapping)
{
    onOwnThread([] {
        // 5000 elements fill no whole number of pages, so the data
        // starts part-way into the first page of the mapping.
        auto a = ZeroPages<std::uint32_t>::reuse(5000);
        std::uint32_t *first = a.data();
        for (std::size_t i : {0, 1023, 1024, 4999}) {
            a[i] = 7;
            a.markWritten(i);
        }
        for (std::size_t i = 2000; i < 2100; ++i)
            a[i] = 1;
        a.markWritten(2000, 100);
        a.recycle();
        EXPECT_EQ(a.data(), nullptr);
        EXPECT_EQ(a.size(), 0u);

        auto b = ZeroPages<std::uint32_t>::reuse(5000);
        EXPECT_EQ(b.data(), first) << "the recycled mapping comes back";
        for (std::size_t i = 0; i < b.size(); ++i)
            ASSERT_EQ(b[i], 0u) << "element " << i;
        int rc = 0;
        std::vector<bool> resident =
            residentPages(b.data(), 5000 * sizeof(std::uint32_t), rc);
        EXPECT_GT(std::count(resident.begin(), resident.end(), true), 0)
            << "zeroed pages stay resident, so touching them again "
               "does not fault";
        b.recycle();

        // A size with the same page count takes the same mapping, its
        // data moved to end at the guard page again.
        auto c = ZeroPages<std::uint8_t>::reuse(5000 * 4 - 10);
        EXPECT_EQ(c.data(), reinterpret_cast<std::uint8_t *>(first) + 10);
        for (std::size_t i = 0; i < c.size(); ++i)
            ASSERT_EQ(c[i], 0u) << "byte " << i;
        EXPECT_DEATH((void)static_cast<const volatile std::uint8_t *>(
                         c.data())[c.size()],
                     "");
    });
}

TEST(ZeroPages, RecycleReleasesALargeWrittenSetToTheHost)
{
    onOwnThread([] {
        // Far more distinct written pages than a kept mapping may hold.
        constexpr std::size_t kBytes = 16u << 20;
        auto a = ZeroPages<std::uint8_t>::reuse(kBytes);
        for (std::size_t i = 0; i < kBytes; i += kHostPage)
            a[i + 1] = 1;
        a.markWritten(0, kBytes);
        const void *kept = a.data();
        a.recycle();

        auto b = ZeroPages<std::uint8_t>::reuse(kBytes);
        EXPECT_EQ(b.data(), kept);
        int rc = 0;
        std::vector<bool> resident = residentPages(b.data(), kBytes, rc);
        ASSERT_EQ(rc, 0);
        EXPECT_EQ(std::count(resident.begin(), resident.end(), true), 0)
            << "every page went back to the host";
        for (std::size_t i = 0; i < kBytes; i += kHostPage)
            ASSERT_EQ(b[i + 1], 0) << "byte " << i + 1;
    });
}

TEST(ZeroPages, PlainArraysNeverTakeARecycledMapping)
{
    onOwnThread([] {
        constexpr std::size_t kBytes = 1u << 20;
        auto r = ZeroPages<std::uint8_t>::reuse(kBytes);
        r[5] = 1;
        r.markWritten(5);
        const void *kept = r.data();
        r.recycle();

        ZeroPages<std::uint8_t> fresh(kBytes);
        EXPECT_NE(fresh.data(), kept);
        int rc = 0;
        std::vector<bool> resident = residentPages(fresh.data(), kBytes, rc);
        ASSERT_EQ(rc, 0);
        EXPECT_EQ(std::count(resident.begin(), resident.end(), true), 0);
    });
}

TEST(ZeroPages, KeepsFewMappingsAndUnmapsThemWithTheThread)
{
    constexpr std::size_t kArrays = 100;
    std::vector<const void *> bases;
    onOwnThread([&] {
        std::vector<ZeroPages<std::uint64_t>> arrays;
        for (std::size_t i = 0; i < kArrays; ++i)
            arrays.push_back(ZeroPages<std::uint64_t>::reuse(512));
        for (auto &a : arrays) {
            bases.push_back(a.data());
            a.recycle();
        }
        std::size_t kept = 0;
        for (const void *base : bases)
            kept += mapped(base);
        EXPECT_GT(kept, 0u);
        EXPECT_LT(kept, kArrays) << "a thread keeps a bounded number";
    });
    for (const void *base : bases)
        EXPECT_FALSE(mapped(base)) << "the thread's exit unmaps them";
}

TEST(PhysMem, RecycledMemoryReadsZeroAgain)
{
    onOwnThread([] {
        const Addr page = PhysMem::kPageBytes;
        const std::size_t size = 64 * page + 100; // last page partial
        {
            PhysMem mem(size);
            mem.write16(2 * page - 1, 0xffff);
            std::vector<std::uint8_t> block(2 * page + 2, 0xa5);
            mem.writeBlock(7 * page - 1, block.data(), block.size());
            mem.write64(size - 8, ~std::uint64_t{0});
        }
        {
            // The destroyed memory's guest bytes come back resident
            // and zero.
            auto bytes = ZeroPages<std::uint8_t>::reuse(size);
            int rc = 0;
            std::vector<bool> resident =
                residentPages(bytes.data(), size, rc);
            EXPECT_GT(std::count(resident.begin(), resident.end(), true),
                      0);
            for (std::size_t i = 0; i < size; ++i)
                ASSERT_EQ(bytes[i], 0) << "byte " << i;
            bytes.recycle();
        }
        PhysMem mem(size);
        for (Addr a = 0; a < size; ++a)
            ASSERT_EQ(mem.read8(a), 0) << "addr " << a;
        for (Addr a = 0; a < size; a += PhysMem::kLineBytes)
            ASSERT_EQ(mem.lineGen(a), 0u) << "addr " << a;
        for (Addr a = 0; a < size; a += page)
            EXPECT_FALSE(mem.pageWritten(a)) << "addr " << a;
    });
}

TEST(PhysMem, WrittenPagesFollowEveryWriter)
{
    const Addr page = PhysMem::kPageBytes;
    PhysMem mem(16 * page);
    for (Addr a = 0; a < mem.size(); a += page)
        EXPECT_FALSE(mem.pageWritten(a));

    mem.write16(2 * page - 1, 0xffff); // straddles pages 1 and 2
    mem.write8(4 * page, 0);           // a zero still counts
    std::vector<std::uint8_t> block(2 * page + 2, 1);
    mem.writeBlock(7 * page - 1, block.data(), block.size()); // 6..9
    mem.write64(mem.size() - 8, 1);

    std::vector<Addr> written;
    for (Addr a = 0; a < mem.size(); a += page)
        if (mem.pageWritten(a))
            written.push_back(a / page);
    EXPECT_EQ(written, (std::vector<Addr>{1, 2, 4, 6, 7, 8, 9, 15}));
    // Reads and empty block writes mark nothing.
    mem.read64(11 * page);
    mem.writeBlock(12 * page, block.data(), 0);
    EXPECT_FALSE(mem.pageWritten(11 * page));
    EXPECT_FALSE(mem.pageWritten(12 * page));
}

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

TEST(Cache, RecycledLinesStartInvalid)
{
    onOwnThread([] {
        const CacheParams params{"c", 64 * 1024, 64, 4, 1};
        const Addr span = 2 * params.size_bytes;
        {
            Cache cache(params);
            bool hit = false;
            for (Addr a = 0; a < span; a += params.line_bytes)
                cache.access(a, true, hit);
        }
        Cache cache(params);
        for (Addr a = 0; a < span; a += params.line_bytes)
            ASSERT_FALSE(cache.contains(a)) << "addr " << a;
        bool hit = true;
        cache.access(span - params.line_bytes, false, hit);
        EXPECT_FALSE(hit);
        EXPECT_EQ(cache.hits(), 0u);
    });
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
    // and in every counter at every step. The memo side keeps its refs
    // in 4-entry tables, as the core does, so lines and pages alias,
    // and the core's next-line fetch shares the demand fetch's table.
    auto [size_kb, assoc] = GetParam();
    const std::vector<CacheParams> levels = {
        {"l1", std::uint64_t(size_kb) * 1024, 64, std::uint32_t(assoc), 2},
        {"l2", 64 * 1024, 64, 8, 10}};
    CacheHierarchy plain(levels, 100), memo(levels, 100);
    const TlbParams tlb_params{"tlb", 16, 4, 4096, 30};
    Tlb plain_tlb(tlb_params), memo_tlb(tlb_params);
    RefTable<Cache::Ref, 4, 6> refs;
    RefTable<Tlb::Ref, 4, 12> tlb_refs;
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
                      memo.accessRef(addr, write, refs[addr]))
                << "step " << i;
            if (rng.chance(1, 2)) {
                const Addr next_line = (addr & ~Addr{63}) + 64;
                ASSERT_EQ(plain.access(next_line, false),
                          memo.accessRef(next_line, false,
                                         refs[next_line]))
                    << "step " << i;
            }
            ASSERT_EQ(plain_tlb.access(addr),
                      memo_tlb.accessRef(addr, tlb_refs[addr]))
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
