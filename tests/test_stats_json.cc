/**
 * @file
 * Histogram statistic semantics and a golden-file lock on the
 * `--stats-json` output schema: the full Machine::dumpStatsJson key
 * set of a freshly built rocket() machine (every modeled stat plus
 * the `host.*` decode-cache/block-engine counters), values all zero
 * or null because the machine never runs.
 *
 * The golden file is tests/data/stats_dump.golden.json; regenerate it
 * deliberately with ISAGRID_REGEN_GOLDEN=1 after an intentional
 * schema change and commit the diff.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "cpu/machine.hh"
#include "sim/stats.hh"

using namespace isagrid;

namespace {

std::string
goldenPath()
{
    return std::string(TEST_DATA_DIR) + "/stats_dump.golden.json";
}

/**
 * A group exercising every renderer branch: integral and fractional
 * counters, a NaN formula (null in JSON), a nested child group, and a
 * histogram with samples across several buckets.
 */
struct SampleStats
{
    Counter hits;
    Counter misses;
    Histogram latency{6};
    StatGroup group{"pcu"};
    StatGroup child{"cache"};

    SampleStats()
    {
        hits += 1500;
        misses += 42;
        for (std::uint64_t v : {0, 1, 2, 3, 8, 40, 100})
            latency.sample(v);

        group.addCounter("hits", hits, "lookup hits");
        group.addFormula("hit_rate", [this] {
            return double(hits.value()) /
                   double(hits.value() + misses.value());
        });
        group.addFormula("undefined", [] { return std::nan(""); });
        group.addHistogram("latency", latency, "stall cycles");
        child.addCounter("misses", misses);
        group.addChild(child);
    }
};

} // namespace

TEST(Histogram, BucketsByPowerOfTwoWithExactMoments)
{
    Histogram h{4};
    // bucket 0: v == 0; bucket 1: [1, 1]; bucket 2: [2, 3];
    // bucket 3 (last): [4, inf) — values past the end clamp into it.
    for (std::uint64_t v : {0, 1, 2, 3, 4, 1000})
        h.sample(v);

    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(h.bucketCount(3), 2u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.sum(), 1010u);
    // Moments are exact regardless of the bucket a sample landed in.
    EXPECT_DOUBLE_EQ(h.mean(), 1010.0 / 6.0);
    EXPECT_NEAR(h.stddev(), 407.434, 0.001);

    EXPECT_EQ(h.bucketLow(0), 0u);
    EXPECT_EQ(h.bucketHigh(0), 0u);
    EXPECT_EQ(h.bucketLow(2), 2u);
    EXPECT_EQ(h.bucketHigh(2), 3u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucketCount(3), 0u);
    EXPECT_EQ(h.min(), 0u);
}

TEST(Histogram, BucketBoundaries)
{
    // Bucket i >= 1 holds [2^(i-1), 2^i - 1]; values past the last
    // bucket clamp into it, however large.
    Histogram wide{16};
    Histogram single{1};
    auto bucket_of = [](Histogram &h, std::uint64_t v) {
        h.reset();
        h.sample(v);
        for (unsigned i = 0; i < h.numBuckets(); ++i)
            if (h.bucketCount(i) == 1)
                return i;
        return ~0u;
    };
    EXPECT_EQ(bucket_of(wide, 0), 0u);
    EXPECT_EQ(bucket_of(wide, 1), 1u);
    EXPECT_EQ(bucket_of(wide, 2), 2u);
    for (unsigned k = 1; k < 15; ++k) {
        EXPECT_EQ(bucket_of(wide, (std::uint64_t{1} << k) - 1), k)
            << "2^" << k << " - 1";
        EXPECT_EQ(bucket_of(wide, std::uint64_t{1} << k), k + 1)
            << "2^" << k;
    }
    EXPECT_EQ(bucket_of(wide, (std::uint64_t{1} << 15) - 1), 15u);
    EXPECT_EQ(bucket_of(wide, std::uint64_t{1} << 15), 15u);
    EXPECT_EQ(bucket_of(wide, std::uint64_t{1} << 63), 15u);
    EXPECT_EQ(bucket_of(wide, ~std::uint64_t{0}), 15u);
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{2}, std::uint64_t{1} << 63})
        EXPECT_EQ(bucket_of(single, v), 0u) << v;
}

TEST(Histogram, RegistersInAStatGroup)
{
    Histogram h{4};
    h.sample(5);
    h.sample(7);
    StatGroup group{"g"};
    group.addHistogram("lat", h);

    EXPECT_DOUBLE_EQ(group.lookup("g.lat.count"), 2.0);
    EXPECT_DOUBLE_EQ(group.lookup("g.lat.min"), 5.0);
    EXPECT_DOUBLE_EQ(group.lookup("g.lat.max"), 7.0);
    EXPECT_DOUBLE_EQ(group.lookup("g.lat.mean"), 6.0);
    EXPECT_DOUBLE_EQ(group.lookup("g.lat.bucket03"), 2.0);
    EXPECT_TRUE(std::isnan(group.lookup("g.lat.bucket99")));
}

TEST(StatsJson, DumpMatchesGoldenFile)
{
    // A never-run machine renders deterministically (zero counters,
    // null formulas), so the golden locks the complete key schema —
    // including the host.* block-engine and decode-cache counters,
    // present with zeros even though only the decode cache is on.
    auto machine = Machine::rocket();
    std::stringstream ss;
    machine->dumpStatsJson(ss);
    std::string actual = ss.str();

    if (std::getenv("ISAGRID_REGEN_GOLDEN")) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << actual;
        GTEST_SKIP() << "golden file regenerated at " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing golden file " << goldenPath()
                    << " (run once with ISAGRID_REGEN_GOLDEN=1)";
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(actual, buf.str())
        << "--stats-json schema drifted; if intentional, regenerate "
           "with ISAGRID_REGEN_GOLDEN=1 and commit";
}

TEST(StatsJson, RendersValuesByKind)
{
    SampleStats stats;
    std::stringstream ss;
    stats.group.dumpJson(ss);
    std::string json = ss.str();

    EXPECT_EQ(json.front(), '{');
    // Integral values print without an exponent, NaN becomes null,
    // nested child names are dotted, histogram entries expand.
    EXPECT_NE(json.find("\"pcu.hits\": 1500"), std::string::npos);
    EXPECT_NE(json.find("\"pcu.undefined\": null"), std::string::npos);
    EXPECT_NE(json.find("\"pcu.cache.misses\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"pcu.latency.count\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"pcu.latency.bucket00\": 1"),
              std::string::npos);
    EXPECT_EQ(json.find("e+"), std::string::npos);
}
