/**
 * @file
 * A small statistics package in the spirit of gem5's Stats.
 *
 * Statistics are registered with a StatGroup which can render them as a
 * sorted name/value table. Scalar counters are plain uint64 with helper
 * arithmetic; Formula produces derived values (e.g. hit rates) lazily at
 * dump time.
 */

#ifndef ISAGRID_SIM_STATS_HH_
#define ISAGRID_SIM_STATS_HH_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace isagrid {

class StatGroup;

/** A monotonically increasing scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A distribution statistic with power-of-two buckets.
 *
 * sample(v) records v into bucket 0 for v == 0 and bucket i for
 * v in [2^(i-1), 2^i - 1]; values past the last bucket clamp into it.
 * Tracks count/min/max/sum/sum-of-squares so mean and stddev render
 * exactly regardless of bucketing. Registered via
 * StatGroup::addHistogram, which exposes name.count/min/max/mean/
 * stddev plus one name.bucketNN entry per bucket.
 */
class Histogram
{
  public:
    explicit Histogram(unsigned num_buckets = 16)
        : buckets_(num_buckets ? num_buckets : 1, 0)
    {
    }

    void
    sample(std::uint64_t value)
    {
        // Bucket i >= 1 holds [2^(i-1), 2^i - 1]: the bit width of v.
        const std::size_t last = buckets_.size() - 1;
        ++buckets_[std::min<std::size_t>(std::bit_width(value), last)];
        ++count_;
        sum_ += value;
        sumSquares_ += double(value) * double(value);
        if (count_ == 1 || value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    std::uint64_t sum() const { return sum_; }
    double mean() const;
    double stddev() const;

    unsigned numBuckets() const { return unsigned(buckets_.size()); }
    std::uint64_t bucketCount(unsigned i) const { return buckets_[i]; }

    /** Inclusive [lo, hi] value range of bucket @p i (hi clamps). */
    std::uint64_t bucketLow(unsigned i) const;
    std::uint64_t bucketHigh(unsigned i) const;

    void reset();

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t sum_ = 0;
    double sumSquares_ = 0.0;
};

/**
 * A named collection of statistics. Groups can nest; dump() renders the
 * whole subtree with dotted names.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a counter under this group. Counter must outlive group. */
    void
    addCounter(const std::string &name, const Counter &counter,
               const std::string &desc = "")
    {
        entries_.push_back({name, desc,
                            [&counter] { return double(counter.value()); }});
    }

    /** Register a derived value computed at dump time. */
    void
    addFormula(const std::string &name, std::function<double()> fn,
               const std::string &desc = "")
    {
        entries_.push_back({name, desc, std::move(fn)});
    }

    /**
     * Register a histogram under this group. Expands into
     * name.count/min/max/mean/stddev plus zero-padded name.bucketNN
     * entries so the distribution renders in dump() and resolves via
     * lookup(). Histogram must outlive the group.
     */
    void addHistogram(const std::string &name, const Histogram &hist,
                      const std::string &desc = "");

    /** Attach a child group (not owned). */
    void addChild(StatGroup &child) { children_.push_back(&child); }

    const std::string &name() const { return name_; }

    /** Render "prefix.name  value  # desc" lines for this subtree. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Fetch a dumped value by dotted name; NaN when absent. */
    double lookup(const std::string &dotted) const;

    /**
     * Collect every dumped value of this subtree into @p out, keyed by
     * dotted name (prefixed like dump()'s rendering).
     */
    void values(const std::string &prefix,
                std::map<std::string, double> &out) const;

    /** Render this subtree as one sorted JSON object. */
    void dumpJson(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Render a name->value map as a sorted JSON object. NaN and
     * infinities become null; integral values print without an
     * exponent so golden files stay readable.
     */
    static void writeJson(std::ostream &os,
                          const std::map<std::string, double> &values);

  private:
    struct Entry
    {
        std::string name;
        std::string desc;
        std::function<double()> value;
    };

    void collect(const std::string &prefix,
                 std::map<std::string, const Entry *> &out) const;

    std::string name_;
    std::vector<Entry> entries_;
    std::vector<StatGroup *> children_;
};

} // namespace isagrid

#endif // ISAGRID_SIM_STATS_HH_
