#include "mem/cache.hh"

#include <memory>

#include "sim/logging.hh"

namespace isagrid {

namespace {

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheParams &params)
    : params_(params), statGroup(params.name)
{
    if (!isPowerOfTwo(params_.line_bytes))
        fatal("cache %s: line size must be a power of two",
              params_.name.c_str());
    std::uint64_t num_lines = params_.size_bytes / params_.line_bytes;
    if (num_lines == 0 || num_lines % params_.assoc != 0)
        fatal("cache %s: size/line/assoc combination invalid",
              params_.name.c_str());
    numSets = static_cast<std::uint32_t>(num_lines / params_.assoc);
    if (!isPowerOfTwo(numSets))
        fatal("cache %s: set count must be a power of two",
              params_.name.c_str());
    while ((std::uint64_t{1} << lineShift) < params_.line_bytes)
        ++lineShift;
    tagShift = lineShift;
    while ((std::uint64_t{1} << (tagShift - lineShift)) < numSets)
        ++tagShift;
    lines = ZeroPages<Line>::reuse(num_lines);

    statGroup.addCounter("hits", hitCount, "demand hits");
    statGroup.addCounter("misses", missCount, "demand misses");
    statGroup.addCounter("writebacks", writebackCount,
                         "dirty lines evicted");
    statGroup.addFormula("hit_rate", [this] {
        double total = double(hitCount.value() + missCount.value());
        return total == 0 ? 0.0 : double(hitCount.value()) / total;
    }, "hits / accesses");
}

Cache::~Cache()
{
    lines.recycle();
}

bool
Cache::contains(Addr addr) const
{
    std::uint64_t set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    for (std::uint32_t way = 0; way < params_.assoc; ++way) {
        const Line &line = lines[set * params_.assoc + way];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

void
Cache::flushAll()
{
    // Writes only valid lines, so a flush leaves never-filled pages of
    // a large level unallocated.
    for (auto &line : lines) {
        if (!line.valid)
            continue;
        if (line.dirty)
            ++writebackCount;
        line.valid = false;
        line.dirty = false;
    }
}

void
Cache::flushLine(Addr addr)
{
    std::uint64_t set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    for (std::uint32_t way = 0; way < params_.assoc; ++way) {
        Line &line = lines[set * params_.assoc + way];
        if (line.valid && line.tag == tag) {
            if (line.dirty)
                ++writebackCount;
            line.valid = false;
            line.dirty = false;
            return;
        }
    }
}

CacheHierarchy::CacheHierarchy(const std::vector<CacheParams> &level_params,
                               Cycle memory_latency)
    : memLatency(memory_latency), statGroup("hierarchy")
{
    for (const auto &p : level_params) {
        levels.push_back(std::make_unique<Cache>(p));
        statGroup.addChild(levels.back()->stats());
    }
    if (!levels.empty()) {
        l1_ = levels.front().get();
        l1Hit_ = l1_->params().hit_latency;
    }
    statGroup.addCounter("mem_accesses", memAccesses,
                         "accesses reaching main memory");
}

bool
CacheHierarchy::l1Contains(Addr addr) const
{
    return !levels.empty() && levels.front()->contains(addr);
}

void
CacheHierarchy::flushAll()
{
    for (auto &level : levels)
        level->flushAll();
}

Cycle
CacheHierarchy::missLatency() const
{
    Cycle total = memLatency;
    for (const auto &level : levels)
        total += level->params().hit_latency;
    return total;
}

} // namespace isagrid
