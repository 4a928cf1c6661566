/**
 * @file
 * A set-associative write-back cache timing model.
 *
 * The model tracks tags only (data lives in PhysMem); an access returns
 * the latency it would have taken, including fills from the next level.
 * This is sufficient for the paper's evaluation, which reports cycle
 * counts and hit rates rather than data movement.
 */

#ifndef ISAGRID_MEM_CACHE_HH_
#define ISAGRID_MEM_CACHE_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/zero_pages.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace isagrid {

/** Configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t size_bytes = 32 * 1024;
    std::uint32_t line_bytes = 64;
    std::uint32_t assoc = 4;
    Cycle hit_latency = 2;
};

/**
 * One level of a cache hierarchy with true-LRU replacement.
 *
 * access() returns the number of cycles this level adds. On a miss the
 * caller (CacheHierarchy) recurses into the next level and the line is
 * filled here.
 */
class Cache
{
  private:
    struct Line;

  public:
    explicit Cache(const CacheParams &params);

    /** Hands the line array back for the next machine (zero_pages.hh). */
    ~Cache();

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /**
     * A memoized reference to the line a previous access() hit or
     * filled, letting a hot caller (the core's fetch and data
     * timing) skip the set scan when it re-touches the same line.
     *
     * refHit() is *exact*, not approximate: it revalidates the full
     * line identity (address, residency, tag) — precisely access()'s
     * hit condition — and on success performs precisely access()'s
     * hit-path mutations (LRU touch, dirty bit, hit counter). Any
     * intervening eviction, flush or address change simply fails the
     * revalidation and the caller falls back to access(), so timing,
     * replacement state and stats are bit-identical either way.
     */
    class Ref
    {
        friend class Cache;
        Line *line = nullptr;
        std::uint64_t tag = 0;
        std::uint64_t lba = ~std::uint64_t{0}; //!< addr >> lineShift
    };

    /** Hit-only fast path over @p r (see Ref); false = use access(). */
    bool
    refHit(Ref &r, Addr addr, bool is_write)
    {
        if ((addr >> lineShift) != r.lba) [[unlikely]]
            return false;
        Line *line = r.line;
        if (!line->valid || line->tag != r.tag) [[unlikely]]
            return false;
        line->lru = ++lruClock;
        line->dirty = line->dirty || is_write;
        ++hitCount;
        return true;
    }

    /**
     * Look up the line containing addr, filling it on a miss.
     * @param addr      byte address of the access
     * @param is_write  marks the line dirty on hit/fill
     * @param hit       out-parameter: whether this level hit
     * @param ref       optional: memoize the touched line for refHit()
     * @return latency contributed by this level (its hit latency)
     */
    Cycle access(Addr addr, bool is_write, bool &hit,
                 Ref *ref = nullptr);

    /** Invalidate every line (e.g. wbinvd). */
    void flushAll();

    /** Invalidate the line containing addr if present. */
    void flushLine(Addr addr);

    const CacheParams &params() const { return params_; }
    StatGroup &stats() { return statGroup; }

    std::uint64_t hits() const { return hitCount.value(); }
    std::uint64_t misses() const { return missCount.value(); }

  private:
    /** All zero bytes is an invalid line (a ZeroPages slot). */
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t lru = 0; // larger == more recently used
    };

    // Line size and set count are powers of two (enforced by the
    // constructor), so indexing is shift/mask work, not division —
    // this runs 2-3 times per simulated instruction.
    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> lineShift) & (numSets - 1);
    }

    std::uint64_t tagOf(Addr addr) const { return addr >> tagShift; }

    CacheParams params_;
    std::uint32_t numSets;
    unsigned lineShift = 0; //!< log2(line_bytes)
    unsigned tagShift = 0;  //!< log2(line_bytes * numSets)
    ZeroPages<Line> lines; // numSets * assoc; untouched until filled
                           // (fills mark their page written)
    std::uint64_t lruClock = 0;

    Counter hitCount;
    Counter missCount;
    Counter writebackCount;
    StatGroup statGroup;
};

inline Cycle
Cache::access(Addr addr, bool is_write, bool &hit, Ref *ref)
{
    std::uint64_t set = setIndex(addr);
    std::uint64_t tag = tagOf(addr);
    Line *victim = nullptr;
    for (std::uint32_t way = 0; way < params_.assoc; ++way) {
        Line &line = lines[set * params_.assoc + way];
        if (line.valid && line.tag == tag) {
            line.lru = ++lruClock;
            line.dirty = line.dirty || is_write;
            ++hitCount;
            hit = true;
            if (ref) {
                ref->line = &line;
                ref->tag = tag;
                ref->lba = addr >> lineShift;
            }
            return params_.hit_latency;
        }
        if (!victim || !line.valid ||
            (victim->valid && line.lru < victim->lru)) {
            victim = &line;
        }
    }

    ++missCount;
    hit = false;
    // The one write to a line that may never have been touched: any
    // later write (hit, flush, invalidate) finds it valid.
    lines.markWritten(static_cast<std::size_t>(victim - lines.data()));
    if (victim->valid && victim->dirty)
        ++writebackCount;
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lru = ++lruClock;
    if (ref) {
        ref->line = victim;
        ref->tag = tag;
        ref->lba = addr >> lineShift;
    }
    return params_.hit_latency;
}

/**
 * A stack of cache levels in front of main memory.
 *
 * access() walks levels from L1 outward, accumulating latency, and
 * returns the total access latency in cycles.
 */
class CacheHierarchy
{
  public:
    /**
     * @param level_params  parameters for each level, innermost first
     * @param memory_latency cycles for a DRAM access after last-level miss
     */
    CacheHierarchy(const std::vector<CacheParams> &level_params,
                   Cycle memory_latency);

    /** Timed access; returns total latency in cycles. */
    Cycle
    access(Addr addr, bool is_write)
    {
        Cycle latency = 0;
        for (auto &level : levels) {
            bool hit = false;
            latency += level->access(addr, is_write, hit);
            if (hit)
                return latency;
        }
        ++memAccesses;
        return latency + memLatency;
    }

    /**
     * Timed access through a memoized L1 line ref (see Cache::Ref):
     * bit-identical to access() in latency, replacement state and
     * stats, but skips the L1 set scan when @p ref still covers the
     * touched line. The ref is refreshed on the fallback path, so the
     * next same-line access fast-paths again.
     */
    Cycle
    accessRef(Addr addr, bool is_write, Cache::Ref &ref)
    {
        if (l1_ && l1_->refHit(ref, addr, is_write)) [[likely]]
            return l1Hit_;
        Cycle latency = 0;
        for (std::size_t i = 0; i < levels.size(); ++i) {
            bool hit = false;
            latency += levels[i]->access(addr, is_write, hit,
                                         i == 0 ? &ref : nullptr);
            if (hit)
                return latency;
        }
        ++memAccesses;
        return latency + memLatency;
    }

    /** Untimed probe of the first level. */
    bool l1Contains(Addr addr) const;

    /** Invalidate all levels. */
    void flushAll();

    Cache &level(std::size_t i) { return *levels[i]; }
    std::size_t numLevels() const { return levels.size(); }
    Cycle memoryLatency() const { return memLatency; }

    /** Worst-case (all-miss) latency; used for sizing expectations. */
    Cycle missLatency() const;

    StatGroup &stats() { return statGroup; }

  private:
    std::vector<std::unique_ptr<Cache>> levels;
    Cache *l1_ = nullptr;  //!< levels[0], hoisted for accessRef()
    Cycle l1Hit_ = 0;      //!< l1_->params().hit_latency
    Cycle memLatency;
    Counter memAccesses;
    StatGroup statGroup;
};

} // namespace isagrid

#endif // ISAGRID_MEM_CACHE_HH_
