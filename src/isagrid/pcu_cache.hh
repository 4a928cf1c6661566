/**
 * @file
 * The domain privilege caches of Section 4.3.
 *
 * Fully associative, true-LRU caches used by the PCU for the three HPT
 * structures and the SGT. Tags carry the domain id, so no flush is
 * needed on a domain switch. Lookup counting doubles as the dynamic-
 * energy proxy for the cache-bypass evaluation: a fully associative
 * lookup compares every entry's tag, so `lookups * entries` CAM
 * compares is the figure the bypass mechanism reduces.
 */

#ifndef ISAGRID_ISAGRID_PCU_CACHE_HH_
#define ISAGRID_ISAGRID_PCU_CACHE_HH_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace isagrid {

/**
 * A fully associative LRU cache mapping a 64-bit tag to a payload.
 *
 * Host layout: three parallel arrays in one allocation. The tags sit
 * in one contiguous array, so a probe is a linear compare over 8-byte
 * words. Beside them, each entry's LRU stamp doubles as its valid bit
 * (stamps start at 1; 0 marks an invalid entry), and the payloads
 * follow. A missing lookup() also picks the victim (the last invalid
 * slot, else the least recently used) and remembers it, so the fill()
 * that follows the miss needs no second scan. The memo is dropped by
 * every state change that could move the victim, so the victim is
 * always the one a full scan would pick.
 *
 * @tparam Payload  entry payload (a 64-bit HPT word or an SgtEntry)
 */
template <typename Payload>
class PcuCache
{
  public:
    PcuCache(std::string name, std::uint32_t num_entries)
        : name_(std::move(name)), statGroup(name_), size_(num_entries)
    {
        if (size_ > 0) {
            // Zeroed, so every stamp starts 0 (invalid); a payload is
            // read only after fill() wrote it.
            storage_ = std::make_unique<std::byte[]>(
                std::size_t(size_) *
                (2 * sizeof(std::uint64_t) + sizeof(Payload)));
            tags_ = reinterpret_cast<std::uint64_t *>(storage_.get());
            stamps_ = tags_ + size_;
            payloads_ = reinterpret_cast<Payload *>(stamps_ + size_);
        }
        statGroup.addCounter("hits", hitCount, "tag matches");
        statGroup.addCounter("misses", missCount, "fills from memory");
        statGroup.addCounter("lookups", lookupCount,
                             "associative searches (energy proxy)");
        statGroup.addCounter("flushes", flushCount, "pflh invalidations");
        statGroup.addFormula("hit_rate", [this] {
            double total = double(hitCount.value() + missCount.value());
            return total == 0 ? 0.0 : double(hitCount.value()) / total;
        }, "hits / probes");
    }

    std::uint32_t numEntries() const { return size_; }

    /**
     * Attach a trace buffer: lookup/fill/flushAll then emit cache
     * events stamped with @p id (one of the kTraceCache* constants).
     */
    void
    setTrace(TraceBuffer *trace, std::uint16_t id)
    {
        trace_ = trace;
        traceId = id;
    }

    /** Probe; on hit copies payload into @p out. Counts a CAM lookup. */
    bool
    lookup(std::uint64_t tag, Payload &out)
    {
        ++lookupCount;
        std::uint32_t i = find(tag);
        if (i != kNone) {
            stamps_[i] = ++lruClock;
            out = payloads_[i];
            ++hitCount;
            missVictim_ = kNone; // the LRU order moved
            ISAGRID_TRACE_EVENT(trace_, TraceKind::CacheHit, tag, 0,
                                traceId);
            return true;
        }
        ++missCount;
        if (size_ > 0) {
            missTag_ = tag;
            missVictim_ = victim();
        }
        ISAGRID_TRACE_EVENT(trace_, TraceKind::CacheMiss, tag, 0,
                            traceId);
        return false;
    }

    /**
     * Probe without hit/miss stats or LRU update (prefetch presence
     * check). Still a real CAM search in hardware, so it counts toward
     * the `lookups` energy proxy.
     */
    bool
    contains(std::uint64_t tag)
    {
        ++lookupCount;
        return find(tag) != kNone;
    }

    /** Insert (or update) an entry, evicting the LRU victim. */
    void
    fill(std::uint64_t tag, const Payload &payload)
    {
        if (size_ == 0)
            return;
        std::uint32_t v = missVictim_;
        missVictim_ = kNone;
        if (v == kNone || missTag_ != tag) {
            // No miss of this tag since the last change: an existing
            // entry with this tag must win over any victim candidate,
            // or the CAM ends up holding the same tag twice (and
            // lookups could then return a stale payload).
            std::uint32_t i = find(tag);
            if (i != kNone) { // update in place
                payloads_[i] = payload;
                stamps_[i] = ++lruClock;
                return;
            }
            v = victim();
        }
        tags_[v] = tag;
        payloads_[v] = payload;
        stamps_[v] = ++lruClock;
        ISAGRID_TRACE_EVENT(trace_, TraceKind::CacheFill, tag, 0,
                            traceId);
    }

    /** Invalidate everything (pflh). */
    void
    flushAll()
    {
        ++flushCount;
        missVictim_ = kNone;
        std::fill_n(stamps_, size_, 0);
        ISAGRID_TRACE_EVENT(trace_, TraceKind::CacheFlush, 0, 0,
                            traceId);
    }

    /**
     * Invalidate the entry holding @p tag, if present. A selective
     * CAM invalidation (the single-entry analogue of pflh); leaves an
     * invalid slot in the middle of the array, which fill() must
     * handle without duplicating a matching entry further on.
     */
    void
    flushTag(std::uint64_t tag)
    {
        std::uint32_t i = find(tag);
        if (i != kNone) {
            stamps_[i] = 0;
            missVictim_ = kNone;
        }
    }

    std::uint64_t hits() const { return hitCount.value(); }
    std::uint64_t misses() const { return missCount.value(); }
    std::uint64_t lookups() const { return lookupCount.value(); }

    /** Total CAM tag compares performed (energy proxy). */
    std::uint64_t camCompares() const
    {
        return lookupCount.value() * size_;
    }

    StatGroup &stats() { return statGroup; }
    const std::string &name() const { return name_; }

  private:
    // The payloads live in raw storage_, never constructed or
    // destroyed: only plain data may sit there.
    static_assert(std::is_trivially_copyable_v<Payload> &&
                  std::is_trivially_destructible_v<Payload>);

    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** Index of the valid entry holding @p tag, or kNone. */
    std::uint32_t
    find(std::uint64_t tag) const
    {
        for (std::uint32_t i = 0; i < size_; ++i)
            if (tags_[i] == tag && stamps_[i] != 0)
                return i;
        return kNone;
    }

    /**
     * The replacement victim: the last invalid slot, else the LRU.
     * With invalid stamps at 0 and valid ones unique, that is the
     * last slot holding the smallest stamp.
     */
    std::uint32_t
    victim() const
    {
        std::uint32_t v = 0;
        for (std::uint32_t i = 1; i < size_; ++i)
            if (stamps_[i] <= stamps_[v])
                v = i;
        return v;
    }

    std::string name_;
    Counter hitCount;
    Counter missCount;
    Counter lookupCount;
    Counter flushCount;
    StatGroup statGroup;
    std::uint32_t size_;
    /** One allocation: size_ tags, size_ stamps, size_ payloads. */
    std::unique_ptr<std::byte[]> storage_;
    std::uint64_t *tags_ = nullptr;
    std::uint64_t *stamps_ = nullptr; //!< LRU stamp; 0 = invalid
    Payload *payloads_ = nullptr;
    std::uint64_t lruClock = 0;
    /** Victim picked by the last missing lookup() (see class comment). */
    std::uint32_t missVictim_ = kNone;
    std::uint64_t missTag_ = 0;
    TraceBuffer *trace_ = nullptr;
    std::uint16_t traceId = 0;
};

} // namespace isagrid

#endif // ISAGRID_ISAGRID_PCU_CACHE_HH_
