/**
 * @file
 * Lazily zeroed fixed-size arrays for a machine's large host tables.
 *
 * A machine owns a few multi-megabyte arrays (guest memory and its
 * line generations, the decoded-instruction cache, the L2/L3 tag
 * arrays), of which a short run touches a handful of pages. Clearing
 * them up front made building a machine cost milliseconds however
 * little it then ran. ZeroPages<T> backs such an array with a fresh
 * private anonymous mapping instead: the host kernel supplies a zero
 * page on first touch, so building the array costs a few system calls
 * whatever its size, and only the pages a run writes become resident.
 *
 * Contract: a slot whose bytes are all zero is T's empty state. A type
 * stored here must encode "empty" as zero; the decode cache, for
 * example, tags a slot with ~pc because pc 0 is a valid PC.
 *
 * The array ends exactly at one PROT_NONE guard page, so reading or
 * writing one element past the end faults in every build type
 * (sanitizers instrument heap storage, not raw mappings).
 *
 * Recycling. A fresh mapping moves its cost into the run: every page
 * the run touches first takes a page fault, and building and dropping
 * the array costs four system calls. The fuzzer and the analyzers
 * build thousands of short-lived machines, which made the kernel's
 * page-fault and mmap paths about a third of their host time, and
 * those paths are far noisier on a shared host than user-space work.
 * So the owners of a machine's arrays (PhysMem, DecodeCache, Cache)
 * take them with reuse() and hand them back with recycle(): the owner
 * reports each element it writes through markWritten(), recycle()
 * zeroes exactly the pages so marked and keeps the mapping, pages
 * still resident, for this thread's next reuse() of the same size.
 * A recycled array therefore reads all zero like a fresh one, without
 * a fault or a system call. A plain ZeroPages(count) is always a
 * fresh mapping and its destructor always unmaps it.
 */

#ifndef ISAGRID_MEM_ZERO_PAGES_HH_
#define ISAGRID_MEM_ZERO_PAGES_HH_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace isagrid {

namespace zero_pages {

/** A live mapping: @p data is where the caller's bytes start. */
struct Mapping
{
    void *base = nullptr;   //!< start of the mapping (for munmap)
    std::size_t length = 0; //!< mapped bytes, guard page included
    void *data = nullptr;   //!< base + padding; ends at the guard page
    unsigned page_shift = 0; //!< log2 of the host page size
    /** One bit per page from base: written since the last zeroing. */
    std::vector<std::uint64_t> written;
    /** Pages written since the mapping was last released to the host. */
    std::vector<std::uint64_t> resident;
    std::size_t resident_pages = 0; //!< bits set in resident
};

/**
 * Map @p count elements of @p elem_size zero bytes followed by a guard
 * page; fatal() with the requested size when the host refuses. A zero
 * count maps nothing.
 */
Mapping map(std::size_t count, std::size_t elem_size);

/**
 * A mapping of the same length that this thread recycled, if it keeps
 * one, with data placed to end at its guard page; else
 * map(count, elem_size).
 */
Mapping reuse(std::size_t count, std::size_t elem_size);

/** Unmap @p m (no-op for an empty mapping). */
void unmap(const Mapping &m);

/**
 * Zero the pages of @p m marked written and keep it for this thread's
 * next reuse() of the same size, or unmap it when the thread already
 * keeps enough mappings. A kept mapping whose users have written more
 * than a few megabytes of distinct pages releases them all to the host
 * instead, so a kept mapping holds at most that much beyond its last
 * use. Leaves @p m empty.
 */
void recycle(Mapping &m);

} // namespace zero_pages

/** A fixed-size array of zero-initialized T (see file comment). */
template <typename T>
class ZeroPages
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ZeroPages holds plain data whose zero bytes are "
                  "its empty state");

  public:
    ZeroPages() = default;

    explicit ZeroPages(std::size_t count)
        : mapping_(zero_pages::map(count, sizeof(T))), size_(count)
    {
    }

    /**
     * Like ZeroPages(count), but may return a mapping this thread
     * recycled (see file comment); it reads all zero either way.
     */
    static ZeroPages
    reuse(std::size_t count)
    {
        ZeroPages a;
        a.mapping_ = zero_pages::reuse(count, sizeof(T));
        a.size_ = count;
        return a;
    }

    ZeroPages(ZeroPages &&other) noexcept
        : mapping_(std::exchange(other.mapping_, {})),
          size_(std::exchange(other.size_, 0))
    {
    }

    ZeroPages &
    operator=(ZeroPages &&other) noexcept
    {
        if (this != &other) {
            zero_pages::unmap(mapping_);
            mapping_ = std::exchange(other.mapping_, {});
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;

    ~ZeroPages() { zero_pages::unmap(mapping_); }

    T *data() { return static_cast<T *>(mapping_.data); }
    const T *data() const { return static_cast<const T *>(mapping_.data); }
    std::size_t size() const { return size_; }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }

    T *begin() { return data(); }
    T *end() { return data() + size_; }

    /**
     * Note that elements [@p first, @p first + @p count) were written:
     * recycle() zeroes every page they touch.
     */
    void
    markWritten(std::size_t first, std::size_t count = 1)
    {
        if (count == 0)
            return;
        auto &written = mapping_.written;
        std::size_t offset = static_cast<std::size_t>(
            static_cast<char *>(mapping_.data) -
            static_cast<char *>(mapping_.base));
        unsigned shift = mapping_.page_shift;
        std::size_t lo = (offset + first * sizeof(T)) >> shift;
        std::size_t hi = (offset + (first + count) * sizeof(T) - 1) >> shift;
        if (written.empty())
            written.resize(((mapping_.length >> shift) + 63) / 64);
        for (std::size_t page = lo; page <= hi; ++page)
            written[page / 64] |= std::uint64_t{1} << (page % 64);
    }

    /**
     * Zero what markWritten() noted and hand the mapping back for this
     * thread's next reuse() of the same size; this array becomes empty.
     * Every element not so noted must still be zero.
     */
    void
    recycle()
    {
        zero_pages::recycle(mapping_);
        size_ = 0;
    }

  private:
    zero_pages::Mapping mapping_;
    std::size_t size_ = 0;
};

} // namespace isagrid

#endif // ISAGRID_MEM_ZERO_PAGES_HH_
