#include "mem/zero_pages.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "sim/logging.hh"

namespace isagrid::zero_pages {

namespace {

std::size_t
pageBytes()
{
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

unsigned
log2Page()
{
    static const unsigned shift = [] {
        unsigned s = 0;
        while ((std::size_t{1} << s) < pageBytes())
            ++s;
        return s;
    }();
    return shift;
}

/**
 * Mapped bytes (guard page included) for @p count elements of
 * @p elem_size, or 0 when the size does not fit a size_t.
 */
std::size_t
mappedLength(std::size_t count, std::size_t elem_size)
{
    std::size_t page = pageBytes();
    std::size_t bytes = 0;
    if (__builtin_mul_overflow(count, elem_size, &bytes) ||
        bytes > SIZE_MAX - 2 * page)
        return 0;
    return ((bytes + page - 1) & ~(page - 1)) + page;
}

/**
 * Enough for the arrays of a few machines at a time (PhysMem's two,
 * the decode cache and three or four cache levels each): a fuzz case
 * and the analyzers that replay it hold a handful at once.
 */
constexpr std::size_t kKeptMappings = 64;

/**
 * Distinct pages a kept mapping may hold resident (zeroed) across its
 * uses before recycle() hands them all back to the host.
 */
constexpr std::size_t kResidentBytes = 4u << 20;

/** This thread's recycled mappings, unmapped when the thread exits. */
struct Kept
{
    std::vector<Mapping> mappings;

    ~Kept();
};

/** Set once the thread's Kept is gone: recycle() then unmaps. */
thread_local bool keptGone = false;

Kept &
kept()
{
    thread_local Kept k;
    return k;
}

Kept::~Kept()
{
    for (const Mapping &m : mappings)
        unmap(m);
    mappings.clear();
    keptGone = true;
}

} // namespace

Mapping
map(std::size_t count, std::size_t elem_size)
{
    if (count == 0)
        return {};
    std::size_t length = mappedLength(count, elem_size);
    if (length != 0) {
        std::size_t body = length - pageBytes();
        void *base = mmap(nullptr, length, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base != MAP_FAILED) {
            auto *bytes_at = static_cast<char *>(base);
            if (mprotect(bytes_at + body, pageBytes(), PROT_NONE) == 0) {
                // Small pages only: a host that backs anonymous memory
                // with huge pages by default would zero 2 MB on each
                // first touch, most of which a run never reads.
                madvise(base, body, MADV_NOHUGEPAGE);
                Mapping m;
                m.base = base;
                m.length = length;
                m.data = bytes_at + (body - count * elem_size);
                m.page_shift = log2Page();
                return m;
            }
            munmap(base, length);
        }
    }
    fatal("zero pages: cannot map %zu x %zu bytes", count, elem_size);
}

Mapping
reuse(std::size_t count, std::size_t elem_size)
{
    std::size_t length = count ? mappedLength(count, elem_size) : 0;
    if (length != 0 && !keptGone) {
        std::vector<Mapping> &mappings = kept().mappings;
        for (std::size_t i = mappings.size(); i-- > 0;) {
            if (mappings[i].length != length)
                continue;
            Mapping m = std::move(mappings[i]);
            mappings.erase(mappings.begin() + std::ptrdiff_t(i));
            std::size_t body = length - pageBytes();
            m.data = static_cast<char *>(m.base) +
                     (body - count * elem_size);
            return m;
        }
    }
    return map(count, elem_size);
}

void
unmap(const Mapping &m)
{
    if (m.base)
        munmap(m.base, m.length);
}

void
recycle(Mapping &m)
{
    if (!m.base)
        return;
    if (keptGone || kept().mappings.size() >= kKeptMappings) {
        unmap(m);
        m = {};
        return;
    }
    std::size_t page = pageBytes();
    auto *base = static_cast<char *>(m.base);
    m.resident.resize(m.written.size());
    for (std::size_t w = 0; w < m.written.size(); ++w) {
        std::uint64_t added = m.written[w] & ~m.resident[w];
        m.resident_pages += std::size_t(__builtin_popcountll(added));
        m.resident[w] |= m.written[w];
    }
    if (m.resident_pages * page > kResidentBytes) {
        // Zero by releasing: the next touch of any page faults in a
        // fresh zero page, as on a new mapping.
        if (madvise(base, m.length - page, MADV_DONTNEED) != 0) {
            unmap(m);
            m = {};
            return;
        }
        std::fill(m.resident.begin(), m.resident.end(), 0);
        m.resident_pages = 0;
    } else {
        for (std::size_t w = 0; w < m.written.size(); ++w) {
            for (std::uint64_t bits = m.written[w]; bits;
                 bits &= bits - 1) {
                std::size_t index =
                    w * 64 + std::size_t(__builtin_ctzll(bits));
                std::memset(base + index * page, 0, page);
            }
        }
    }
    std::fill(m.written.begin(), m.written.end(), 0);
    kept().mappings.push_back(std::move(m));
    m = {};
}

} // namespace isagrid::zero_pages
