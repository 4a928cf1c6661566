/**
 * @file
 * Flat physical memory backing the simulated machine.
 *
 * Besides the byte array, the memory keeps one monotonically
 * increasing *write generation* per 64-byte line. Every store —
 * single-byte, multi-byte or block — bumps the generation of each
 * line it touches. Host-side memoization layers (the core's
 * decoded-instruction cache, src/cpu/decode_cache.hh) snapshot the
 * generations of the lines backing a cached datum and revalidate them
 * on lookup, which makes invalidation on self-modifying code *exact*:
 * any store into a cached line, from any writer, is observed.
 *
 * The memory also keeps one *written* bit per 4 KB page, set by the
 * same writers: a page whose bit is clear has never been stored to
 * and still reads as zeros, so a whole-memory scan (the fuzzer's
 * artifact capture) skips it without touching its bytes or its line
 * generations. Both arrays are ZeroPages, so a machine that never
 * touches most of its memory never pages it in; the same bits tell the
 * destructor which pages to zero before it recycles them.
 */

#ifndef ISAGRID_MEM_PHYS_MEM_HH_
#define ISAGRID_MEM_PHYS_MEM_HH_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mem/zero_pages.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace isagrid {

/**
 * A contiguous byte-addressable physical memory starting at address 0.
 * Out-of-range accesses panic: the guest software we run is generated by
 * our own builders, so a stray access is a simulator bug, not user error.
 */
class PhysMem
{
  public:
    /** Write-generation tracking granularity (64-byte lines). */
    static constexpr unsigned kLineShift = 6;
    static constexpr std::size_t kLineBytes = 1u << kLineShift;

    /** Written-summary granularity (4 KB pages). */
    static constexpr unsigned kPageShift = 12;
    static constexpr std::size_t kPageBytes = 1u << kPageShift;

    explicit PhysMem(std::size_t size_bytes)
        : sizeBytes(size_bytes),
          bytes(ZeroPages<std::uint8_t>::reuse(size_bytes)),
          lineGens(ZeroPages<std::uint64_t>::reuse(
              (size_bytes + kLineBytes - 1) >> kLineShift)),
          writtenPages((((size_bytes + kPageBytes - 1) >> kPageShift) +
                        63) / 64)
    {
    }

    /** Hands both arrays back for the next machine (zero_pages.hh). */
    ~PhysMem()
    {
        for (std::size_t w = 0; w < writtenPages.size(); ++w) {
            for (std::uint64_t bits = writtenPages[w]; bits;
                 bits &= bits - 1) {
                std::size_t page = w * 64 + std::size_t(__builtin_ctzll(bits));
                std::size_t first = page << kPageShift;
                bytes.markWritten(first,
                                  std::min(kPageBytes, sizeBytes - first));
                std::size_t line = first >> kLineShift;
                lineGens.markWritten(
                    line, std::min(kPageBytes >> kLineShift,
                                   lineGens.size() - line));
            }
        }
        bytes.recycle();
        lineGens.recycle();
    }

    PhysMem(const PhysMem &) = delete;
    PhysMem &operator=(const PhysMem &) = delete;

    std::size_t size() const { return sizeBytes; }

    std::uint8_t
    read8(Addr addr) const
    {
        check(addr, 1);
        return bytes[addr];
    }

    void
    write8(Addr addr, std::uint8_t value)
    {
        check(addr, 1);
        bytes[addr] = value;
        bumpLine(addr >> kLineShift);
    }

    std::uint16_t
    read16(Addr addr) const
    {
        return readLe<std::uint16_t>(addr);
    }

    std::uint32_t
    read32(Addr addr) const
    {
        return readLe<std::uint32_t>(addr);
    }

    std::uint64_t
    read64(Addr addr) const
    {
        return readLe<std::uint64_t>(addr);
    }

    void write16(Addr addr, std::uint16_t v) { writeLe(addr, v); }
    void write32(Addr addr, std::uint32_t v) { writeLe(addr, v); }
    void write64(Addr addr, std::uint64_t v) { writeLe(addr, v); }

    /** Bulk copy into guest memory (used by program loaders). */
    void
    writeBlock(Addr addr, const std::uint8_t *data, std::size_t len)
    {
        check(addr, len);
        std::memcpy(bytes.data() + addr, data, len);
        if (len > 0)
            bumpGens(addr, len);
    }

    /** Bulk copy out of guest memory. */
    void
    readBlock(Addr addr, std::uint8_t *data, std::size_t len) const
    {
        check(addr, len);
        std::memcpy(data, bytes.data() + addr, len);
    }

    /**
     * Write generation of the 64-byte line containing @p addr. The
     * caller must have validated the address (the decode cache derives
     * it from a previously inserted, in-range PC).
     */
    std::uint64_t
    lineGen(Addr addr) const
    {
        return lineGens[addr >> kLineShift];
    }

    /**
     * Whether any byte of the 4 KB page containing @p addr has ever
     * been written; false means the page still reads as zeros.
     */
    bool
    pageWritten(Addr addr) const
    {
        std::size_t page = addr >> kPageShift;
        return (writtenPages[page / 64] >> (page % 64)) & 1;
    }

  private:
    template <typename T>
    T
    readLe(Addr addr) const
    {
        check(addr, sizeof(T));
        T v;
        std::memcpy(&v, bytes.data() + addr, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeLe(Addr addr, T v)
    {
        check(addr, sizeof(T));
        std::memcpy(bytes.data() + addr, &v, sizeof(T));
        bumpGens(addr, sizeof(T));
    }

    void
    bumpGens(Addr addr, std::size_t len)
    {
        std::size_t first = addr >> kLineShift;
        std::size_t last = (addr + len - 1) >> kLineShift;
        for (std::size_t line = first; line <= last; ++line)
            bumpLine(line);
    }

    void
    bumpLine(std::size_t line)
    {
        ++lineGens[line];
        std::size_t page = line >> (kPageShift - kLineShift);
        writtenPages[page / 64] |= std::uint64_t{1} << (page % 64);
    }

    void
    check(Addr addr, std::size_t len) const
    {
        if (addr + len > sizeBytes || addr + len < addr) {
            panic("physical access out of range: addr=%#llx len=%zu "
                  "size=%zu", (unsigned long long)addr, len, sizeBytes);
        }
    }

    std::size_t sizeBytes;
    ZeroPages<std::uint8_t> bytes;
    /** Per-line write generations (see file comment). */
    ZeroPages<std::uint64_t> lineGens;
    /** One written bit per 4 KB page (see file comment). */
    std::vector<std::uint64_t> writtenPages;
};

} // namespace isagrid

#endif // ISAGRID_MEM_PHYS_MEM_HH_
