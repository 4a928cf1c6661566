/**
 * @file
 * Host-side decoded-instruction cache (the simulator fast path).
 *
 * Guest code is static after the builders lay out the image, yet the
 * interpreter used to pay a byte fetch plus a full IsaModel::decode()
 * on every simulated instruction. This cache memoizes the decode by
 * physical PC in a direct-mapped array, together with the per-PC
 * facts the step loop derives from the decode (the classical
 * privilege-level requirement and the legal-instruction-cache
 * eligibility of the ISA-Grid check).
 *
 * Correctness contract:
 *  - A valid DecodedInst of length L is a pure function of the L
 *    bytes at its PC (both ISA models decode strictly within the
 *    encoded length; prefix bytes count toward it).
 *  - Self-modifying code is detected *exactly* through PhysMem's
 *    per-line write generations: an entry snapshots the generations
 *    of the (at most two) 64-byte lines covering [pc, pc+L) at fill
 *    time and revalidates them on every hit. Any store into those
 *    lines — guest stores, loader writeBlock, trusted-memory updates
 *    — bumps a generation and the stale entry re-decodes.
 *
 * The slots are ZeroPages (mem/zero_pages.hh): a fresh cache costs no
 * clearing, and an all-zero slot is empty because an entry is tagged
 * with ~pc (pc 0 is a valid PC; ~0 is never a cached one). insert()
 * marks its slot written, so the destructor can recycle the array.
 *
 * The cache changes *host* time only. Architectural results, cycle
 * counts and every modeled stat (PCU, caches, TLBs) are unaffected:
 * the core still performs the fetch-side trusted-memory check and the
 * icache/ITLB timing accesses on the fast path. Its hit/miss counters
 * are deliberately NOT registered with the stats system — they are
 * host instrumentation, and text dumps must stay bit-identical
 * between cache-on and cache-off runs. Machine::dumpStatsJson
 * surfaces them under `host.decode_cache.*`.
 */

#ifndef ISAGRID_CPU_DECODE_CACHE_HH_
#define ISAGRID_CPU_DECODE_CACHE_HH_

#include <cstdint>

#include "isa/inst.hh"
#include "mem/phys_mem.hh"
#include "mem/zero_pages.hh"
#include "sim/types.hh"

namespace isagrid {

/** Direct-mapped memoization of IsaModel::decode() (see file comment). */
class DecodeCache
{
  public:
    /** One cached decode plus the per-PC facts derived from it. */
    struct Entry
    {
        Addr tag = 0;            //!< ~pc; 0 marks an empty slot
        std::uint64_t gen0 = 0;  //!< fill-time generation, first line
        std::uint64_t gen1 = 0;  //!< fill-time generation, last line
        DecodedInst inst;
        bool privileged = false;      //!< IsaModel::instPrivileged()
        bool check_cacheable = false; //!< legal-inst-cache eligible
    };

    /**
     * @param mem      backing memory supplying write generations
     * @param entries  slot count; rounded up to a power of two
     */
    DecodeCache(const PhysMem &mem, std::uint32_t entries)
        : mem_(mem)
    {
        std::uint32_t n = 2; // minimum keeps the hash shift < 64
        unsigned log2n = 1;
        while (n < entries) {
            n <<= 1;
            ++log2n;
        }
        slots = ZeroPages<Entry>::reuse(n);
        shift = 64 - log2n;
    }

    /** Hands the slots back for the next machine (zero_pages.hh). */
    ~DecodeCache() { slots.recycle(); }

    DecodeCache(const DecodeCache &) = delete;
    DecodeCache &operator=(const DecodeCache &) = delete;

    /**
     * Probe for @p pc. Returns the entry on a fresh hit, nullptr on a
     * miss or when a covering line has been written since fill time
     * (the stale entry is dropped).
     */
    const Entry *
    lookup(Addr pc)
    {
        Entry &e = slots[slotOf(pc)];
        if (e.tag != ~pc) {
            ++missCount;
            return nullptr;
        }
        // Line addresses derive from the matching tag, so they are
        // in range by construction (insert() only caches valid PCs).
        Addr last = pc + e.inst.length - 1;
        if (mem_.lineGen(pc) != e.gen0 || mem_.lineGen(last) != e.gen1) {
            e.tag = 0;
            ++invalidationCount;
            ++missCount;
            return nullptr;
        }
        ++hitCount;
        return &e;
    }

    /**
     * Cache a successful decode at @p pc. Only valid instructions may
     * be inserted (an invalid decode may depend on bytes beyond the
     * reported length, so it is never memoized).
     */
    const Entry *
    insert(Addr pc, const DecodedInst &inst, bool privileged,
           bool check_cacheable)
    {
        std::size_t slot = slotOf(pc);
        slots.markWritten(slot);
        Entry &e = slots[slot];
        e.tag = ~pc;
        e.inst = inst;
        e.privileged = privileged;
        e.check_cacheable = check_cacheable;
        e.gen0 = mem_.lineGen(pc);
        e.gen1 = mem_.lineGen(pc + inst.length - 1);
        return &e;
    }

    /**
     * Fibonacci hash: spreads PCs of any alignment (4-byte RISC-V,
     * byte-granular x86) evenly over the direct-mapped array.
     */
    std::size_t
    slotOf(Addr pc) const
    {
        return (pc * 0x9E3779B97F4A7C15ull) >> shift;
    }

    std::uint32_t numEntries() const
    {
        return static_cast<std::uint32_t>(slots.size());
    }

    // Host-side instrumentation (not part of the modeled machine).
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint64_t invalidations() const { return invalidationCount; }

  private:
    const PhysMem &mem_;
    ZeroPages<Entry> slots;
    unsigned shift = 64;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t invalidationCount = 0;
};

} // namespace isagrid

#endif // ISAGRID_CPU_DECODE_CACHE_HH_
