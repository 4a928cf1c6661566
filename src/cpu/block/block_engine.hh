/**
 * @file
 * The block-translation engine: superblock threaded code over
 * DecodedInst.
 *
 * The interpreter pays full dispatch cost on every instruction:
 * fetch-range checks, decode-cache probe, the classical privilege
 * check and the ISA-Grid instruction check all run per step. This
 * engine translates *hot basic blocks* into contiguous arrays of
 * pre-decoded ops and lets the core execute them in a tight loop with
 * the per-instruction work hoisted to block entry:
 *
 *  - the fetch bounds and trusted-memory fetch checks cover the whole
 *    block's byte range once (both are range-monotone);
 *  - the classical privilege-level check becomes one block-entry test
 *    against `any_privileged`;
 *  - the ISA-Grid instruction checks are memoized per (bitmap epoch,
 *    block): the block records which instruction-bitmap bits it needs
 *    (`need_words`), and entry compares them against the PCU's
 *    instruction-privilege bypass register. The PCU bumps a bypass
 *    *epoch* on every refill, so a matching `memo_epoch` proves the
 *    memo was validated against exactly the current bitmap content —
 *    domain switches, `pflh` and policy republication invalidate the
 *    bypass register, forcing a refill (new epoch) and hence a memo
 *    re-validation. HPT writes without a flush leave the bypass
 *    register stale in hardware and interpreter alike, and the memo
 *    inherits exactly that staleness: translated and interpreted
 *    execution observe identical check outcomes. Where the memo
 *    cannot vouch for a block, its ops take the PCU's own check
 *    until it can: after a switch op 0 refills the register exactly
 *    as the interpreter would (see block_exec.cc);
 *  - the gates end a block, so execution chains across a switch.
 *
 * Translated blocks are invalidated *exactly* under self-modifying
 * code via the per-64B-line write generations PhysMem already keeps
 * for the decode cache: entry revalidates the generations of every
 * covered line, distinguishes data writes sharing a code line (byte
 * compare, translation kept) from real code patches (retranslate in
 * place, preserving chain pointers), and blacklists blocks that
 * re-patch pathologically.
 *
 * The lookup and heat tables are recycled zero pages
 * (mem/zero_pages.hh), tagged with ~pc like the decode cache, so an
 * engine that never runs costs no clearing and touches no table page.
 *
 * The engine never observes anything architectural: all modeled
 * state — timing accesses, stats, fault delivery, per-domain
 * accounting — is produced by the executing core through the commit
 * helpers it shares with the interpreter. CoreBase runs the
 * interpreter whenever a step hook is attached (the text trace is
 * one; they need per-step fidelity) and runs translated blocks
 * op-by-op through the interpreter when an event-trace filter asks
 * for per-instruction kinds (see block_exec.cc).
 */

#ifndef ISAGRID_CPU_BLOCK_BLOCK_ENGINE_HH_
#define ISAGRID_CPU_BLOCK_BLOCK_ENGINE_HH_

#include <array>
#include <cstdint>
#include <memory_resource>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isa/isa_model.hh"
#include "isagrid/pcu.hh"
#include "mem/phys_mem.hh"
#include "mem/zero_pages.hh"

namespace isagrid {

/** One pre-decoded instruction of a translated block. */
struct BlockOp
{
    Addr pc = 0;
    DecodedInst inst;
};

/** A translated basic block (straight-line ops, one terminator). */
struct TransBlock
{
    /** Its storage comes from the engine's arena (BlockEngine). */
    using allocator_type = std::pmr::polymorphic_allocator<std::byte>;

    explicit TransBlock(const allocator_type &alloc)
        : ops(alloc), bytes(alloc), line_gens(alloc), need_words(alloc)
    {
    }

    Addr start = 0;    //!< entry pc
    Addr byte_end = 0; //!< one past the last translated byte
    /** Any op fails the classical check in user mode. */
    bool any_privileged = false;
    /** Blacklisted: untranslatable entry or pathological SMC. */
    bool dead = false;
    std::uint32_t invalidations = 0; //!< real code patches observed
    std::pmr::vector<BlockOp> ops;
    /** Byte snapshot of [start, byte_end) for SMC revalidation. */
    std::pmr::vector<std::uint8_t> bytes;
    /** Write generation of each covered 64B line at translation. */
    std::pmr::vector<std::uint64_t> line_gens;
    /** Needed instruction-bitmap bits, one word per HPT inst group. */
    std::pmr::vector<std::uint64_t> need_words;
    /**
     * PCU bypass epoch the check-memo was last validated against;
     * 0 = never (the PCU's first refill produces epoch 1).
     */
    std::uint64_t memo_epoch = 0;
    /** Direct-branch chaining: observed successor blocks. */
    struct Chain
    {
        Addr pc = 0;
        TransBlock *target = nullptr;
    };
    std::array<Chain, 2> chain{};
    std::uint32_t chain_victim = 0; //!< round-robin refill cursor

    Addr firstLine() const { return start & ~Addr{63}; }
};

/** Owns, indexes and (in)validates translated blocks (file comment). */
class BlockEngine
{
  public:
    static constexpr std::uint32_t kDefaultHotThreshold = 16;
    /** Translation stops after this many ops / bytes. */
    static constexpr std::size_t kMaxOps = 64;
    static constexpr std::size_t kMaxBytes = 512;
    /** Real code patches tolerated before a block is blacklisted. */
    static constexpr std::uint32_t kMaxInvalidations = 8;
    /** Block-count cap; reaching it flushes every translation. */
    static constexpr std::size_t kMaxBlocks = 4096;

    /**
     * Host-side counters (never registered with the StatGroup tree:
     * text stat dumps are byte-identical with the engine on or off).
     * Machine::dumpStatsJson surfaces them under `host.block.*`, with
     * zeros when the engine is disabled.
     */
    struct HostStats
    {
        std::uint64_t translations = 0;
        std::uint64_t retranslations = 0;
        std::uint64_t invalidations = 0;   //!< real code patches
        std::uint64_t gen_refreshes = 0;   //!< data write, same line
        std::uint64_t dead_blocks = 0;
        std::uint64_t entries = 0;         //!< block entries
        std::uint64_t chained_entries = 0; //!< entered via chaining
        std::uint64_t chain_hits = 0;      //!< successor in a slot
        std::uint64_t chain_misses = 0;    //!< successor looked up
        std::uint64_t careful_entries = 0; //!< event-traced entries
        std::uint64_t fallbacks = 0;       //!< entry conditions failed
        std::uint64_t memo_hits = 0;       //!< epoch matched
        std::uint64_t memo_fills = 0;      //!< covers() re-validated
        std::uint64_t translated_insts = 0;//!< ops retired from blocks
        std::uint64_t flushes = 0;         //!< capacity flushes
    };

    BlockEngine(const IsaModel &isa, PhysMem &mem,
                const PrivilegeCheckUnit &pcu,
                std::uint32_t hot_threshold = kDefaultHotThreshold);

    /** Hands the tables back for the next engine (zero_pages.hh). */
    ~BlockEngine();

    /** Look up a translation at @p pc; never translates. */
    TransBlock *
    find(Addr pc)
    {
        Slot &s = slots_[slotIndex(pc)];
        if (s.tag == ~pc) [[likely]]
            return s.block;
        return findCold(pc);
    }

    /**
     * Count an execution of untranslated @p pc; translates (and
     * returns the new block) once the hotness threshold is reached.
     */
    TransBlock *heat(Addr pc);

    /** Drop every translation (capacity, or external request). */
    void flushAll();

    /** Outcome of the exact-SMC entry revalidation. */
    enum class Revalidation
    {
        Valid,        //!< generations unchanged
        Refreshed,    //!< data write on a covered line; bytes intact
        Retranslated, //!< code patched; block rebuilt in place
        Dead,         //!< pathological SMC; block blacklisted
    };

    /**
     * Revalidate @p b against the current memory write generations.
     * Retranslation happens in place: the TransBlock object (and any
     * chain pointer to it) stays valid.
     */
    Revalidation revalidate(TransBlock &b);

    std::uint32_t hotThreshold() const { return hotThreshold_; }
    std::size_t numBlocks() const { return blocks_.size(); }
    /** Entry pcs of every live translation (bench introspection). */
    std::vector<Addr> blockPcs() const;
    HostStats &stats() { return stats_; }
    const HostStats &stats() const { return stats_; }

    /** log2 of the lookup table's and the heat table's entries. */
    static constexpr unsigned kSlotBits = 13; // 8192 entries
    static constexpr unsigned kHeatBits = 13;

    /** Fibonacci hashes of @p pc into the two tables. */
    static std::size_t
    slotIndex(Addr pc)
    {
        return (pc * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits);
    }
    static std::size_t
    heatIndex(Addr pc)
    {
        return (pc * 0x9E3779B97F4A7C15ull) >> (64 - kHeatBits);
    }

    /** Host storage (start, bytes) of the lookup and heat tables. */
    std::array<std::pair<const void *, std::size_t>, 2>
    tableSpans() const
    {
        return {{{slots_.data(), slots_.size() * sizeof(Slot)},
                 {heat_.data(), heat_.size() * sizeof(HeatSlot)}}};
    }

  private:
    /** A lookup-table entry; all zero is empty (tag ~pc, see file). */
    struct Slot
    {
        Addr tag = 0;
        TransBlock *block = nullptr;
    };
    /** A heat-table entry: executions of an untranslated pc. */
    struct HeatSlot
    {
        Addr tag = 0;
        std::uint32_t count = 0;
    };

    TransBlock *findCold(Addr pc);
    /** Point @p pc's lookup slot at @p block. */
    void setSlot(Addr pc, TransBlock *block);
    TransBlock *translate(Addr pc);
    /** (Re)build @p b from the current memory image at b.start. */
    void translateInto(TransBlock &b);
    bool eligible(const DecodedInst &inst) const;

    const IsaModel &isa_;
    PhysMem &mem;
    const PrivilegeCheckUnit &pcu_;
    std::uint32_t hotThreshold_;

    /**
     * Every translation lives in one arena, released whole: freeing
     * several small heap chunks per block slowed the next machine's
     * set-up (docs/performance.md).
     */
    std::pmr::monotonic_buffer_resource arena_;
    std::pmr::unordered_map<Addr, TransBlock> blocks_{&arena_};
    std::vector<BlockOp> scratch_; //!< translateInto()'s decode list
    ZeroPages<Slot> slots_;
    ZeroPages<HeatSlot> heat_;
    HostStats stats_;
};

} // namespace isagrid

#endif // ISAGRID_CPU_BLOCK_BLOCK_ENGINE_HH_
