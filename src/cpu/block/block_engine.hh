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
 *    execution observe identical check outcomes.
 *
 * Translated blocks are invalidated *exactly* under self-modifying
 * code via the per-64B-line write generations PhysMem already keeps
 * for the decode cache: entry revalidates the generations of every
 * covered line, distinguishes data writes sharing a code line (byte
 * compare, translation kept) from real code patches (retranslate in
 * place, preserving chain pointers), and blacklists blocks that
 * re-patch pathologically.
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
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "isa/isa_model.hh"
#include "isagrid/pcu.hh"
#include "mem/phys_mem.hh"

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
    Addr start = 0;    //!< entry pc
    Addr byte_end = 0; //!< one past the last translated byte
    /** Any op fails the classical check in user mode. */
    bool any_privileged = false;
    /** Blacklisted: untranslatable leader or pathological SMC. */
    bool dead = false;
    std::uint32_t invalidations = 0; //!< real code patches observed
    std::vector<BlockOp> ops;
    /** Byte snapshot of [start, byte_end) for SMC revalidation. */
    std::vector<std::uint8_t> bytes;
    /** Write generation of each covered 64B line at translation. */
    std::vector<std::uint64_t> line_gens;
    /** Needed instruction-bitmap bits, one word per HPT inst group. */
    std::vector<std::uint64_t> need_words;
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

    /** Look up a translation at @p pc; never translates. */
    TransBlock *
    find(Addr pc)
    {
        Slot &s = slots_[slotIndex(pc)];
        if (s.pc == pc) [[likely]]
            return s.block;
        return findCold(pc);
    }

    /**
     * Count an execution of untranslated @p pc; translates (and
     * returns the new block) once the hotness threshold is reached.
     */
    TransBlock *heat(Addr pc);

    /**
     * Seed known block boundaries (CFG leaders): translation never
     * runs past a leader, so blocks line up with the static CFG and
     * chain at its edges instead of overlapping it.
     */
    void addLeaders(const std::vector<Addr> &leaders);
    bool isLeader(Addr pc) const { return leaders_.count(pc) != 0; }

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

  private:
    struct Slot
    {
        Addr pc = ~Addr{0};
        TransBlock *block = nullptr;
    };
    struct HeatSlot
    {
        Addr pc = ~Addr{0};
        std::uint32_t count = 0;
    };

    static constexpr unsigned kSlotBits = 13; // 8192 entries
    static constexpr unsigned kHeatBits = 13;

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

    TransBlock *findCold(Addr pc);
    TransBlock *translate(Addr pc);
    /** (Re)build @p b from the current memory image at b.start. */
    void translateInto(TransBlock &b);
    bool eligible(const DecodedInst &inst) const;

    const IsaModel &isa_;
    PhysMem &mem;
    const PrivilegeCheckUnit &pcu_;
    std::uint32_t hotThreshold_;

    std::unordered_map<Addr, std::unique_ptr<TransBlock>> blocks_;
    std::vector<Slot> slots_;
    std::vector<HeatSlot> heat_;
    std::unordered_set<Addr> leaders_;
    HostStats stats_;
};

} // namespace isagrid

#endif // ISAGRID_CPU_BLOCK_BLOCK_ENGINE_HH_
