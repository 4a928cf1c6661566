/**
 * @file
 * The Privilege Check Unit (PCU) — the hardware unit ISA-Grid adds to
 * the CPU core (Section 3.3, Figure 3/4).
 *
 * The PCU bundles the three engines of the design:
 *
 *  - the hybrid-grained privilege check engine (Section 4.1): checks
 *    every issued instruction against the current domain's instruction
 *    bitmap and explicit CSR accesses against the register bitmap and
 *    bit-mask arrays;
 *  - the unforgeable domain switching engine (Section 4.2): executes
 *    hccall/hccalls/hcrets against the SGT and the trusted stack,
 *    enforcing gate properties (i)-(iv);
 *  - the domain privilege cache (Section 4.3): fully associative LRU
 *    caches over the HPT and SGT, an instruction-privilege bypass
 *    register, and software prefetch/flush.
 *
 * It also owns the new architectural registers of Table 2 and the
 * trusted-memory bounds (Section 4.5).
 *
 * Timing: check methods return the stall cycles the pipeline must pay.
 * A privilege-cache hit costs nothing extra; a miss pays a data-path
 * memory access for the HPT/SGT fill.
 */

#ifndef ISAGRID_ISAGRID_PCU_HH_
#define ISAGRID_ISAGRID_PCU_HH_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/isa_model.hh"
#include "isagrid/hpt.hh"
#include "isagrid/pcu_cache.hh"
#include "isagrid/sgt.hh"
#include "mem/cache.hh"
#include "mem/phys_mem.hh"
#include "mem/trusted_memory.hh"
#include "sim/profiler.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace isagrid {

/** Cache/bypass configuration (the 16E. / 8E. / 8E.N of Section 7). */
struct PcuConfig
{
    std::uint32_t hpt_cache_entries = 8; //!< per HPT cache (3 caches)
    std::uint32_t sgt_cache_entries = 8; //!< 0 disables the SGT cache
    bool bypass_enabled = true; //!< instruction privilege register
    /** Memory latency charged per fill when no hierarchy is attached. */
    Cycle fallback_fill_latency = 100;
    /**
     * Draco-style legal-instruction cache (Section 8, "Cache
     * Optimization"): caches (domain, pc) pairs whose instruction
     * check passed, skipping the check logic entirely on a hit.
     * Value-dependent checks (CSR operands, gates) are never cached.
     * 0 disables it (the paper's prototypes do not include it).
     */
    std::uint32_t legal_cache_entries = 0;
    /**
     * Unified HPT cache (Section 4.3): one fully associative array of
     * 3 * hpt_cache_entries entries shared by the instruction-bitmap,
     * register-bitmap and bit-mask structures, with an entry-type
     * field in the tag. May improve the overall hit rate at the cost
     * of hardware complexity; the paper's prototypes use three
     * separate caches (the default here).
     */
    bool unified_hpt_cache = false;

    /** The paper's three evaluated configurations. */
    static PcuConfig config16E() { return {16, 16, true, 100, 0}; }
    static PcuConfig config8E() { return {8, 8, true, 100, 0}; }
    static PcuConfig config8EN() { return {8, 0, true, 100, 0}; }
};

/** Outcome of a privilege check. */
struct CheckOutcome
{
    bool allowed = false;
    FaultType fault = FaultType::None;
    Cycle stall = 0; //!< extra cycles (HPT fills on cache miss)
};

/** Outcome of a gate instruction. */
struct GateOutcome
{
    bool ok = false;
    FaultType fault = FaultType::None;
    Addr dest_pc = 0;
    DomainId dest_domain = 0;
    Cycle stall = 0; //!< SGT fill + trusted-stack traffic
};

/** Identifiers accepted by pflh (Table 2). */
enum class PcuBuffer : std::uint64_t
{
    All = 0, InstCache = 1, RegCache = 2, MaskCache = 3, SgtCache = 4,
};

/** The Privilege Check Unit (see file comment). */
class PrivilegeCheckUnit
{
  public:
    /**
     * @param isa     ISA model supplying the Section 4.1 mappings
     * @param mem     guest physical memory holding HPT/SGT
     * @param config  cache configuration
     * @param timing  optional data-path hierarchy for fill latency
     */
    PrivilegeCheckUnit(const IsaModel &isa, PhysMem &mem,
                       const PcuConfig &config,
                       CacheHierarchy *timing = nullptr);

    // --- domain state ---

    DomainId currentDomain() const { return gridRegs[idx(GridReg::Domain)]; }
    DomainId previousDomain() const
    {
        return gridRegs[idx(GridReg::PDomain)];
    }

    /** Processor reset: back to domain-0 with all privileges. */
    void reset();

    // --- hybrid-grained privilege check engine (Section 4.1) ---

    /** Check execute permission of one instruction type. */
    CheckOutcome checkInstruction(InstTypeId type);

    /**
     * Instruction check with the legal-instruction cache consulted
     * first (Section 8). @p cacheable must be false for instructions
     * whose legality depends on runtime values (explicit CSR accesses,
     * gates); their full checks always run.
     */
    CheckOutcome checkInstructionAt(InstTypeId type, Addr pc,
                                    bool cacheable);

    /** Check read permission of an explicitly accessed CSR. */
    CheckOutcome checkCsrRead(std::uint32_t csr_addr);

    /**
     * Check write permission of an explicitly accessed CSR. For
     * bit-maskable CSRs a set write bit grants the full write and an
     * unset one defers to the bit-mask equation
     * (V_csr ^ V_write) & ~M == 0.
     */
    CheckOutcome checkCsrWrite(std::uint32_t csr_addr, RegVal old_value,
                               RegVal new_value);

    // --- unforgeable domain switching engine (Section 4.2) ---

    /**
     * Execute hccall/hccalls.
     * @param gate       gate id from the operand register
     * @param gate_pc    runtime address of the gate instruction
     * @param extended   true for hccalls (pushes the trusted stack)
     * @param return_pc  pushed return address (hccalls only)
     */
    GateOutcome gateCall(GateId gate, Addr gate_pc, bool extended,
                         Addr return_pc = 0);

    /** Execute hcrets (pops the trusted stack; never re-enters domain-0). */
    GateOutcome gateReturn();

    // --- domain privilege cache management (Section 4.3 / Table 2) ---

    /**
     * pfch: pre-fill CSR bitmap/mask entries (0 selects all CSRs).
     * Allowed with no stall unless a fill reads outside physical
     * memory (MemoryFault, charged one fill).
     */
    CheckOutcome prefetch(std::uint64_t csr_selector);

    /** pflh: invalidate privilege-cache buffers. */
    void flushBuffers(PcuBuffer buffer);

    // --- ISA-Grid architectural registers (Table 2) ---

    /**
     * CSR-instruction read of an ISA-Grid register. domain/pdomain are
     * readable from any domain; everything else is domain-0 only.
     */
    CheckOutcome readGridReg(GridReg reg, RegVal &value) const;

    /**
     * CSR-instruction write of an ISA-Grid register: domain-0 only,
     * and never domain/pdomain (only the switching engine moves them).
     */
    CheckOutcome writeGridReg(GridReg reg, RegVal value);

    /** Raw register value (host-side configuration/tests). */
    RegVal gridReg(GridReg reg) const { return gridRegs[idx(reg)]; }

    /** Raw register update (host-side configuration; no checks). */
    void setGridReg(GridReg reg, RegVal value);

    // --- trusted memory (Section 4.5) ---

    const TrustedMemory &trustedMemory() const { return tmem; }

    /** May a software load/store touch [addr, addr+size)? */
    bool
    memoryAccessAllowed(Addr addr, std::size_t size) const
    {
        return tmem.softwareAccessAllowed(currentDomain(), addr, size);
    }

    // --- introspection ---

    const HptLayout &layout() const { return hpt; }
    const PcuConfig &config() const { return config_; }
    const IsaModel &isa() const { return isa_; }
    StatGroup &stats() { return statGroup; }

    /**
     * Attach an event-trace buffer: check outcomes, gate traversals,
     * trusted-stack traffic and domain switches are emitted into it,
     * the privilege caches emit their hit/miss/fill/flush stream, and
     * the buffer's domain field is sampled from this PCU's `domain`
     * register. Pass nullptr to detach.
     */
    void attachTrace(TraceBuffer *trace);
    TraceBuffer *trace() const { return trace_; }

    PcuCache<std::uint64_t> &instCache() { return instBitmapCache; }
    PcuCache<std::uint64_t> &regCache() { return regBitmapCache; }
    PcuCache<std::uint64_t> &maskCache() { return bitMaskCache; }
    PcuCache<SgtEntry> &sgtCache() { return sgtCache_; }
    PcuCache<std::uint8_t> &legalCache() { return legalCache_; }

    std::uint64_t switches() const { return switchCount.value(); }
    std::uint64_t faults() const { return faultCount.value(); }
    std::uint64_t bypassChecks() const { return bypassCheckCount.value(); }

    /**
     * Walk the trusted stack (the hccalls frames at Hcsb..Hcsp) into
     * @p out, outermost frame first: the gate-derived call chain the
     * PC-sampling profiler attributes samples to. When the stack
     * holds more than @p max frames the innermost @p max are kept.
     * Read-only (no stats, no trace events, no modeled latency — a
     * host-side observation, not an architectural access).
     */
    std::size_t trustedStackFrames(PerfFrame *out, std::size_t max) const;

    // --- per-domain cache statistics (the metrics layer) ---

    /** Per-domain privilege-cache probe counts (all HPT/SGT caches). */
    struct DomainCacheCounts
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    /**
     * Enable per-domain hit/miss accounting of every privilege-cache
     * probe. Off by default: the accounting is two compares and an
     * increment per probe, so it is opt-in for metrics-enabled runs
     * and leaves plain simulation untouched.
     */
    void setDomainStatsEnabled(bool enabled)
    {
        domainStatsEnabled = enabled;
    }

    const std::map<DomainId, DomainCacheCounts> &
    domainCacheCounts() const
    {
        return domainCacheCounts_;
    }

    /**
     * Merge the per-domain series into @p out as
     * "pcu.domain.<id>.cache_hits" / ".cache_misses" /
     * ".cache_hit_rate" (the key shape the Prometheus exporter folds
     * into a `domain` label).
     */
    void domainCacheValues(std::map<std::string, double> &out) const;

    // --- block-translation support (cpu/block/block_engine.hh) ---

    /**
     * Monotonic generation of the instruction-privilege bypass
     * register: bumped on every refill, so (valid, epoch) uniquely
     * identifies the bitmap content — and implicitly the domain —
     * a translated block's check-memo was validated against. Domain
     * switches and pflh invalidate the register; the next check
     * refills it under a fresh epoch, forcing memo re-validation.
     */
    std::uint64_t bypassEpoch() const { return bypassEpoch_; }

    /** Is the bypass register enabled and currently valid? */
    bool
    bypassReady() const
    {
        return config_.bypass_enabled && bypassValid;
    }

    /**
     * Are all instruction-privilege bits in @p need (one word per HPT
     * instruction group, HptLayout::instGroupOf/instBitOf layout)
     * granted by the current bypass register content?
     */
    bool bypassCovers(const std::uint64_t *need,
                      std::size_t words) const;

    /**
     * Account one instruction check whose outcome was hoisted to a
     * block-entry memo: increments exactly the counters
     * checkInstruction() would have (an allowed domain-0 check, or an
     * allowed bypass-register hit), so stat dumps are identical with
     * the block engine on or off.
     */
    void
    accountBlockCheck(bool domain0)
    {
        ++instChecks;
        if (!domain0)
            ++bypassCheckCount;
    }

    /**
     * Cache tag combining domain and structure index. The index gets a
     * full 32-bit field (a CSR/word index above 2^16 must not alias the
     * next domain), and the domain is bounded so large ids cannot
     * collide with the unified-cache kind bits in 62-63.
     */
    static std::uint64_t
    tagOf(DomainId domain, std::uint32_t index)
    {
        ISAGRID_ASSERT(domain < (1ull << 28),
                       "domain id %llu exceeds the privilege-cache tag "
                       "field", (unsigned long long)domain);
        return (domain << 32) | index;
    }

  private:
    static constexpr std::size_t idx(GridReg r)
    {
        return static_cast<std::size_t>(r);
    }

    /** HPT structure kinds (the unified cache's entry-type field). */
    enum class HptKind : std::uint64_t
    {
        InstBitmap = 1, RegBitmap = 2, BitMask = 3,
    };

    /** The cache serving @p kind (one of three, or the unified one). */
    PcuCache<std::uint64_t> &hptCacheFor(HptKind kind);

    /** Tag for @p kind: carries the entry type when unified. */
    std::uint64_t
    hptTag(HptKind kind, DomainId domain, std::uint32_t index) const
    {
        std::uint64_t tag = tagOf(domain, index);
        if (config_.unified_hpt_cache)
            tag |= std::uint64_t(kind) << 62;
        return tag;
    }

    Cycle fillLatency(Addr addr);

    /**
     * Does [addr, addr + size) lie inside physical memory? The table
     * bases and the trusted-stack pointer are guest-writable grid
     * registers, so every PCU bus access is range-checked: one that
     * is not raises MemoryFault (charged like a fill, domain
     * unchanged) instead of reaching the backing store.
     */
    bool
    onBus(Addr addr, std::uint64_t size) const
    {
        return addr < mem.size() && mem.size() - addr >= size;
    }

    /**
     * Fetch one HPT word through a privilege cache; false when the
     * word lies outside physical memory (the caller raises
     * MemoryFault).
     */
    bool cachedWord(PcuCache<std::uint64_t> &cache, Addr addr,
                    std::uint64_t tag, std::uint64_t &word, Cycle &stall);

    /**
     * Attribute one privilege-cache probe to the current domain (see
     * setDomainStatsEnabled). The current domain's slot is memoized —
     * std::map nodes are stable — so the common case is one compare
     * and one increment.
     */
    void
    accountDomainProbe(bool hit)
    {
        if (!domainStatsEnabled) [[likely]]
            return;
        DomainId domain = currentDomain();
        if (!curDomainCounts || domain != curDomainCountsId) {
            curDomainCounts = &domainCacheCounts_[domain];
            curDomainCountsId = domain;
        }
        if (hit)
            ++curDomainCounts->hits;
        else
            ++curDomainCounts->misses;
    }

    /**
     * Refill the instruction-privilege bypass register; false (the
     * register stays invalid) when an HPT word is off the bus.
     */
    bool refillBypass(Cycle &stall);

    void switchDomain(DomainId dest);

    /** Gate bodies; the public entry points add tracing + stats. */
    GateOutcome gateCallImpl(GateId gate, Addr gate_pc, bool extended,
                             Addr return_pc);
    GateOutcome gateReturnImpl();
    CheckOutcome checkCsrReadImpl(std::uint32_t csr_addr);
    CheckOutcome checkCsrWriteImpl(std::uint32_t csr_addr,
                                   RegVal old_value, RegVal new_value);

    const IsaModel &isa_;
    PhysMem &mem;
    PcuConfig config_;
    CacheHierarchy *timing;
    HptLayout hpt;
    TrustedMemory tmem;

    std::array<RegVal, numGridRegs> gridRegs{};

    PcuCache<std::uint64_t> instBitmapCache;
    PcuCache<std::uint64_t> regBitmapCache;
    PcuCache<std::uint64_t> bitMaskCache;
    PcuCache<SgtEntry> sgtCache_;
    PcuCache<std::uint8_t> legalCache_;

    /** Instruction-privilege register (cache bypass, Section 4.3). */
    std::vector<std::uint64_t> bypassBitmap;
    bool bypassValid = false;
    /** Refill generation (see bypassEpoch()). */
    std::uint64_t bypassEpoch_ = 0;

    Counter instChecks;
    Counter csrReadChecks;
    Counter csrWriteChecks;
    Counter maskChecks;
    Counter switchCount;
    Counter extendedCallCount;
    Counter faultCount;
    Counter bypassCheckCount;
    Counter prefetchFills;
    /** Stall-cycle distribution of successful gate traversals. */
    Histogram switchLatency{12};
    StatGroup statGroup;
    TraceBuffer *trace_ = nullptr;

    /** Per-domain probe accounting (see setDomainStatsEnabled). */
    bool domainStatsEnabled = false;
    std::map<DomainId, DomainCacheCounts> domainCacheCounts_;
    DomainCacheCounts *curDomainCounts = nullptr;
    DomainId curDomainCountsId = ~DomainId{0};
};

} // namespace isagrid

#endif // ISAGRID_ISAGRID_PCU_HH_
