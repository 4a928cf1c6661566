/**
 * @file
 * ISA-agnostic core base: functional execution with PCU integration.
 *
 * CoreBase performs the architectural step of every instruction —
 * fetch, decode, the classical privilege-level check, the ISA-Grid
 * checks (Section 4.1 ordering: instruction bitmap first, then the
 * register bitmap / bit-mask for explicit CSR accesses), gate
 * execution, memory access with the trusted-memory bound check, and
 * trap entry/return. Derived classes supply the *timing* model: the
 * in-order 5-stage model (the Rocket prototype) and the out-of-order
 * model (the gem5 x86 prototype).
 */

#ifndef ISAGRID_CPU_CORE_HH_
#define ISAGRID_CPU_CORE_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/block/block_engine.hh"
#include "cpu/decode_cache.hh"
#include "cpu/step_hook.hh"
#include "isa/isa_model.hh"
#include "isagrid/pcu.hh"
#include "mem/cache.hh"
#include "mem/phys_mem.hh"
#include "mem/tlb.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace isagrid {

/** Everything the timing model needs to know about one instruction. */
struct RetireInfo
{
    Addr pc = 0;
    /** Decoded instruction; null when fetch/decode itself faulted. */
    const DecodedInst *inst = nullptr;
    InstClass cls = InstClass::Nop;
    bool taken_branch = false;
    bool serializing = false;
    bool is_load = false;
    bool is_store = false;
    Addr mem_addr = 0;
    Cycle icache_extra = 0; //!< fetch latency beyond an L1 hit
    Cycle dcache_extra = 0; //!< data latency beyond an L1 hit
    Cycle pcu_stall = 0;    //!< privilege-cache miss / gate traffic
    bool trap = false;      //!< this instruction entered a trap handler
};

/** Timing parameters of the in-order model (cpu/inorder). */
struct InOrderParams
{
    Cycle branch_penalty = 3;    //!< redirect after a taken branch
    Cycle serialize_penalty = 1; //!< CSR writes, fences, gates
    Cycle trap_penalty = 5;      //!< full flush plus vector fetch
};

/**
 * Retire cost of the in-order scalar model. Defined here (not in
 * cpu/inorder) because the model is stateless per instruction: a core
 * that registers its params via CoreBase::scalarTiming_ lets the
 * shared retire step apply the formula inline instead of paying a
 * virtual timeInstruction() call per instruction. InOrderCore's
 * timeInstruction() wraps this same function, so the two dispatch
 * paths cannot diverge.
 */
inline Cycle
scalarRetireCost(const InOrderParams &params, const RetireInfo &info)
{
    Cycle cost = 1; // scalar pipeline, CPI 1 baseline

    // Fetch and data misses stall a blocking in-order pipeline fully.
    cost += info.icache_extra;
    cost += info.dcache_extra;

    // PCU stalls (privilege-cache fills, trusted-stack traffic).
    cost += info.pcu_stall;

    if (info.inst && info.inst->exec_latency > 1)
        cost += info.inst->exec_latency - 1;

    if (info.taken_branch)
        cost += params.branch_penalty;
    if (info.serializing)
        cost += params.serialize_penalty;
    if (info.trap)
        cost += params.trap_penalty;
    return cost;
}

/** Why run() returned. */
enum class StopReason
{
    Halted,        //!< the guest executed the halt magic instruction
    MaxInstructions,
    UnhandledFault, //!< fault with no trap handler configured
};

/** Result of a run() call. */
struct RunResult
{
    StopReason reason = StopReason::Halted;
    std::uint64_t halt_code = 0;
    FaultType fault = FaultType::None;
    Addr fault_pc = 0;
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
};

/** A simmark record (ROI boundaries for benchmarks). */
struct SimMark
{
    std::uint64_t value = 0;
    Cycle cycle = 0;
    std::uint64_t instructions = 0;
};

/** Execution attributed to one ISA domain. */
struct DomainUsage
{
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
};

/** Functional core with PCU hooks (see file comment). */
class CoreBase
{
  public:
    /**
     * @param isa     ISA model
     * @param mem     physical memory
     * @param pcu     the privilege check unit attached to this core
     * @param icache  instruction-fetch hierarchy (may be null: ideal)
     * @param dcache  data hierarchy (may be null: ideal)
     */
    CoreBase(const IsaModel &isa, PhysMem &mem, PrivilegeCheckUnit &pcu,
             CacheHierarchy *icache, CacheHierarchy *dcache);
    virtual ~CoreBase() = default;

    /** Reset architectural state and set the boot PC. */
    void reset(Addr boot_pc);

    /** Run until halt, an unhandled fault, or @p max_insts. */
    RunResult run(std::uint64_t max_insts = ~0ull);

    /** Single-step one instruction (tests). */
    RunResult step() { return run(1); }

    ArchState &state() { return archState; }
    const ArchState &state() const { return archState; }
    PrivilegeCheckUnit &pcu() { return pcu_; }
    const IsaModel &isa() const { return isa_; }

    /**
     * Arm a periodic timer: every @p interval cycles an asynchronous
     * TimerInterrupt is delivered between instructions, while the core
     * is in user mode (kernel execution is never re-entered). 0
     * disarms.
     */
    void
    setTimer(Cycle interval)
    {
        timerInterval = interval;
        // Disarmed timers park nextTimer at the unreachable sentinel,
        // so the hot step loop needs a single compare, not two.
        nextTimer = interval ? cycleCount + interval : kTimerNever;
    }

    /**
     * Size (or disable, with 0) the host-side decoded-instruction
     * cache. Purely a host-speed knob: architectural results, cycle
     * counts and all modeled stats are identical either way (see
     * cpu/decode_cache.hh for the invalidation contract).
     */
    void
    setDecodeCache(std::uint32_t entries)
    {
        if (entries == 0)
            decodeCache_.reset();
        else
            decodeCache_ = std::make_unique<DecodeCache>(mem, entries);
    }

    /** The decode cache, or nullptr when disabled (tests/tools). */
    const DecodeCache *decodeCache() const { return decodeCache_.get(); }

    /**
     * Enable (or disable, with 0) the block-translation engine
     * (cpu/block/block_engine.hh): hot basic blocks execute as
     * pre-decoded threaded code with the fetch-range, classical
     * privilege and ISA-Grid instruction checks hoisted to block
     * entry. Purely a host-speed knob — architectural results, cycle
     * counts and all modeled stats are identical either way (both
     * loops commit through one shared retire path), and the core runs
     * the interpreter whenever a step hook — the text trace is one —
     * needs per-step fidelity. An attached event-trace buffer
     * only forces the op-by-op interpreter path when its filter
     * requests per-instruction kinds (kTraceFilterPerOp — the checks
     * and cache probes the translation hoists to block entry); any
     * other filter, including the default, traces translated
     * execution at full speed with an exact event stream.
     */
    void
    setBlockEngine(std::uint32_t hot_threshold)
    {
        if (hot_threshold == 0)
            blockEngine_.reset();
        else
            blockEngine_ = std::make_unique<BlockEngine>(
                isa_, mem, pcu_, hot_threshold);
    }

    /** The block engine, or nullptr when disabled (tests/tools). */
    BlockEngine *blockEngine() { return blockEngine_.get(); }
    const BlockEngine *blockEngine() const { return blockEngine_.get(); }

    Cycle cycles() const { return cycleCount; }
    std::uint64_t instructions() const { return instCount.value(); }
    const std::vector<SimMark> &marks() const { return simMarks; }
    void clearMarks() { simMarks.clear(); }

    /** Count of faults taken, by type. */
    std::uint64_t faultsTaken(FaultType fault) const;

    /**
     * Instructions and cycles attributed to each ISA domain — where a
     * decomposed system actually spends its time.
     */
    const std::map<DomainId, DomainUsage> &
    domainUsage() const
    {
        return domainUsage_;
    }

    /**
     * Attach an event-trace buffer (sim/trace.hh): the buffer's cycle
     * field is sampled from this core's cycle counter, and the core
     * emits trap entry/return, timer-interrupt, CSR-commit and simmark
     * events. Pair with PrivilegeCheckUnit::attachTrace for the
     * check/gate/cache event stream (Machine::enableTracing does
     * both). Pass nullptr to detach.
     */
    void
    attachTrace(TraceBuffer *trace)
    {
        eventTrace = trace;
        if (trace)
            trace->setCycleSource(&cycleCount);
    }

    /**
     * Attach a per-instruction observation hook (cpu/step_hook.hh;
     * the text trace is cpu/text_trace.hh); nullptr detaches. Like
     * the event-trace buffer, a detached hook costs a single null
     * compare per step — the contract checkers' instrumentation is
     * effectively compiled out when unused.
     */
    void setStepHook(StepHook *hook) { stepHook_ = hook; }

    /**
     * Attach a performance monitor (sim/metrics.hh): the hot retire
     * paths (interpreter and block engine alike) pay one integer
     * compare of the instruction count against the monitor's next
     * epoch boundary; everything else — the guest PC sample with its
     * trusted-stack call chain, the metrics snapshot — happens in the
     * cold perfTick() path, a few times per million retires. Pass
     * nullptr to detach (Machine::enableMetrics wires a whole
     * machine).
     */
    void
    attachPerf(PerfMonitor *perf)
    {
        perfMonitor_ = perf;
        perfNextAt_ = perf ? perf->arm(instCount.value()) : kPerfNever;
    }

    /** The attached monitor, or nullptr. */
    PerfMonitor *perfMonitor() { return perfMonitor_; }

    /** Attach instruction/data TLB timing models (may be null). */
    void
    setTlbs(Tlb *instruction_tlb, Tlb *data_tlb)
    {
        itlb = instruction_tlb;
        dtlb = data_tlb;
        itlbRef_ = Tlb::Ref{};
        dtlbRef_ = Tlb::Ref{};
    }

    StatGroup &stats() { return statGroup; }

  protected:
    /** Advance the timing model by one retired instruction. */
    virtual Cycle timeInstruction(const RetireInfo &info) = 0;

    /**
     * Set by cores whose timeInstruction() is exactly
     * scalarRetireCost() over these params (the in-order model): the
     * shared retire step then applies the formula inline,
     * devirtualizing the per-instruction retire. Null for stateful
     * timing models (o3).
     */
    const InOrderParams *scalarTiming_ = nullptr;

    /** Extra cycles charged when a trap redirects the front end. */
    virtual Cycle trapPenalty() const = 0;

    const IsaModel &isa_;
    PhysMem &mem;
    PrivilegeCheckUnit &pcu_;
    CacheHierarchy *icache;
    CacheHierarchy *dcache;
    Tlb *itlb = nullptr;
    Tlb *dtlb = nullptr;

  private:
    /** Sentinel: no timer tick will ever reach this cycle count. */
    static constexpr Cycle kTimerNever = ~Cycle{0};

    /** Sentinel: no perf epoch will ever reach this retire count. */
    static constexpr std::uint64_t kPerfNever = ~std::uint64_t{0};

    /** Deepest trusted-stack chain attached to one profile sample. */
    static constexpr std::size_t kMaxPerfFrames = 32;

    /** One architectural step; returns false when the run must stop. */
    bool stepOne(RunResult &result);

    /**
     * Block-translation run loop (cpu/block/block_exec.cc): executes
     * up to @p budget instructions through translated blocks, falling
     * back to stepOne per instruction where no block applies. Fills
     * @p result exactly as the interpreter loop would.
     */
    void runBlocks(RunResult &result, std::uint64_t budget);

    /**
     * Execute @p block (and any blocks it chains to). @p consumed
     * counts retired instructions; returns false when the run must
     * stop (result filled). Returning true with consumed == 0 means
     * the entry conditions failed and the interpreter must take over.
     */
    bool execBlock(TransBlock &block, RunResult &result,
                   std::uint64_t budget, std::uint64_t &consumed);

    /**
     * Deliver @p fault; returns false, with @p result filled, if no
     * handler is installed.
     */
    bool deliverFault(FaultType fault, Addr faulting_pc, RegVal info,
                      RetireInfo &retire, RunResult &result);

    /** L1 hit latency of a hierarchy (0 if null). */
    static Cycle l1Hit(CacheHierarchy *h);

    // --- The commit path shared by stepOne() and execBlock() ---
    //
    // Each step of an instruction's commit is written once, here, so
    // the interpreter and the block engine cannot drift apart: both
    // time every access through the memoized refs, apply the trusted-
    // memory and bounds checks in one order, and retire through one
    // function.

    /** Fetch timing: ITLB, icache and the next-line prefetch. */
    void
    timeFetch(Addr pc, RetireInfo &retire)
    {
        if (itlb)
            retire.icache_extra += itlb->accessRef(pc, itlbRef_);
        if (icache) {
            retire.icache_extra +=
                icache->accessRef(pc, false, ifetchRef_) - icacheHit_;
            // Next-line prefetcher: both prototype front ends fetch
            // ahead, so sequential code does not pay a miss per line.
            // The fill is modelled as fully hidden (it overlaps the
            // demand miss above).
            Addr next_line = (pc & ~Addr{63}) + 64;
            if (next_line + 64 <= mem.size())
                icache->accessRef(next_line, false, ifetchNextRef_);
        }
    }

    /** The pc an execute() fault is taken at: syscalls resume past. */
    static Addr
    execFaultPc(FaultType fault, Addr pc, const DecodedInst &inst)
    {
        return fault == FaultType::SyscallTrap ? pc + inst.length : pc;
    }

    /**
     * The data access of an executed instruction, if any: the
     * trusted-memory check (Section 4.5), the bounds check, DTLB and
     * dcache timing, then the load or store. Returns the fault to
     * deliver (with res.mem_addr as info), or FaultType::None.
     */
    FaultType
    commitData(ExecResult &res, RetireInfo &retire)
    {
        if (!res.mem_valid)
            return FaultType::None;
        if (!pcu_.memoryAccessAllowed(res.mem_addr, res.mem_size))
            return FaultType::TrustedMemoryViolation;
        // Overflow-safe: mem_addr near 2^64 must not wrap past the
        // bound and reach the backing store.
        if (res.mem_addr >= mem.size() ||
            mem.size() - res.mem_addr < res.mem_size)
            return FaultType::MemoryFault;
        if (dtlb)
            retire.dcache_extra += dtlb->accessRef(res.mem_addr, dtlbRef_);
        if (dcache) {
            retire.dcache_extra +=
                dcache->accessRef(res.mem_addr, res.mem_write, dataRef_) -
                dcacheHit_;
        }
        retire.mem_addr = res.mem_addr;
        if (res.mem_write) {
            ++storeCount;
            retire.is_store = true;
            switch (res.mem_size) {
              case 1: mem.write8(res.mem_addr,
                                 std::uint8_t(res.store_value)); break;
              case 2: mem.write16(res.mem_addr,
                                  std::uint16_t(res.store_value)); break;
              case 4: mem.write32(res.mem_addr,
                                  std::uint32_t(res.store_value)); break;
              case 8: mem.write64(res.mem_addr, res.store_value); break;
              default:
                panic("bad store size %u", res.mem_size);
            }
            return FaultType::None;
        }
        ++loadCount;
        retire.is_load = true;
        RegVal value = 0;
        switch (res.mem_size) {
          case 1:
            value = mem.read8(res.mem_addr);
            if (res.mem_sign_extend)
                value = RegVal(std::int64_t(std::int8_t(value)));
            break;
          case 2:
            value = mem.read16(res.mem_addr);
            if (res.mem_sign_extend)
                value = RegVal(std::int64_t(std::int16_t(value)));
            break;
          case 4:
            value = mem.read32(res.mem_addr);
            if (res.mem_sign_extend)
                value = RegVal(std::int64_t(std::int32_t(value)));
            break;
          case 8:
            value = mem.read64(res.mem_addr);
            break;
          default:
            panic("bad load size %u", res.mem_size);
        }
        if (res.mem_to_pc)
            res.next_pc = value;
        else
            archState.setReg(res.mem_reg, value);
        return FaultType::None;
    }

    /** Invalidate both TLBs (sfence.vma, address-space switch). */
    void
    flushTlbs()
    {
        if (itlb)
            itlb->flushAll();
        if (dtlb)
            dtlb->flushAll();
    }

    /**
     * Everything after the data access: cache and TLB flushes, the
     * branch count, simmark recording, halt, and the pc update.
     * Returns false, with @p result filled, when the guest halted.
     */
    bool
    commitTail(const DecodedInst &inst, const ExecResult &res,
               const RetireInfo &retire, RunResult &result)
    {
        if (res.flush_caches) [[unlikely]] {
            if (dcache)
                dcache->flushAll();
            if (icache)
                icache->flushAll();
        }
        if (res.flush_tlb) [[unlikely]]
            flushTlbs();
        if (res.flush_tlb_page) [[unlikely]] {
            if (itlb)
                itlb->flushPage(res.flush_page_addr);
            if (dtlb)
                dtlb->flushPage(res.flush_page_addr);
        }
        if (retire.taken_branch)
            ++branchCount;
        if (inst.cls == InstClass::SimMark) [[unlikely]] {
            simMarks.push_back({archState.reg(inst.rs1), cycleCount,
                                instCount.value()});
            ISAGRID_TRACE_EVENT(eventTrace, TraceKind::SimMark,
                                archState.reg(inst.rs1),
                                instCount.value(), 0);
        }
        if (res.halt) [[unlikely]] {
            result.reason = StopReason::Halted;
            result.halt_code = res.halt_code;
            return false;
        }
        archState.pc = res.next_pc;
        return true;
    }

    /**
     * Retire one instruction: timing, per-domain usage and the perf
     * tick. @p block_start is the entry pc of the translated block the
     * instruction ran in (0 on the interpreter), for profile samples.
     */
    void
    retireInst(const RetireInfo &retire, Addr block_start)
    {
        ++instCount;
        // The in-order model is stateless per instruction: apply its
        // formula inline instead of a virtual timeInstruction() call.
        Cycle delta = scalarTiming_
                          ? scalarRetireCost(*scalarTiming_, retire)
                          : timeInstruction(retire);
        cycleCount += delta;
        archState.cycle = cycleCount;
        DomainId domain = pcu_.currentDomain();
        if (domain != curUsageDomain || !curUsage) [[unlikely]] {
            curUsage = &domainUsage_[domain];
            curUsageDomain = domain;
        }
        ++curUsage->instructions;
        curUsage->cycles += delta;
        if (instCount.value() >= perfNextAt_) [[unlikely]]
            perfTick(retire.pc, block_start);
    }

    /**
     * Cold path of the attachPerf() hook: builds the sample (pc,
     * domain, block, trusted-stack chain), hands it to the monitor
     * and refreshes perfNextAt_. Only called when the retire counter
     * reaches the armed boundary.
     */
    void perfTick(Addr pc, Addr block_start);

    /**
     * Memoized line/slot refs for every modeled fetch and data access
     * of both loops (mem/cache.hh Cache::Ref, mem/tlb.hh Tlb::Ref).
     * Pure fast-path state: each use revalidates against the model, so
     * a stale ref costs one set scan, never a wrong outcome
     * (CacheGeometry.RefPathMatchesSetScan). The TLB refs are reset in
     * setTlbs() because the TLB objects themselves may be swapped; the
     * cache hierarchies are fixed at construction.
     */
    Cache::Ref ifetchRef_;
    Cache::Ref ifetchNextRef_;
    Cache::Ref dataRef_;
    Tlb::Ref itlbRef_;
    Tlb::Ref dtlbRef_;
    /** L1 hit latencies, charged as part of the base CPI. */
    const Cycle icacheHit_;
    const Cycle dcacheHit_;

    ArchState archState;
    Cycle cycleCount = 0;
    Cycle timerInterval = 0;
    Cycle nextTimer = kTimerNever;

    Counter instCount;
    Counter loadCount;
    Counter storeCount;
    Counter branchCount;
    Counter csrAccessCount;
    Counter gateCount;
    Counter trapCount;
    std::array<Counter, 16> faultCounters;
    std::map<DomainId, DomainUsage> domainUsage_;
    /**
     * Memoized domainUsage_ slot of the current domain (node pointers
     * are stable in std::map), so retirement skips the map walk until
     * the domain actually changes.
     */
    DomainUsage *curUsage = nullptr;
    DomainId curUsageDomain = ~DomainId{0};
    std::vector<SimMark> simMarks;
    std::unique_ptr<DecodeCache> decodeCache_;
    std::unique_ptr<BlockEngine> blockEngine_;
    StatGroup statGroup;
    TraceBuffer *eventTrace = nullptr;
    StepHook *stepHook_ = nullptr;
    PerfMonitor *perfMonitor_ = nullptr;
    /** Retire count of the next perf epoch (kPerfNever when detached). */
    std::uint64_t perfNextAt_ = kPerfNever;
};

} // namespace isagrid

#endif // ISAGRID_CPU_CORE_HH_
