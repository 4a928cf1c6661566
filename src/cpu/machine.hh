/**
 * @file
 * A complete simulated machine: ISA model, physical memory, cache
 * hierarchies, the Privilege Check Unit, domain-0 runtime and a core.
 *
 * Two factory configurations mirror the paper's prototypes:
 *  - rocket():  RV64 in-order scalar core, 100 MHz FPGA-class memory
 *    system (load/store miss >120 cycles, Table 4);
 *  - gem5x86(): x86-like out-of-order core with the Table 3 cache
 *    hierarchy (L1 32K/2c, L2 256K/20c, L3 2M/32c, ~150-cycle DRAM).
 */

#ifndef ISAGRID_CPU_MACHINE_HH_
#define ISAGRID_CPU_MACHINE_HH_

#include <memory>

#include "cpu/core.hh"
#include "cpu/inorder/inorder_core.hh"
#include "cpu/o3/o3_core.hh"
#include "isagrid/domain_manager.hh"
#include "isagrid/pcu.hh"
#include "mem/cache.hh"
#include "mem/phys_mem.hh"
#include "mem/tlb.hh"

namespace isagrid {

/** Machine-level configuration knobs. */
struct MachineConfig
{
    std::size_t mem_bytes = 64ull * 1024 * 1024;
    PcuConfig pcu = PcuConfig::config8E();
    DomainManagerConfig domains; //!< tmem placement filled by factories
    /**
     * Entries of the host-side decoded-instruction cache (the
     * simulator fast path, cpu/decode_cache.hh); 0 disables it. A
     * pure host-speed knob: results and all modeled stats are
     * bit-identical either way.
     */
    std::uint32_t decode_cache_entries = 16384;
    /**
     * Enable the block-translation engine (cpu/block): hot basic
     * blocks run as pre-decoded threaded code with privilege checks
     * hoisted to block entry. Like the decode cache this is a pure
     * host-speed knob — architectural results and all modeled stats
     * are bit-identical either way (tests/test_block_equivalence.cc).
     * On by default; FuzzArtifact::restore() turns it off, so the
     * fuzz oracles and analyzers replay on the interpreter.
     */
    bool block_engine = true;
    /** Executions before a basic block is translated. */
    std::uint32_t block_hot_threshold =
        BlockEngine::kDefaultHotThreshold;
};

/** A fully assembled simulated machine (see file comment). */
class Machine
{
  public:
    /** The paper's RISC-V FPGA prototype substrate. */
    static std::unique_ptr<Machine> rocket(MachineConfig config = {});

    /** The paper's gem5 x86 prototype substrate (Table 3). */
    static std::unique_ptr<Machine> gem5x86(MachineConfig config = {});

    PhysMem &mem() { return *physMem; }
    CoreBase &core() { return *core_; }
    PrivilegeCheckUnit &pcu() { return *pcu_; }
    DomainManager &domains() { return *domainMgr; }
    const IsaModel &isa() const { return *isaModel; }
    CacheHierarchy &icacheHierarchy() { return *icache; }
    CacheHierarchy &dcacheHierarchy() { return *dcache; }
    Tlb &instructionTlb() { return *itlb; }
    Tlb &dataTlb() { return *dtlb; }
    const MachineConfig &config() const { return config_; }

    /** Reset the core to @p boot_pc and run. */
    RunResult run(Addr boot_pc, std::uint64_t max_insts = 100'000'000);

    /** Dump all statistics. */
    void dumpStats(std::ostream &os);

    /**
     * All statistics of every unit as one sorted JSON object:
     * modeled stats keyed like dumpStats(), plus the host-side
     * decode-cache and block-engine counters under `host.*` (always
     * present, zeros when the unit is disabled). The text dump
     * deliberately excludes `host.*` so it stays bit-identical with
     * the host-speed engines on or off.
     */
    void dumpStatsJson(std::ostream &os);

    /** The dumpStatsJson() key/value set, merged into @p values. */
    void collectStatsValues(std::map<std::string, double> &values);

    /**
     * Create (once) and wire the machine-owned event-trace buffer into
     * the PCU and the core. The caller attaches a sink and sets the
     * filter on the returned buffer; until then events accumulate in
     * the ring and overflow is dropped. Idempotent.
     */
    TraceBuffer &enableTracing(std::size_t capacity = 1 << 16);

    /** The machine-owned trace buffer, or nullptr before enableTracing. */
    TraceBuffer *trace() { return trace_.get(); }

    /**
     * Create (once) and wire the machine-owned performance monitor
     * (sim/metrics.hh): registers probes for every modeled statistic
     * (collectStatsValues, host.* included), the PCU's per-domain
     * privilege-cache hit rates, and attaches the core's epoch hook.
     * The caller seeds the profiler's code regions
     * (perf().profiler().setRegions) and exports after the run.
     * Idempotent; @p config only applies to the first call.
     */
    PerfMonitor &enableMetrics(PerfConfig config = {});

    /** The machine-owned monitor, or nullptr before enableMetrics. */
    PerfMonitor *perf() { return perf_.get(); }

  private:
    Machine() = default;

    MachineConfig config_;
    std::unique_ptr<IsaModel> isaModel;
    std::unique_ptr<PhysMem> physMem;
    std::unique_ptr<CacheHierarchy> icache;
    std::unique_ptr<CacheHierarchy> dcache;
    std::unique_ptr<Tlb> itlb;
    std::unique_ptr<Tlb> dtlb;
    std::unique_ptr<PrivilegeCheckUnit> pcu_;
    std::unique_ptr<DomainManager> domainMgr;
    std::unique_ptr<CoreBase> core_;
    std::unique_ptr<TraceBuffer> trace_;
    std::unique_ptr<PerfMonitor> perf_;
};

} // namespace isagrid

#endif // ISAGRID_CPU_MACHINE_HH_
