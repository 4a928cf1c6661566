/**
 * @file
 * Out-of-order timing model: the gem5 O3-class core of the paper's x86
 * prototype, configured per Table 3 (8-wide fetch/decode/issue/commit,
 * 192-entry ROB, 32/32 load/store queue, tournament-style predictor).
 *
 * The model is an event-free dataflow approximation that is evaluated
 * one retired instruction at a time: per-register ready cycles model
 * dependencies, a completion ring models ROB occupancy, a store-buffer
 * ring models store-to-load forwarding, a 2-bit/BTB predictor models
 * branch redirects, and serializing instructions (CSR writes, gates,
 * traps) drain the window. Retire bandwidth is capped at the commit width.
 * This reproduces the paper's x86 latencies in shape: tens of cycles
 * for a gate (full-window serialization) versus >200 for a memory miss
 * and ~1700 for a VM trap.
 */

#ifndef ISAGRID_CPU_O3_O3_CORE_HH_
#define ISAGRID_CPU_O3_O3_CORE_HH_

#include <array>
#include <vector>

#include "cpu/core.hh"

namespace isagrid {

/** Timing parameters of the O3 model (defaults follow Table 3). */
struct O3Params
{
    unsigned width = 8;           //!< fetch/decode/issue/commit width
    unsigned rob_entries = 192;
    unsigned lsq_entries = 32;
    Cycle mispredict_penalty = 12; //!< front-end refill after redirect
    /**
     * Drain + flush + refill for serializing instructions (CSR writes,
     * gates, fences). Calibrated so a warm hccall costs ~34 cycles as
     * the paper measured on gem5 (Table 4).
     */
    Cycle serialize_penalty = 30;
    Cycle trap_penalty = 24;       //!< exception path microcode
    Cycle load_to_use = 4;         //!< L1-hit load latency
    unsigned btb_entries = 1024;
    unsigned store_buffer = 32;    //!< forwarding window
};

/**
 * The O3 window model on its own (see file comment): retire() is
 * called once per retired instruction and returns the cycles it adds.
 * O3Core delegates its timeInstruction() here; tests drive it directly
 * with synthetic RetireInfo streams.
 */
class O3Timing
{
  public:
    explicit O3Timing(const O3Params &params);

    /** Account one retired instruction; returns the cycles it adds. */
    Cycle retire(const RetireInfo &info);

    const O3Params &params() const { return params_; }

  private:
    /** Predict a conditional branch at @p pc; update with @p taken. */
    bool predictAndTrain(Addr pc, bool taken);

    /** Drain the window for a serializing op or a trap. */
    void drain(Cycle complete, Cycle penalty);

    /** One store-buffer slot: address and forwarding-ready cycle. */
    struct StoreSlot
    {
        Addr addr = 0;
        Cycle ready = 0;
    };

    O3Params params_;

    // Dataflow state (absolute cycle timestamps).
    Cycle frontier = 0;      //!< dispatch time of the next instruction
    unsigned slotInCycle = 0; //!< instructions dispatched this cycle
    std::array<Cycle, ArchState::maxRegs> regReady{};

    // The ROB: a ring of completion times, oldest first, holding at
    // most rob_entries. robMax is the latest completion pushed since
    // the last drain (the drain point; see drain()).
    std::vector<Cycle> rob;
    std::size_t robHead = 0;
    std::size_t robCount = 0;
    Cycle robMax = 0;

    // The store buffer: a ring of the last store_buffer stores.
    std::vector<StoreSlot> storeBuffer;
    std::size_t storeHead = 0;
    std::size_t storeCount = 0;

    std::vector<std::uint8_t> bimodal; //!< 2-bit counters
    std::vector<Addr> btb;             //!< target-known bit per set

    // Retire bandwidth: the last retire slot as (cycle, sub-slot), the
    // sub-slot counting the commit width, so no divide is needed.
    Cycle retireCycle = 0;
    unsigned retireSub = 0;
    Cycle lastTotal = 0; //!< cycles reported so far
};

/** gem5-O3-class out-of-order core (see file comment). */
class O3Core : public CoreBase
{
  public:
    O3Core(const IsaModel &isa, PhysMem &mem, PrivilegeCheckUnit &pcu,
           CacheHierarchy *icache, CacheHierarchy *dcache,
           const O3Params &params = O3Params{});

  protected:
    Cycle
    timeInstruction(const RetireInfo &info) override
    {
        return timing.retire(info);
    }

    Cycle
    trapPenalty() const override
    {
        return timing.params().trap_penalty;
    }

  private:
    O3Timing timing;
};

} // namespace isagrid

#endif // ISAGRID_CPU_O3_O3_CORE_HH_
