#include "cpu/o3/o3_core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace isagrid {

O3Timing::O3Timing(const O3Params &params)
    : params_(params), rob(params.rob_entries),
      storeBuffer(params.store_buffer), bimodal(params.btb_entries, 1),
      btb(params.btb_entries, ~Addr{0})
{
    if (params.width == 0 || params.rob_entries == 0 ||
        params.btb_entries == 0)
        fatal("o3: width, rob_entries and btb_entries must be non-zero");
}

O3Core::O3Core(const IsaModel &isa, PhysMem &mem, PrivilegeCheckUnit &pcu,
               CacheHierarchy *icache, CacheHierarchy *dcache,
               const O3Params &params)
    : CoreBase(isa, mem, pcu, icache, dcache), timing(params)
{
}

bool
O3Timing::predictAndTrain(Addr pc, bool taken)
{
    std::size_t index = (pc >> 1) % bimodal.size();
    bool target_known = btb[index] == pc;
    bool predicted_taken = bimodal[index] >= 2;
    bool correct = (predicted_taken == taken) && (!taken || target_known);
    // Train.
    if (taken) {
        if (bimodal[index] < 3)
            ++bimodal[index];
        btb[index] = pc;
    } else if (bimodal[index] > 0) {
        --bimodal[index];
    }
    return correct;
}

void
O3Timing::drain(Cycle complete, Cycle penalty)
{
    // The window drains when its latest completion retires. Entries
    // already popped from the ROB need not be revisited: an entry is
    // popped only once it is <= the dispatch cycle of the instruction
    // popping it, dispatch never decreases (the frontier only moves
    // forward, and a full-ROB stall raises it to the stalled dispatch),
    // and every instruction completes no earlier than it dispatched.
    // So each popped entry is <= the current @p complete, and the
    // latest completion pushed since the last drain is exactly the
    // latest one still in the ROB (or @p complete itself).
    frontier = std::max(complete, robMax) + penalty;
    slotInCycle = 0;
    robCount = 0;
    robMax = 0;
    storeCount = 0;
}

Cycle
O3Timing::retire(const RetireInfo &info)
{
    const std::size_t rob_size = rob.size();

    // --- dispatch bandwidth ---
    if (++slotInCycle >= params_.width) {
        slotInCycle = 0;
        ++frontier;
    }
    Cycle dispatch = frontier;

    // Front-end fetch stalls delay dispatch directly.
    if (info.icache_extra) {
        frontier += info.icache_extra;
        dispatch = frontier;
        slotInCycle = 0;
    }

    // --- ROB occupancy: retire completed entries, oldest first ---
    auto pop_completed = [&] {
        while (robCount && rob[robHead] <= dispatch) {
            if (++robHead == rob_size)
                robHead = 0;
            --robCount;
        }
    };
    pop_completed();
    if (robCount == rob_size) {
        // Full: dispatch waits for the oldest entry.
        dispatch = std::max(dispatch, rob[robHead]);
        pop_completed();
        frontier = std::max(frontier, dispatch);
    }

    // --- operand readiness ---
    Cycle ready = dispatch;
    if (info.inst) {
        ready = std::max({ready, regReady[info.inst->rs1],
                          regReady[info.inst->rs2]});
    }

    // PCU checks serialize with issue: a privilege-cache miss delays
    // the instruction by the fill latency (Section 4.3).
    Cycle issue = ready + info.pcu_stall;

    // --- execution latency ---
    Cycle latency = info.inst ? info.inst->exec_latency : 1;
    if (info.is_load) {
        // Store-to-load forwarding from the LSQ: the oldest matching
        // store wins. The ring is scanned as its two contiguous runs.
        const std::size_t size = storeBuffer.size();
        const std::size_t first = std::min(storeCount, size - storeHead);
        const StoreSlot *hit = nullptr;
        for (std::size_t i = storeHead; !hit && i < storeHead + first; ++i)
            if (storeBuffer[i].addr == info.mem_addr)
                hit = &storeBuffer[i];
        for (std::size_t i = 0; !hit && i < storeCount - first; ++i)
            if (storeBuffer[i].addr == info.mem_addr)
                hit = &storeBuffer[i];
        if (hit) {
            latency = 1;
            issue = std::max(issue, hit->ready);
        } else {
            latency = params_.load_to_use + info.dcache_extra;
        }
    } else if (info.is_store) {
        latency = 1; // retires through the store buffer
    }

    Cycle complete = issue + latency;

    if (info.is_store && !storeBuffer.empty()) {
        // Append; a full buffer overwrites its oldest store.
        std::size_t slot = storeHead + storeCount;
        if (storeCount == storeBuffer.size()) {
            slot = storeHead;
            if (++storeHead == storeBuffer.size())
                storeHead = 0;
        } else {
            ++storeCount;
        }
        if (slot >= storeBuffer.size())
            slot -= storeBuffer.size();
        storeBuffer[slot] = {info.mem_addr, complete};
    }
    if (info.inst && !info.is_store)
        regReady[info.inst->rd] = complete;
    std::size_t tail = robHead + robCount;
    rob[tail >= rob_size ? tail - rob_size : tail] = complete;
    ++robCount;
    robMax = std::max(robMax, complete);

    // --- control flow ---
    if (info.cls == InstClass::Branch || info.cls == InstClass::Jump) {
        bool correct = predictAndTrain(info.pc, info.taken_branch);
        if (!correct) {
            frontier = complete + params_.mispredict_penalty;
            slotInCycle = 0;
        }
    }

    // --- serialization (CSR writes, gates, fences) ---
    if (info.serializing)
        drain(complete, params_.serialize_penalty);

    // --- traps flush everything and run the exception microcode ---
    if (info.trap)
        drain(complete, params_.trap_penalty);

    // --- retire bandwidth: commit width per cycle ---
    // The next retire slot is one sub-slot after the last, but no
    // earlier than the cycle this instruction completes.
    if (++retireSub == params_.width) {
        retireSub = 0;
        ++retireCycle;
    }
    if (complete > retireCycle) {
        retireCycle = complete;
        retireSub = 0;
    }
    Cycle delta = retireCycle - lastTotal;
    lastTotal = retireCycle;
    return delta;
}

} // namespace isagrid
