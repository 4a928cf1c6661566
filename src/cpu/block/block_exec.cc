/**
 * @file
 * The block-translation executor: CoreBase's translated fast path.
 *
 * execBlock() keeps only what the translation hoisted to block entry
 * (fetch bounds, trusted-memory fetch check, decode, the classical
 * privilege check and the ISA-Grid instruction-check memo — see
 * cpu/block/block_engine.hh), the self-modifying-code exit and
 * chaining. Each op then commits through the same CoreBase helpers
 * as stepOne() — fetch timing, the PCU's own instruction check where
 * the memo cannot vouch for the block, gates, data access, flushes,
 * simmarks, halt, fault delivery and the retire step — so RunResult
 * and every stat dump are bit-identical with the engine on or off
 * (tests/test_block_equivalence.cc enforces this).
 */

#include <cstdint>

#include "cpu/core.hh"
#include "sim/logging.hh"

namespace isagrid {

void
CoreBase::runBlocks(RunResult &result, std::uint64_t budget)
{
    BlockEngine &eng = *blockEngine_;
    while (budget) {
        TransBlock *b = eng.find(archState.pc);
        if (!b)
            b = eng.heat(archState.pc);
        if (b && !b->dead) {
            std::uint64_t consumed = 0;
            bool keep = execBlock(*b, result, budget, consumed);
            budget -= consumed;
            if (!keep)
                return;
            if (consumed != 0)
                continue;
            // Entry conditions failed: hand the next instruction to
            // the interpreter (it takes the pending timer, the
            // privileged-op or trusted-fetch fault), then try again.
        }
        if (!stepOne(result))
            return;
        --budget;
    }
    result.reason = StopReason::MaxInstructions;
}

bool
CoreBase::execBlock(TransBlock &block, RunResult &result,
                    std::uint64_t budget, std::uint64_t &consumed)
{
    BlockEngine &eng = *blockEngine_;
    // Per-instruction event kinds (the checks and privilege-cache
    // probes hoisted to block entry) only exist on the interpreter
    // path: when either attached buffer's filter requests one, run
    // the block's ops through stepOne so the event stream stays
    // exact. Any other filter — including the default — keeps the
    // translated fast path, whose stream (BlockEnter, SimMark, traps,
    // plus everything the interpreter residue emits) is complete for
    // the kinds it enables.
    const TraceBuffer *ptrace = pcu_.trace();
    const bool careful =
        (eventTrace &&
         (eventTrace->filterMask() & kTraceFilterPerOp) != 0) ||
        (ptrace && (ptrace->filterMask() & kTraceFilterPerOp) != 0);
    TransBlock *b = &block;
    bool chained = false;

    // The check-memo (block_engine.hh). The legal-instruction cache
    // decides per (domain, pc), so with it on every op takes the
    // PCU's own check.
    const bool legal_cache = pcu_.config().legal_cache_entries != 0;
    auto memo_covers = [&](TransBlock &blk) {
        if (legal_cache || !pcu_.bypassReady())
            return false;
        if (blk.memo_epoch == pcu_.bypassEpoch()) {
            ++eng.stats().memo_hits;
            return true;
        }
        if (!pcu_.bypassCovers(blk.need_words.data(),
                               blk.need_words.size()))
            return false;
        blk.memo_epoch = pcu_.bypassEpoch();
        ++eng.stats().memo_fills;
        return true;
    };

    for (;;) {
        // --- exact SMC revalidation (per-line write generations) ---
        switch (eng.revalidate(*b)) {
          case BlockEngine::Revalidation::Valid:
          case BlockEngine::Revalidation::Refreshed:
            break;
          case BlockEngine::Revalidation::Retranslated:
            ISAGRID_TRACE_EVENT(eventTrace, TraceKind::BlockInvalidate,
                                b->start, b->invalidations, 1);
            break;
          case BlockEngine::Revalidation::Dead:
            ISAGRID_TRACE_EVENT(eventTrace, TraceKind::BlockInvalidate,
                                b->start, b->invalidations, 2);
            return true;
        }

        // --- hoisted entry conditions (the careful path's stepOne
        // checks every op itself) ---
        if (!careful &&
            ((archState.mode == PrivMode::User && b->any_privileged) ||
             !pcu_.memoryAccessAllowed(b->start, b->byte_end - b->start))) {
            ++eng.stats().fallbacks;
            return true;
        }
        ++eng.stats().entries;
        eng.stats().careful_entries += careful;
        if (chained)
            ++eng.stats().chained_entries;
        ISAGRID_TRACE_EVENT(eventTrace, TraceKind::BlockEnter, b->start,
                            b->ops.size(), chained ? 1 : 0);

        if (careful) {
            // A per-op event filter is attached: execute the block's
            // ops through the interpreter so the per-op event stream
            // (InstCheck, cache probes, ...) stays exact, but keep
            // the block bookkeeping (BlockEnter marks, residency).
            const std::size_t n = b->ops.size();
            for (std::size_t i = 0; i < n; ++i) {
                if (archState.pc != b->ops[i].pc)
                    break; // side exit (taken branch, fault, trap)
                if (consumed == budget)
                    return true;
                bool keep = stepOne(result);
                ++consumed;
                ++eng.stats().translated_insts;
                if (!keep)
                    return false;
            }
        } else {
            // Domain-0 holds every privilege. Elsewhere, where the
            // memo cannot vouch for the block, its ops take the PCU's
            // own check until it can (see below).
            const bool domain0 = pcu_.currentDomain() == 0;
            bool exact = !domain0 && !memo_covers(*b);

            // The timer only fires in user mode, and the mode cannot
            // change inside a block (no traps short of a fault, which
            // exits the block): hoist the mode test out of the loop.
            const Cycle deadline = archState.mode == PrivMode::User
                                       ? nextTimer
                                       : kTimerNever;
            const Addr blk_start = b->start;
            const Addr blk_end = b->byte_end;
            auto retire_op = [&](const RetireInfo &retire) {
                ++consumed;
                ++eng.stats().translated_insts;
                retireInst(retire, blk_start);
            };
            auto fault_out = [&](FaultType fault, Addr fpc, RegVal info,
                                 RetireInfo &retire) {
                bool keep = deliverFault(fault, fpc, info, retire, result);
                retire_op(retire);
                return keep;
            };

            const BlockOp *ops = b->ops.data();
            const std::size_t n = b->ops.size();
            for (std::size_t i = 0; i < n; ++i) {
                const BlockOp &op = ops[i];
                if (archState.pc != op.pc)
                    break; // side exit of an earlier branch
                if (cycleCount >= deadline) [[unlikely]]
                    return true; // stepOne delivers the timer
                if (consumed == budget) [[unlikely]]
                    return true;

                RetireInfo retire;
                retire.pc = op.pc;
                retire.inst = &op.inst;
                retire.cls = op.inst.cls;

                // Fetch bounds and trusted-memory checks were hoisted
                // to block entry; the modeled accesses were not.
                timeFetch(op.pc, retire);

                if (!exact || (i != 0 && memo_covers(*b))) [[likely]] {
                    // The hoisted ISA-Grid instruction check: the
                    // memo proved the outcome (after op 0 refilled
                    // the bypass register, if it had to); account the
                    // check exactly as checkInstruction() would have.
                    exact = false;
                    pcu_.accountBlockCheck(domain0);
                } else {
                    // The interpreter's own check: it refills the
                    // bypass register after a switch, and a denied op
                    // faults where the interpreter would.
                    CheckOutcome chk = pcu_.checkInstructionAt(
                        op.inst.type, op.pc, !isGateClass(op.inst.cls));
                    retire.pcu_stall += chk.stall;
                    if (!chk.allowed) [[unlikely]]
                        return fault_out(chk.fault, op.pc, op.inst.type,
                                         retire);
                }

                if (isGateClass(op.inst.cls)) [[unlikely]] {
                    // A gate ends its block; chain into the
                    // destination, whose op 0 refills.
                    FaultType fault = commitGate(op.inst, op.pc, retire);
                    if (fault != FaultType::None)
                        return fault_out(fault, op.pc, 0, retire);
                    retire_op(retire);
                    break;
                }

                ExecResult res = isa_.execute(op.inst, archState);
                FaultType fault = res.fault;
                Addr fpc = execFaultPc(fault, op.pc, op.inst);
                RegVal info = 0;
                if (fault == FaultType::None) [[likely]] {
                    ISAGRID_ASSERT(!res.csr_write,
                                   "csr write from a translated op");
                    retire.taken_branch = res.taken_branch;
                    retire.serializing = res.serializing;
                    fault = commitData(res, retire);
                    info = res.mem_addr;
                }
                if (fault != FaultType::None) [[unlikely]]
                    return fault_out(fault, fpc, info, retire);
                // A store into this block's own bytes: finish the op,
                // then exit so the next entry revalidates (exact SMC).
                const bool self_smc = retire.is_store &&
                                      retire.mem_addr < blk_end &&
                                      retire.mem_addr + res.mem_size >
                                          blk_start;
                bool keep = commitTail(op.inst, res, retire, result);
                retire_op(retire);
                if (!keep)
                    return false;
                if (self_smc) [[unlikely]]
                    return true;
            }
        }

        // --- direct-branch chaining ---
        const Addr next = archState.pc;
        TransBlock *nb = nullptr;
        if (b->chain[0].pc == next) {
            nb = b->chain[0].target;
            ++eng.stats().chain_hits;
        } else if (b->chain[1].pc == next) {
            nb = b->chain[1].target;
            ++eng.stats().chain_hits;
        } else {
            nb = eng.find(next); // lookup only — never translates
            ++eng.stats().chain_misses;
            if (nb && !nb->dead) {
                TransBlock::Chain &slot =
                    b->chain[b->chain_victim & 1];
                slot.pc = next;
                slot.target = nb;
                b->chain_victim ^= 1;
            }
        }
        if (!nb || nb->dead)
            return true;
        b = nb;
        chained = true;
    }
}

} // namespace isagrid
