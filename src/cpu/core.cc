#include "cpu/core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace isagrid {

CoreBase::CoreBase(const IsaModel &isa, PhysMem &mem,
                   PrivilegeCheckUnit &pcu, CacheHierarchy *icache,
                   CacheHierarchy *dcache)
    : isa_(isa), mem(mem), pcu_(pcu), icache(icache), dcache(dcache),
      icacheHit_(l1Hit(icache)), dcacheHit_(l1Hit(dcache)),
      statGroup("core")
{
    isa_.initState(archState);
    statGroup.addCounter("instructions", instCount, "retired");
    statGroup.addCounter("loads", loadCount, "memory reads");
    statGroup.addCounter("stores", storeCount, "memory writes");
    statGroup.addCounter("branches", branchCount, "control flow changes");
    statGroup.addCounter("csr_accesses", csrAccessCount,
                         "explicit CSR accesses");
    statGroup.addCounter("gates", gateCount, "gate instructions");
    statGroup.addCounter("traps", trapCount, "trap entries");
    statGroup.addFormula("cycles", [this] { return double(cycleCount); },
                         "total cycles");
}

void
CoreBase::reset(Addr boot_pc)
{
    archState = ArchState{};
    isa_.initState(archState);
    archState.pc = boot_pc;
    cycleCount = 0;
    nextTimer = timerInterval ? timerInterval : kTimerNever;
    simMarks.clear();
    // The decode cache needs no flush: entries revalidate against the
    // memory write generations on every hit.
}

Cycle
CoreBase::l1Hit(CacheHierarchy *h)
{
    if (!h || h->numLevels() == 0)
        return 0;
    return h->level(0).params().hit_latency;
}

std::uint64_t
CoreBase::faultsTaken(FaultType fault) const
{
    return faultCounters[static_cast<std::size_t>(fault)].value();
}

void
CoreBase::perfTick(Addr pc, Addr block_start)
{
    PerfFrame chain[kMaxPerfFrames];
    PerfTickInfo info;
    info.instructions = instCount.value();
    info.cycles = cycleCount;
    info.pc = pc;
    info.block_start = block_start;
    info.domain = static_cast<std::uint32_t>(pcu_.currentDomain());
    info.chain = chain;
    // The trusted-stack walk reads guest memory; only pay for it when
    // this boundary actually takes a profile sample.
    info.chain_depth = perfMonitor_->profileDue(info.instructions)
                           ? pcu_.trustedStackFrames(chain,
                                                     kMaxPerfFrames)
                           : 0;
    perfNextAt_ = perfMonitor_->tick(info);
}

bool
CoreBase::deliverFault(FaultType fault, Addr faulting_pc, RegVal info,
                       RetireInfo &retire, RunResult &result)
{
    ++faultCounters[static_cast<std::size_t>(fault)];
    ++trapCount;
    ISAGRID_TRACE_EVENT(eventTrace, TraceKind::Trap,
                        std::uint64_t(fault), faulting_pc, 0);
    Addr handler = isa_.takeTrap(archState, fault, faulting_pc, info);
    retire.trap = true;
    retire.serializing = true;
    retire.taken_branch = true;
    if (handler == 0) {
        // No handler installed: stop the run.
        result.reason = StopReason::UnhandledFault;
        result.fault = fault;
        result.fault_pc = faulting_pc;
        return false;
    }
    archState.pc = handler;
    return true;
}

RunResult
CoreBase::run(std::uint64_t max_insts)
{
    // Stat counters are cumulative across runs (gem5 convention); the
    // RunResult reports this run's deltas.
    const std::uint64_t inst_start = instCount.value();
    const Cycle cycle_start = cycleCount;
    RunResult result;
    result.reason = StopReason::MaxInstructions;
    if (blockEngine_ && !stepHook_) {
        // Step hooks (the text trace among them) need per-step
        // fidelity the translated fast path cannot provide; everything
        // else (including an event-trace buffer, handled inside the
        // block loop) keeps identical architectural behavior.
        runBlocks(result, max_insts);
    } else {
        for (std::uint64_t i = 0; i < max_insts; ++i) {
            if (!stepOne(result))
                break;
        }
    }
    result.instructions = instCount.value() - inst_start;
    result.cycles = cycleCount - cycle_start;
    return result;
}

bool
CoreBase::stepOne(RunResult &result)
{
    // Asynchronous timer delivery (between instructions, user mode
    // only so kernel execution is never re-entered). A disarmed timer
    // parks nextTimer at kTimerNever, making this one cold compare.
    if (cycleCount >= nextTimer &&
        archState.mode == PrivMode::User) [[unlikely]] {
        nextTimer = cycleCount + timerInterval;
        ++trapCount;
        ++faultCounters[std::size_t(FaultType::TimerInterrupt)];
        ISAGRID_TRACE_EVENT(eventTrace, TraceKind::TimerIrq,
                            archState.pc, 0, 0);
        Addr handler = isa_.takeTrap(archState, FaultType::TimerInterrupt,
                                     archState.pc, 0);
        if (handler == 0) {
            result.reason = StopReason::UnhandledFault;
            result.fault = FaultType::TimerInterrupt;
            result.fault_pc = archState.pc;
            return false;
        }
        archState.pc = handler;
        cycleCount += trapPenalty();
        archState.cycle = cycleCount;
    }

    const Addr pc = archState.pc;
    RetireInfo retire;
    retire.pc = pc;
    StepObservation hookObs;
    hookObs.pc = pc;
    hookObs.cycle = cycleCount;
    hookObs.domain = pcu_.currentDomain();

    auto finish = [&](bool keep_running) {
        if (stepHook_) [[unlikely]]
            stepHook_->onStep(archState, hookObs);
        retireInst(retire, 0);
        return keep_running;
    };
    auto fault_out = [&](FaultType fault, Addr fpc, RegVal info) {
        hookObs.fault = fault;
        hookObs.fault_pc = fpc;
        return finish(deliverFault(fault, fpc, info, retire, result));
    };

    // --- fetch ---
    if (pc >= mem.size()) [[unlikely]]
        return fault_out(FaultType::MemoryFault, pc, pc);
    // Fetching from the trusted region would let an attacker execute
    // HPT/SGT bytes as code; it obeys the same domain-0-only rule as
    // loads and stores (Section 4.5).
    if (!pcu_.memoryAccessAllowed(pc, 1)) [[unlikely]]
        return fault_out(FaultType::TrustedMemoryViolation, pc, pc);
    timeFetch(pc, retire);

    // --- decode (fast path: the decoded-instruction cache) ---
    // On a hit the byte fetch and IsaModel::decode() are skipped
    // entirely — pure host work; the timing accesses above already
    // ran, so nothing modeled changes.
    const DecodedInst *inst = nullptr;
    bool privileged, check_cacheable;
    DecodedInst decoded; // slow-path storage when the cache is off
    const DecodeCache::Entry *hit =
        decodeCache_ ? decodeCache_->lookup(pc) : nullptr;
    if (hit) [[likely]] {
        inst = &hit->inst;
        privileged = hit->privileged;
        check_cacheable = hit->check_cacheable;
    } else {
        std::uint8_t buf[16] = {};
        std::size_t avail = std::min<std::size_t>(isa_.maxInstBytes(),
                                                  mem.size() - pc);
        mem.readBlock(pc, buf, avail);
        decoded = isa_.decode(buf, avail, pc);
        if (!decoded.valid)
            return fault_out(FaultType::IllegalInstruction, pc, pc);
        privileged = isa_.instPrivileged(decoded);
        // Value-dependent legality (CSR operands, gates, cache
        // management) must re-run the full check logic every time;
        // everything else may be served by the legal-instruction
        // cache when configured (Section 8).
        check_cacheable = !decoded.isCsrAccess() &&
                          !decoded.csr_dynamic &&
                          !isGateClass(decoded.cls) &&
                          decoded.cls != InstClass::Prefetch &&
                          decoded.cls != InstClass::CacheFlush;
        if (decodeCache_) {
            inst = &decodeCache_
                        ->insert(pc, decoded, privileged,
                                 check_cacheable)
                        ->inst;
        } else {
            inst = &decoded;
        }
    }
    retire.inst = inst;
    retire.cls = inst->cls;
    hookObs.inst = inst;

    // --- classical privilege-level check (coexists with ISA-Grid,
    // Section 4.1: either rejection raises an exception) ---
    if (archState.mode == PrivMode::User && privileged)
        return fault_out(FaultType::IllegalInstruction, pc, pc);

    // --- ISA-Grid instruction privilege check ---
    {
        CheckOutcome chk =
            pcu_.checkInstructionAt(inst->type, pc, check_cacheable);
        hookObs.check = chk.allowed ? StepObservation::Check::Allowed
                                    : StepObservation::Check::Denied;
        hookObs.check_stall = chk.stall;
        retire.pcu_stall += chk.stall;
        if (!chk.allowed)
            return fault_out(chk.fault, pc, inst->type);
    }

    // --- unforgeable domain switching (Section 4.2) ---
    if (isGateClass(inst->cls)) {
        ++gateCount;
        GateOutcome gate;
        if (inst->cls == InstClass::GateRet) {
            gate = pcu_.gateReturn();
        } else {
            GateId gid = archState.reg(inst->rs1);
            gate = pcu_.gateCall(gid, pc,
                                 inst->cls == InstClass::GateCallS,
                                 pc + inst->length);
        }
        retire.pcu_stall += gate.stall;
        if (!gate.ok)
            return fault_out(gate.fault, pc, 0);
        archState.pc = gate.dest_pc;
        retire.taken_branch = true;
        retire.serializing = true;
        return finish(true);
    }

    // --- privilege cache management ---
    if (inst->cls == InstClass::Prefetch) {
        CheckOutcome fill = pcu_.prefetch(archState.reg(inst->rs1));
        retire.pcu_stall += fill.stall;
        if (!fill.allowed)
            return fault_out(fill.fault, pc, 0);
        archState.pc = pc + inst->length;
        return finish(true);
    }
    if (inst->cls == InstClass::CacheFlush) {
        pcu_.flushBuffers(
            static_cast<PcuBuffer>(archState.reg(inst->rs1)));
        archState.pc = pc + inst->length;
        return finish(true);
    }

    // --- execute ---
    ExecResult res = isa_.execute(*inst, archState);
    if (res.fault != FaultType::None)
        return fault_out(res.fault, execFaultPc(res.fault, pc, *inst), 0);

    retire.taken_branch = res.taken_branch;
    retire.serializing = res.serializing;
    hookObs.exec = &res;

    // --- trap return ---
    if (inst->cls == InstClass::TrapRet) {
        archState.pc = isa_.trapReturn(archState);
        ISAGRID_TRACE_EVENT(eventTrace, TraceKind::TrapRet,
                            archState.pc, 0, 0);
        retire.taken_branch = true;
        return finish(true);
    }

    // --- explicit CSR access (register bitmap + bit-mask checks) ---
    if (inst->isCsrAccess() || res.csr_write || inst->csr_dynamic) {
        ++csrAccessCount;
        std::uint32_t csr_addr =
            inst->csr_dynamic
                ? static_cast<std::uint32_t>(archState.reg(inst->rs1))
                : inst->csr_addr;
        if (isa_.isGridReg(csr_addr)) {
            GridReg reg = isa_.gridRegId(csr_addr);
            RegVal old = pcu_.gridReg(reg);
            if (res.csr_old_reg_valid) {
                RegVal value = 0;
                CheckOutcome chk = pcu_.readGridReg(reg, value);
                if (!chk.allowed)
                    return fault_out(FaultType::CsrPrivilege, pc,
                                     csr_addr);
                old = value;
            }
            if (res.csr_write) {
                RegVal newv =
                    isa_.csrNewValue(*inst, old, res.csr_write_value);
                CheckOutcome chk = pcu_.writeGridReg(reg, newv);
                if (!chk.allowed)
                    return fault_out(chk.fault, pc, csr_addr);
                ISAGRID_TRACE_EVENT(eventTrace, TraceKind::CsrCommit,
                                    csr_addr, newv, 0);
            }
            if (res.csr_old_reg_valid)
                archState.setReg(res.csr_old_reg, old);
        } else {
            if (!archState.csrs.exists(csr_addr))
                return fault_out(FaultType::IllegalInstruction, pc,
                                 csr_addr);
            if (archState.mode == PrivMode::User &&
                isa_.csrPrivileged(csr_addr)) {
                return fault_out(FaultType::IllegalInstruction, pc,
                                 csr_addr);
            }
            RegVal old = archState.csrs.read(csr_addr);
            if (res.csr_old_reg_valid) {
                CheckOutcome chk = pcu_.checkCsrRead(csr_addr);
                retire.pcu_stall += chk.stall;
                if (!chk.allowed)
                    return fault_out(chk.fault, pc, csr_addr);
            }
            if (res.csr_write) {
                RegVal newv =
                    isa_.csrNewValue(*inst, old, res.csr_write_value);
                CheckOutcome chk =
                    pcu_.checkCsrWrite(csr_addr, old, newv);
                retire.pcu_stall += chk.stall;
                if (!chk.allowed)
                    return fault_out(chk.fault, pc, csr_addr);
                archState.csrs.write(csr_addr, newv);
                ISAGRID_TRACE_EVENT(eventTrace, TraceKind::CsrCommit,
                                    csr_addr, newv, 0);
                // An address-space switch invalidates the TLBs.
                if (csr_addr == isa_.ptbrCsrAddr())
                    flushTlbs();
            }
            if (res.csr_old_reg_valid)
                archState.setReg(res.csr_old_reg, old);
        }
    }

    // --- memory access (with the trusted-memory check, Section 4.5) ---
    FaultType fault = commitData(res, retire);
    if (fault != FaultType::None)
        return fault_out(fault, pc, res.mem_addr);
    return finish(commitTail(*inst, res, retire, result));
}

} // namespace isagrid
