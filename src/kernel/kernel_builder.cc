#include "kernel/kernel_builder.hh"

#include "isa/riscv/opcodes.hh"
#include "isa/x86/opcodes.hh"
#include "sim/logging.hh"
#include "verify/dataflow.hh"
#include "verify/minimize.hh"

namespace isagrid {

namespace {

/** Emit a compute loop of roughly 4*iters instructions (service work). */
void
emitWork(AsmIface &a, unsigned iters)
{
    unsigned t2 = a.regTmp(2), t3 = a.regTmp(3), t4 = a.regTmp(4);
    a.li(t2, 0x12345);
    a.li(t4, 7);
    a.li(t3, iters);
    auto loop = a.newLabel();
    a.bind(loop);
    a.add(t2, t4);
    a.xor_(t2, t4);
    a.shli(t2, 1);
    a.loopDec(t3, loop);
}

} // namespace

KernelBuilder::KernelBuilder(Machine &machine, const KernelConfig &config)
    : machine(machine), config_(config)
{
}

void
KernelBuilder::emitGateCall(AsmIface &a, AsmIface::Label dest,
                            DomainId dest_domain)
{
    GateId id = pendingGates.size();
    a.li(a.regGate(), id);
    Addr gate_pc = a.here();
    a.hccalls(a.regGate());
    pendingGates.push_back({gate_pc, dest, dest_domain});
    if (config_.prefetch_on_entry) {
        // Software prefetch of the new domain's CSR privilege entries
        // happens at the *destination*; here we only mark the option.
    }
}

KernelImage
KernelBuilder::build(Addr user_entry)
{
    const Addr code_base = config_.code_base;
    DomainManager &dm = machine.domains();
    std::unique_ptr<AsmIface> ap =
        machine.isa().name() == "x86" ? makeX86Asm(code_base)
                                      : makeRiscvAsm(code_base);
    AsmIface &a = *ap;
    const bool x86 = a.isX86();

    // ------------------------------------------------------------------
    // Domain plan (Sections 6.1 / 6.2).
    // ------------------------------------------------------------------
    if (decomposed()) {
        image.kernel_domain = dm.createBaselineDomain();
        if (x86) {
            // The trap path reads/writes the uncontrolled TRAP_* block
            // through rdmsr/wrmsr; grant the instructions, not the MSRs.
            dm.allowInstruction(image.kernel_domain, x86::IT_RDMSR);
            dm.allowInstruction(image.kernel_domain, x86::IT_WRMSR);
            // The outer kernel may flip CR4.SMAP and nothing else
            // (Section 6.2); reads of CR4 are allowed.
            dm.allowInstruction(image.kernel_domain, x86::IT_MOV_R_CR);
            dm.allowInstruction(image.kernel_domain, x86::IT_MOV_CR_R);
            dm.allowCsrRead(image.kernel_domain, x86::CSR_CR4);
            dm.setCsrMask(image.kernel_domain, x86::CSR_CR4,
                          x86::CR4_SMAP);
        } else {
            using namespace riscv;
            dm.allowCsrRead(image.kernel_domain, CSR_SCAUSE);
            dm.allowCsrRead(image.kernel_domain, CSR_SEPC);
            dm.allowCsrRead(image.kernel_domain, CSR_STVAL);
            dm.allowCsrRead(image.kernel_domain, CSR_SSTATUS);
            dm.allowCsrRead(image.kernel_domain, CSR_SSCRATCH);
            dm.allowCsrWrite(image.kernel_domain, CSR_SEPC);
            dm.allowCsrWrite(image.kernel_domain, CSR_SSCRATCH);
            dm.setCsrMask(image.kernel_domain, CSR_SSTATUS,
                          SSTATUS_SPP | SSTATUS_SPIE | SSTATUS_SIE |
                              SSTATUS_SUM);
        }

        // The MM / monitor domain owns the page-table base register and
        // TLB maintenance; the nested monitor additionally owns the
        // control registers it mediates (Section 6.2).
        image.mm_domain = dm.createBaselineDomain();
        if (x86) {
            dm.allowInstruction(image.mm_domain, x86::IT_MOV_R_CR);
            dm.allowInstruction(image.mm_domain, x86::IT_MOV_CR_R);
            dm.allowInstruction(image.mm_domain, x86::IT_INVLPG);
            dm.allowCsrRead(image.mm_domain, x86::CSR_CR3);
            dm.allowCsrWrite(image.mm_domain, x86::CSR_CR3);
            if (config_.mode == KernelMode::NestedMonitor) {
                dm.allowInstruction(image.mm_domain, x86::IT_RDMSR);
                dm.allowInstruction(image.mm_domain, x86::IT_WRMSR);
                dm.allowCsrRead(image.mm_domain, x86::CSR_CR0);
                dm.allowCsrWrite(image.mm_domain, x86::CSR_CR0);
                dm.allowCsrRead(image.mm_domain, x86::CSR_CR4);
                dm.allowCsrWrite(image.mm_domain, x86::CSR_CR4);
                dm.allowCsrWrite(image.mm_domain, x86::CSR_IDTR);
                dm.allowInstruction(image.mm_domain, x86::IT_LIDT);
                dm.allowCsrRead(image.mm_domain, x86::MSR_EFER);
                dm.allowCsrWrite(image.mm_domain, x86::MSR_EFER);
            }
        } else {
            using namespace riscv;
            dm.allowInstruction(image.mm_domain, IT_SFENCE_VMA);
            dm.allowCsrRead(image.mm_domain, CSR_SATP);
            dm.allowCsrWrite(image.mm_domain, CSR_SATP);
        }

        // One domain per Table 5 service, granted exactly the resource
        // the service reads.
        auto make_service = [&](Sys sys, std::uint32_t csr,
                                InstTypeId x86_inst) {
            DomainId d = dm.createBaselineDomain();
            if (x86) {
                dm.allowInstruction(d, x86_inst);
                if (csr != 0)
                    dm.allowCsrRead(d, csr);
            } else {
                dm.allowCsrRead(d, csr);
            }
            image.service_domains[sys] = d;
        };
        if (x86) {
            make_service(Sys::ServiceCpuid, 0, x86::IT_CPUID);
            make_service(Sys::ServiceMtrr, x86::MSR_MTRR_DEF_TYPE,
                         x86::IT_RDMSR);
            make_service(Sys::ServicePmc0, x86::MSR_PMC0, x86::IT_RDMSR);
            make_service(Sys::ServicePmc1, x86::MSR_PMC1, x86::IT_RDMSR);
        } else {
            using namespace riscv;
            make_service(Sys::ServiceCpuid, CSR_TIME, 0);
            make_service(Sys::ServiceMtrr, CSR_CYCLE, 0);
            make_service(Sys::ServicePmc0, CSR_INSTRET, 0);
            make_service(Sys::ServicePmc1, CSR_INSTRET, 0);
        }

        // Deliberate policy drift: grants no kernel code path uses,
        // for exercising the least-privilege inference.
        if (config_.overprovision) {
            if (x86) {
                dm.allowInstruction(image.kernel_domain, x86::IT_WBINVD);
                dm.allowCsrRead(image.kernel_domain, x86::MSR_VOLTAGE);
                dm.allowCsrWrite(image.kernel_domain, x86::MSR_VOLTAGE);
                dm.setCsrMask(image.kernel_domain, x86::CSR_CR4,
                              ~RegVal{0});
            } else {
                using namespace riscv;
                dm.allowInstruction(image.kernel_domain, IT_WFI);
                dm.allowCsrRead(image.kernel_domain, CSR_SCOUNTEREN);
                dm.allowCsrWrite(image.kernel_domain, CSR_SCOUNTEREN);
                dm.setCsrMask(image.kernel_domain, CSR_SSTATUS,
                              ~RegVal{0});
            }
        }
    }

    // Register conventions used below.
    const unsigned t0 = a.regTmp(0), t1 = a.regTmp(1), t2 = a.regTmp(2),
                   t3 = a.regTmp(3), t4 = a.regTmp(4);
    const unsigned arg0 = a.regArg(0), arg1 = a.regArg(1),
                   arg2 = a.regArg(2);
    const unsigned a5 = a.regArg(5);

    const std::uint32_t ptbr = a.ptbrCsr();

    // Handler labels (bound as emitted; the jump table is written to
    // guest memory by the loader afterwards).
    std::vector<AsmIface::Label> handlers(numSyscalls);
    for (auto &l : handlers)
        l = a.newLabel();
    auto trap_entry = a.newLabel();
    auto syscall_exit = a.newLabel();
    auto bad_syscall = a.newLabel();
    auto other_trap = a.newLabel();
    auto mm_set_ptbr = a.newLabel();   // gated MM function
    auto mm_mmap = a.newLabel();       // gated MM function (nested)
    // Per-thread trusted-stack geometry (Sections 5.2 / 8): the top of
    // the trusted stack region holds the per-thread saved hcsp slots;
    // the rest is split into one window per TCB.
    const bool tstacks = config_.per_thread_tstack && decomposed();
    if (config_.per_thread_tstack && !decomposed())
        fatal("per-thread trusted stacks require a decomposed kernel");
    const Addr tstack_base = dm.trustedStackBase();
    const Addr thread_ctx = dm.trustedStackLimit() - 64;
    const std::uint64_t tstack_window = (thread_ctx - tstack_base) / 2;
    std::vector<AsmIface::Label> service_bodies(4);
    for (auto &l : service_bodies)
        l = a.newLabel();
    auto boot = a.newLabel();

    const Addr table_addr = layout::kernelDataBase + 0x3000; // 32 x 8B

    // Per-domain code map: close the open region at the emission point
    // and open a new one owned by @p domain. The verifier needs to know
    // which domain executes each byte of the image.
    auto mark = [&](DomainId domain, const char *name) {
        Addr here = a.here();
        if (!image.code_regions.empty()) {
            CodeRegion &open = image.code_regions.back();
            open.limit = here;
            if (open.limit <= open.base)
                image.code_regions.pop_back();
        }
        image.code_regions.push_back({here, 0, domain, name});
    };

    // ------------------------------------------------------------------
    // Trap entry and syscall dispatch.
    // ------------------------------------------------------------------
    if (config_.pti && decomposed())
        fatal("pti is modelled for the monolithic baseline only");

    // Kernel-side page-table root switch (PTI). Emitted at entry and
    // exit when config_.pti is set.
    auto emit_pti_switch = [&](std::uint64_t root) {
        a.li(a5, layout::pageTableArea + root);
        a.csrWrite(ptbr, a5);
        a.flushTlb();
    };

    // --- shared context-switch body (explicit syscall and timer) ---
    // Swaps the TCB register sets, optionally switches the per-thread
    // trusted stack in domain-0, and changes the address-space root.
    auto emit_tswitch_inline = [&]() {
        // Enter domain-0 at the very next instruction (plain gate: the
        // trusted stack itself is being switched, so the extended
        // call/return protocol cannot be used here).
        GateId id1 = pendingGates.size();
        a.li(a.regGate(), id1);
        Addr pc1 = a.here();
        auto d0_entry = a.newLabel();
        a.hccall(a.regGate());
        a.bind(d0_entry);
        mark(0, "tswitch domain-0 window");
        pendingGates.push_back({pc1, d0_entry, 0});

        // Domain-0: t2 = incoming TCB, t3 = outgoing TCB.
        a.li(t1, layout::currentTcb);
        a.load64(t2, t1, 0);
        a.mov(t3, t2);
        a.li(t1, 1);
        a.xor_(t3, t1);
        // Save the outgoing hcsp.
        a.csrRead(t0, a.gridRegCsr(GridReg::Hcsp));
        a.li(t1, thread_ctx);
        a.shli(t3, 3);
        a.add(t1, t3);
        a.store64(t0, t1, 0);
        // Install the incoming hcsp and window bounds.
        a.li(t1, thread_ctx);
        a.mov(t4, t2);
        a.shli(t4, 3);
        a.add(t1, t4);
        a.load64(t0, t1, 0);
        a.csrWrite(a.gridRegCsr(GridReg::Hcsp), t0);
        a.li(t1, tstack_window);
        a.mov(t4, t2);
        a.mul(t4, t1);
        a.li(t1, tstack_base);
        a.add(t1, t4);
        a.csrWrite(a.gridRegCsr(GridReg::Hcsb), t1);
        a.li(t4, tstack_window);
        a.add(t1, t4);
        a.csrWrite(a.gridRegCsr(GridReg::Hcsl), t1);

        // Back into the kernel's basic domain.
        GateId id2 = pendingGates.size();
        a.li(a.regGate(), id2);
        Addr pc2 = a.here();
        auto resume = a.newLabel();
        a.hccall(a.regGate());
        a.bind(resume);
        mark(image.kernel_domain, "kernel text");
        pendingGates.push_back({pc2, resume, image.kernel_domain});
    };

    auto emit_ctx_body = [&]() {
        a.li(t0, layout::currentTcb);
        a.load64(t1, t0, 0);
        a.mov(t2, t1);
        a.shli(t2, 6);
        a.li(t3, layout::tcbArea);
        a.add(t3, t2);
        for (unsigned i = 0; i < 4; ++i)
            a.store64(a.regUser(i), t3, 8 * i);
        a.store64(a.regSp(), t3, 32);
        // Toggle and reload.
        a.li(t2, 1);
        a.xor_(t1, t2);
        a.store64(t1, t0, 0);
        a.mov(t2, t1);
        a.shli(t2, 6);
        a.li(t3, layout::tcbArea);
        a.add(t3, t2);
        for (unsigned i = 0; i < 4; ++i)
            a.load64(a.regUser(i), t3, 8 * i);
        a.load64(a.regSp(), t3, 32);
        if (tstacks) {
            emit_tswitch_inline();
            // The domain-0 routine clobbered the scratch set; reload
            // the incoming TCB id.
            a.li(t0, layout::currentTcb);
            a.load64(t1, t0, 0);
        }
        // New page-table root: pageTableArea | (tcb << 12).
        a.mov(arg1, t1);
        a.shli(arg1, 12);
        a.li(t2, layout::pageTableArea);
        a.add(arg1, t2);
        if (decomposed()) {
            emitGateCall(a, mm_set_ptbr, image.mm_domain);
        } else {
            a.csrWrite(ptbr, arg1);
            a.flushTlb();
        }
    };

    mark(image.kernel_domain, "kernel text");
    a.bind(trap_entry);
    if (config_.pti)
        emit_pti_switch(0); // kernel page table
    a.li(a5, layout::regSaveArea);
    a.store64(t0, a5, 0);
    a.store64(t1, a5, 8);
    a.store64(t2, a5, 16);
    a.store64(t3, a5, 24);
    a.store64(t4, a5, 32);
    a.csrRead(t0, a.trapCauseCsr());
    a.li(t1, a.syscallCause());
    a.bne(t0, t1, other_trap);
    // Syscall: clamp the number and dispatch through the jump table.
    a.mov(t0, arg0);
    a.li(t1, 31);
    a.and_(t0, t1);
    a.shli(t0, 3);
    a.li(t1, table_addr);
    a.add(t1, t0);
    a.load64(t2, t1, 0);
    a.jmpReg(t2);

    // Non-syscall trap: a timer interrupt drives the preemptive
    // context-switch path; anything else is recorded and resumes at
    // the registered recovery point (the attack harness uses this),
    // or stops.
    a.bind(other_trap);
    if (config_.timer_interval != 0) {
        auto not_timer = a.newLabel();
        a.li(t1, a.timerCause());
        a.bne(t0, t1, not_timer);
        emit_ctx_body();
        a.jmp(syscall_exit);
        a.bind(not_timer);
    }
    a.li(t1, layout::lastFaultCause);
    a.store64(t0, t1, 0);
    a.li(t1, layout::faultCount);
    a.load64(t2, t1, 0);
    a.addi(t2, 1);
    a.store64(t2, t1, 0);
    a.li(t1, layout::recoveryAddr);
    a.load64(t2, t1, 0);
    auto no_recovery = a.newLabel();
    a.beqz(t2, no_recovery);
    a.csrWrite(a.trapEpcCsr(), t2);
    a.jmp(syscall_exit);
    a.bind(no_recovery);
    a.li(t0, 0xdead);
    a.halt(t0);

    // Common exit: restore the kernel scratch set and return.
    a.bind(syscall_exit);
    a.li(a5, layout::regSaveArea);
    a.load64(t0, a5, 0);
    a.load64(t1, a5, 8);
    a.load64(t2, a5, 16);
    a.load64(t3, a5, 24);
    a.load64(t4, a5, 32);
    if (config_.pti)
        emit_pti_switch(1 << 12); // user page table
    a.trapRet();

    // ------------------------------------------------------------------
    // Syscall handlers.
    // ------------------------------------------------------------------
    auto H = [&](Sys s) { a.bind(handlers[std::uint64_t(s)]); };

    // User-memory access window: real kernels raise and drop the
    // supervisor-user access permission around copies (stac/clac on
    // x86, SSTATUS.SUM on RISC-V). This is a bit-masked CSR write, so
    // it exercises the bit-mask check on every read/write syscall.
    auto user_access = [&](bool enable) {
        if (x86) {
            a.csrRead(t3, x86::CSR_CR4);
            a.li(t4, x86::CR4_SMAP);
            if (enable) {
                // Clearing SMAP opens the window.
                a.li(t4, ~std::uint64_t(x86::CR4_SMAP));
                a.and_(t3, t4);
            } else {
                a.or_(t3, t4);
            }
            a.csrWrite(x86::CSR_CR4, t3);
        } else {
            a.csrRead(t3, riscv::CSR_SSTATUS);
            a.li(t4, riscv::SSTATUS_SUM);
            if (enable) {
                a.or_(t3, t4);
            } else {
                a.li(t4, ~std::uint64_t(riscv::SSTATUS_SUM));
                a.and_(t3, t4);
            }
            a.csrWrite(riscv::CSR_SSTATUS, t3);
        }
    };

    H(Sys::Getpid);
    a.li(arg0, 1234);
    a.jmp(syscall_exit);

    // read(dst=arg1, words=arg2): kernel buffer -> user memory.
    H(Sys::Read);
    {
        user_access(true);
        a.li(t0, layout::kernelIoBuffer);
        a.mov(t1, arg1);
        a.mov(t2, arg2);
        auto done = a.newLabel();
        a.beqz(t2, done);
        auto loop = a.newLabel();
        a.bind(loop);
        a.load64(t3, t0, 0);
        a.store64(t3, t1, 0);
        a.addi(t0, 8);
        a.addi(t1, 8);
        a.loopDec(t2, loop);
        a.bind(done);
        user_access(false);
        a.mov(arg0, arg2);
        a.jmp(syscall_exit);
    }

    // write(src=arg1, words=arg2): user memory -> kernel buffer.
    H(Sys::Write);
    {
        user_access(true);
        a.mov(t0, arg1);
        a.li(t1, layout::kernelIoBuffer);
        a.mov(t2, arg2);
        auto done = a.newLabel();
        a.beqz(t2, done);
        auto loop = a.newLabel();
        a.bind(loop);
        a.load64(t3, t0, 0);
        a.store64(t3, t1, 0);
        a.addi(t0, 8);
        a.addi(t1, 8);
        a.loopDec(t2, loop);
        a.bind(done);
        user_access(false);
        a.mov(arg0, arg2);
        a.jmp(syscall_exit);
    }

    // open(tag=arg1): first free fd-table slot.
    H(Sys::Open);
    {
        a.li(t0, layout::fdTable);
        a.li(t1, layout::fdEntries);
        auto loop = a.newLabel();
        auto found = a.newLabel();
        auto full = a.newLabel();
        a.bind(loop);
        a.load64(t2, t0, 0);
        a.beqz(t2, found);
        a.addi(t0, 8);
        a.loopDec(t1, loop);
        a.jmp(full);
        a.bind(found);
        a.store64(arg1, t0, 0);
        a.mov(arg0, t0);
        a.li(t2, layout::fdTable);
        a.sub(arg0, t2);
        a.shri(arg0, 3);
        a.jmp(syscall_exit);
        a.bind(full);
        a.li(arg0, ~0ull);
        a.jmp(syscall_exit);
    }

    // close(fd=arg1).
    H(Sys::Close);
    {
        a.mov(t0, arg1);
        a.li(t1, layout::fdEntries - 1);
        a.and_(t0, t1);
        a.shli(t0, 3);
        a.li(t1, layout::fdTable);
        a.add(t1, t0);
        a.li(t2, 0);
        a.store64(t2, t1, 0);
        a.li(arg0, 0);
        a.jmp(syscall_exit);
    }

    // stat(): fill the stat record.
    H(Sys::Stat);
    {
        a.li(t0, layout::statBuffer);
        a.li(t1, 0x1db7);
        for (int i = 0; i < 8; ++i) {
            a.store64(t1, t0, i * 8);
            a.addi(t1, 1);
        }
        a.li(arg0, 0);
        a.jmp(syscall_exit);
    }

    // pipe_write(value=arg1).
    H(Sys::PipeWrite);
    {
        a.li(t0, layout::pipeHead);
        a.load64(t1, t0, 0);
        a.mov(t2, t1);
        a.li(t3, layout::pipeEntries - 1);
        a.and_(t2, t3);
        a.shli(t2, 3);
        a.li(t3, layout::pipeBuffer);
        a.add(t3, t2);
        a.store64(arg1, t3, 0);
        a.addi(t1, 1);
        a.store64(t1, t0, 0);
        a.li(arg0, 0);
        a.jmp(syscall_exit);
    }

    // pipe_read() -> value.
    H(Sys::PipeRead);
    {
        a.li(t0, layout::pipeTail);
        a.load64(t1, t0, 0);
        a.mov(t2, t1);
        a.li(t3, layout::pipeEntries - 1);
        a.and_(t2, t3);
        a.shli(t2, 3);
        a.li(t3, layout::pipeBuffer);
        a.add(t3, t2);
        a.load64(arg0, t3, 0);
        a.addi(t1, 1);
        a.store64(t1, t0, 0);
        a.jmp(syscall_exit);
    }

    // sig_install(handler=arg1).
    H(Sys::SigInstall);
    {
        a.li(t0, layout::sigHandler);
        a.store64(arg1, t0, 0);
        a.li(arg0, 0);
        a.jmp(syscall_exit);
    }

    // sig_raise(): redirect the trap return to the user handler.
    H(Sys::SigRaise);
    {
        a.csrRead(t0, a.trapEpcCsr());
        a.li(t1, layout::sigSavedEpc);
        a.store64(t0, t1, 0);
        a.li(t1, layout::sigHandler);
        a.load64(t0, t1, 0);
        a.csrWrite(a.trapEpcCsr(), t0);
        a.li(arg0, 0);
        a.jmp(syscall_exit);
    }

    // sig_return(): resume the interrupted user code.
    H(Sys::SigReturn);
    {
        a.li(t1, layout::sigSavedEpc);
        a.load64(t0, t1, 0);
        a.csrWrite(a.trapEpcCsr(), t0);
        a.li(arg0, 0);
        a.jmp(syscall_exit);
    }

    // ctx_switch(): swap TCBs and the address space root.
    H(Sys::CtxSwitch);
    {
        emit_ctx_body();
        a.li(arg0, 0);
        a.jmp(syscall_exit);
    }

    // mmap_touch(page=arg1): update PTEs, then flush.
    H(Sys::MmapTouch);
    {
        // Compute the PTE slot address into arg1 and the PTE value
        // into arg2 so the gated function can use them directly.
        a.mov(t0, arg1);
        a.li(t1, 255);
        a.and_(t0, t1);
        a.shli(t0, 3);
        a.li(arg2, 0x627); // V|R|W|A|D-style PTE bits
        a.li(t1, layout::pageTableArea);
        a.add(t1, t0);
        a.mov(arg1, t1);
        if (config_.mode == KernelMode::NestedMonitor) {
            // The monitor mediates the mapping change itself.
            emitGateCall(a, mm_mmap, image.mm_domain);
        } else {
            for (int i = 0; i < 8; ++i)
                a.store64(arg2, arg1, i * 8);
            if (decomposed()) {
                emitGateCall(a, mm_set_ptbr, image.mm_domain);
            } else {
                a.csrWrite(ptbr, arg1);
                a.flushTlb();
            }
        }
        a.li(arg0, 0);
        a.jmp(syscall_exit);
    }

    // Table 5 services: work, one privileged read, work.
    struct ServicePlan
    {
        Sys sys;
        std::uint32_t csr; //!< 0 => cpuid instruction
    };
    ServicePlan plans[4];
    if (x86) {
        plans[0] = {Sys::ServiceCpuid, 0};
        plans[1] = {Sys::ServiceMtrr, x86::MSR_MTRR_DEF_TYPE};
        plans[2] = {Sys::ServicePmc0, x86::MSR_PMC0};
        plans[3] = {Sys::ServicePmc1, x86::MSR_PMC1};
    } else {
        plans[0] = {Sys::ServiceCpuid, riscv::CSR_TIME};
        plans[1] = {Sys::ServiceMtrr, riscv::CSR_CYCLE};
        plans[2] = {Sys::ServicePmc0, riscv::CSR_INSTRET};
        plans[3] = {Sys::ServicePmc1, riscv::CSR_INSTRET};
    }
    // Work sizes differ per service so the four latencies are
    // distinct, as in Table 5; sized so a service costs a couple of
    // thousand cycles and the added gate pair stays below 5%.
    static constexpr unsigned service_work[4] = {700, 660, 600, 580};
    for (unsigned s = 0; s < 4; ++s) {
        H(plans[s].sys);
        emitWork(a, service_work[s]);
        if (decomposed()) {
            emitGateCall(a, service_bodies[s],
                         image.service_domains[plans[s].sys]);
        } else {
            if (x86 && plans[s].csr == 0)
                a.cpuid();
            else
                a.csrRead(a.regArg(4), plans[s].csr);
        }
        a.mov(arg0, a.regArg(4));
        emitWork(a, service_work[s]);
        a.jmp(syscall_exit);
    }

    // ------------------------------------------------------------------
    // Gated functions (run in the MM / monitor / service domains).
    // ------------------------------------------------------------------
    mark(image.mm_domain, "mm_set_ptbr");
    a.bind(mm_set_ptbr);
    {
        if (config_.prefetch_on_entry) {
            a.li(a5, 0);
            a.pfch(a5);
        }
        if (x86 && config_.mode == KernelMode::NestedMonitor) {
            // Monitor entry: raise write privilege (clear CR0.WP).
            a.csrRead(t0, x86::CSR_CR0);
            a.li(t1, ~std::uint64_t(x86::CR0_WP));
            a.and_(t0, t1);
            a.csrWrite(x86::CSR_CR0, t0);
        }
        a.csrWrite(ptbr, arg1);
        a.flushTlb();
        if (config_.mode == KernelMode::NestedMonitor &&
            config_.monitor_log) {
            a.li(t0, layout::monitorLogHead);
            a.load64(t1, t0, 0);
            a.mov(t2, t1);
            a.li(t3, layout::monitorLogEntries - 1);
            a.and_(t2, t3);
            a.shli(t2, 3);
            a.li(t3, layout::monitorLogBase);
            a.add(t3, t2);
            a.store64(arg1, t3, 0);
            a.addi(t1, 1);
            a.store64(t1, t0, 0);
        }
        if (x86 && config_.mode == KernelMode::NestedMonitor) {
            // Monitor exit: restore CR0.WP.
            a.csrRead(t0, x86::CSR_CR0);
            a.li(t1, x86::CR0_WP);
            a.or_(t0, t1);
            a.csrWrite(x86::CSR_CR0, t0);
        }
        a.hcrets();
    }

    mark(image.mm_domain, "mm_mmap");
    a.bind(mm_mmap);
    {
        if (x86 && config_.mode == KernelMode::NestedMonitor) {
            a.csrRead(t0, x86::CSR_CR0);
            a.li(t1, ~std::uint64_t(x86::CR0_WP));
            a.and_(t0, t1);
            a.csrWrite(x86::CSR_CR0, t0);
        }
        for (int i = 0; i < 8; ++i)
            a.store64(arg2, arg1, i * 8);
        a.csrWrite(ptbr, arg1);
        a.flushTlb();
        if (config_.monitor_log) {
            a.li(t0, layout::monitorLogHead);
            a.load64(t1, t0, 0);
            a.mov(t2, t1);
            a.li(t3, layout::monitorLogEntries - 1);
            a.and_(t2, t3);
            a.shli(t2, 3);
            a.li(t3, layout::monitorLogBase);
            a.add(t3, t2);
            a.store64(arg1, t3, 0);
            a.addi(t1, 1);
            a.store64(t1, t0, 0);
        }
        if (x86 && config_.mode == KernelMode::NestedMonitor) {
            a.csrRead(t0, x86::CSR_CR0);
            a.li(t1, x86::CR0_WP);
            a.or_(t0, t1);
            a.csrWrite(x86::CSR_CR0, t0);
        }
        a.hcrets();
    }

    // Service bodies (one per service domain).
    for (unsigned s = 0; s < 4; ++s) {
        mark(decomposed() ? image.service_domains[plans[s].sys] : 0,
             "service body");
        a.bind(service_bodies[s]);
        if (config_.prefetch_on_entry) {
            a.li(a5, 0);
            a.pfch(a5);
        }
        if (x86 && plans[s].csr == 0)
            a.cpuid();
        else
            a.csrRead(a.regArg(4), plans[s].csr);
        a.hcrets();
    }

    // Unknown syscall number.
    mark(image.kernel_domain, "bad_syscall");
    a.bind(bad_syscall);
    a.li(arg0, ~0ull);
    a.jmp(syscall_exit);

    // ------------------------------------------------------------------
    // Boot (domain-0, supervisor).
    // ------------------------------------------------------------------
    mark(0, "boot");
    a.bind(boot);
    a.li(t0, a.labelAddr(trap_entry));
    a.csrWrite(a.trapVecCsr(), t0);
    if (decomposed()) {
        // Leave domain-0 for the kernel's basic domain through the
        // boot gate (registered below), then enter user mode.
        GateId id = pendingGates.size();
        a.li(a.regGate(), id);
        Addr gate_pc = a.here();
        auto post_boot = a.newLabel();
        a.hccall(a.regGate());
        pendingGates.push_back({gate_pc, post_boot, image.kernel_domain});
        a.bind(post_boot);
        mark(image.kernel_domain, "post-boot");
        a.li(t0, user_entry);
        a.csrWrite(a.trapEpcCsr(), t0);
        a.setTrapRetToUser();
        a.trapRet();
    } else {
        a.li(t0, user_entry);
        a.csrWrite(a.trapEpcCsr(), t0);
        a.setTrapRetToUser();
        a.trapRet();
    }

    // ------------------------------------------------------------------
    // Load, wire up the jump table, register the gates.
    // ------------------------------------------------------------------
    if (!image.code_regions.empty())
        image.code_regions.back().limit = a.here();
    a.loadInto(machine.mem());
    PhysMem &mem = machine.mem();

    // Zero the kernel data region.
    for (Addr p = layout::kernelDataBase;
         p < layout::kernelDataBase + 0x3200; p += 8) {
        mem.write64(p, 0);
    }
    // Syscall jump table (32 entries; invalid -> bad_syscall).
    for (std::uint64_t i = 0; i < 32; ++i) {
        Addr target = i < numSyscalls ? a.labelAddr(handlers[i])
                                      : a.labelAddr(bad_syscall);
        mem.write64(table_addr + i * 8, target);
    }
    // Fill the kernel IO buffer with recognizable data.
    for (Addr p = layout::kernelIoBuffer;
         p < layout::kernelIoBuffer + 4096; p += 8) {
        mem.write64(p, 0x4b4b4b4b00000000ull | p);
    }

    // Per-thread trusted-stack initial state: thread i's saved hcsp
    // starts at the bottom of its window; the live registers hold
    // thread-0's window.
    if (tstacks) {
        PrivilegeCheckUnit &pcu = machine.pcu();
        for (std::uint64_t i = 0; i < 2; ++i) {
            mem.write64(thread_ctx + i * 8,
                        tstack_base + i * tstack_window);
        }
        pcu.setGridReg(GridReg::Hcsp, tstack_base);
        pcu.setGridReg(GridReg::Hcsb, tstack_base);
        pcu.setGridReg(GridReg::Hcsl, tstack_base + tstack_window);
    }

    for (const auto &g : pendingGates) {
        dm.registerGate(g.gate_pc, a.labelAddr(g.dest), g.dest_domain);
    }
    image.gates_registered = pendingGates.size();
    dm.publish();

    if (config_.timer_interval != 0)
        machine.core().setTimer(config_.timer_interval);

    image.boot_pc = a.labelAddr(boot);
    image.trap_entry = a.labelAddr(trap_entry);

    // Opt-in least-privilege rewrite: infer what the finished image
    // can reach from its gates (plus the trap handler), synthesize the
    // minimal policy and install it over the published HPT.
    if (config_.minimize_policy && decomposed()) {
        PolicySnapshot snap = PolicySnapshot::fromPcu(machine.pcu());
        PrivilegeInference inference(machine.isa(), machine.mem(), snap,
                                     image.code_regions);
        inference.addEntry(image.kernel_domain, image.trap_entry);
        MinimizeResult minimized = minimizePolicy(
            machine.isa(), machine.mem(), snap, inference);
        if (!minimized.subset) {
            fatal("minimized policy is not a subset of the configured "
                  "policy:\n%s", minimized.text().c_str());
        }
        applyMinimizedPolicy(machine.isa(), machine.mem(), snap,
                             minimized, &machine.pcu());
    }

    // Opt-in post-build check: the finished image and the published
    // domain configuration must satisfy the Section 4.2/4.5 invariants
    // statically, before any simulation cycle runs.
    if (config_.verify) {
        PolicySnapshot snap = PolicySnapshot::fromPcu(machine.pcu());
        Verifier verifier(machine.isa(), machine.mem(), snap,
                          image.code_regions);
        VerifyReport report = verifier.run();
        if (!report.clean()) {
            fatal("kernel image failed static policy verification:\n%s",
                  report.text().c_str());
        }
    }
    return image;
}

} // namespace isagrid
