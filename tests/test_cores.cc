/**
 * @file
 * Core timing-model tests: determinism, structural penalties of the
 * in-order model, dataflow behaviour of the O3 model, trap round
 * trips and the privilege-level interlock.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "cpu/machine.hh"
#include "cpu/text_trace.hh"
#include "isa/riscv/assembler.hh"
#include "isa/riscv/opcodes.hh"
#include "isa/x86/assembler.hh"
#include "isa/x86/opcodes.hh"
#include "kernel/layout.hh"

using namespace isagrid;

namespace {

/** Run an RV64 snippet and return the result. */
RunResult
runRiscv(Machine &m, const std::function<void(riscv::RiscvAsm &)> &emit,
         std::uint64_t max = 1'000'000)
{
    riscv::RiscvAsm a(0x1000);
    emit(a);
    a.loadInto(m.mem());
    return m.run(0x1000, max);
}

RunResult
runX86(Machine &m, const std::function<void(x86::X86Asm &)> &emit,
       std::uint64_t max = 1'000'000)
{
    x86::X86Asm a(0x1000);
    emit(a);
    a.loadInto(m.mem());
    return m.run(0x1000, max);
}

} // namespace

TEST(CoreDeterminism, IdenticalRunsProduceIdenticalCycles)
{
    auto emit = [](riscv::RiscvAsm &a) {
        a.li(5, 1000);
        auto loop = a.newLabel();
        a.bind(loop);
        a.addi(6, 6, 1);
        a.addi(5, 5, -1);
        a.bne(5, 0, loop);
        a.halt(6);
    };
    auto m1 = Machine::rocket();
    auto m2 = Machine::rocket();
    RunResult r1 = runRiscv(*m1, emit);
    RunResult r2 = runRiscv(*m2, emit);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.instructions, r2.instructions);
}

TEST(CoreInOrder, StraightLineCodeIsNearCpiOne)
{
    auto m = Machine::rocket();
    RunResult r = runRiscv(*m, [](riscv::RiscvAsm &a) {
        a.li(5, 100);
        auto loop = a.newLabel();
        a.bind(loop);
        for (int i = 0; i < 12; ++i)
            a.addi(6, 6, 1);
        a.addi(5, 5, -1);
        a.bne(5, 0, loop);
        a.halt(6);
    });
    ASSERT_EQ(r.reason, StopReason::Halted);
    // CPI ~1 plus the loop branch and cold-start fills.
    double cpi = double(r.cycles) / double(r.instructions);
    EXPECT_LT(cpi, 2.0);
    EXPECT_GE(cpi, 1.0);
}

TEST(CoreInOrder, TakenBranchesCostMore)
{
    // Tight loop (taken branch every 2nd instruction) vs a long body
    // (branch amortized over 17 instructions).
    auto tight = Machine::rocket();
    RunResult rt = runRiscv(*tight, [](riscv::RiscvAsm &a) {
        a.li(5, 2000);
        auto loop = a.newLabel();
        a.bind(loop);
        a.addi(5, 5, -1);
        a.bne(5, 0, loop); // taken 1999 times
        a.halt(5);
    });
    auto amortized = Machine::rocket();
    RunResult rs = runRiscv(*amortized, [](riscv::RiscvAsm &a) {
        a.li(5, 250);
        auto loop = a.newLabel();
        a.bind(loop);
        for (int i = 0; i < 16; ++i)
            a.addi(6, 6, 1);
        a.addi(5, 5, -1);
        a.bne(5, 0, loop);
        a.halt(5);
    });
    double cpi_tight = double(rt.cycles) / double(rt.instructions);
    double cpi_amortized = double(rs.cycles) / double(rs.instructions);
    EXPECT_GT(cpi_tight, cpi_amortized + 0.5);
}

TEST(CoreInOrder, DcacheMissesStall)
{
    auto m = Machine::rocket();
    RunResult r = runRiscv(*m, [](riscv::RiscvAsm &a) {
        a.li(5, 100);
        a.li(6, 0x100000);
        a.li(28, 4096); // stride (new line and set every time)
        auto loop = a.newLabel();
        a.bind(loop);
        a.ld(7, 6, 0);
        a.add(6, 6, 28);
        a.addi(5, 5, -1);
        a.bne(5, 0, loop);
        a.halt(5);
    });
    // 100 misses at >120 cycles each dominate.
    EXPECT_GT(r.cycles, 100 * 100u);
}

TEST(CoreO3, IndependentOpsRetireSuperscalar)
{
    auto m = Machine::gem5x86();
    RunResult r = runX86(*m, [](x86::X86Asm &a) {
        using namespace x86;
        // 8 independent dependency chains inside a warm loop.
        a.movImm(RBP, 200);
        auto loop = a.newLabel();
        a.bind(loop);
        for (int i = 0; i < 32; ++i)
            a.addi(unsigned(R8 + (i % 8)), 1);
        a.addi(RBP, -1);
        a.jnz(loop);
        a.halt(RAX);
    });
    double ipc = double(r.instructions) / double(r.cycles);
    EXPECT_GT(ipc, 2.0) << "independent ops must overlap";
}

TEST(CoreO3, DependencyChainSerializes)
{
    auto m = Machine::gem5x86();
    RunResult r = runX86(*m, [](x86::X86Asm &a) {
        using namespace x86;
        for (int i = 0; i < 200; ++i)
            a.imul(RAX, RAX); // 3-cycle latency chain
        a.halt(RAX);
    });
    double cpi = double(r.cycles) / double(r.instructions);
    EXPECT_GT(cpi, 2.0) << "a serial imul chain runs at ~3 CPI";
}

TEST(CoreO3, StoreToLoadForwardingIsFast)
{
    auto fwd = Machine::gem5x86();
    RunResult rf = runX86(*fwd, [](x86::X86Asm &a) {
        using namespace x86;
        a.movImm(RSI, 0x100000);
        for (int i = 0; i < 100; ++i) {
            a.store64(RAX, RSI, 0);
            a.load64(RBX, RSI, 0); // forwarded
            a.add(RAX, RBX);
        }
        a.halt(RAX);
    });
    auto chase = Machine::gem5x86();
    RunResult rc = runX86(*chase, [](x86::X86Asm &a) {
        using namespace x86;
        a.movImm(RSI, 0x100000);
        for (int i = 0; i < 100; ++i) {
            a.load64(RBX, RSI, 0); // always misses forwarding window
            a.add(RAX, RBX);
            a.addi(RSI, 4096);
        }
        a.halt(RAX);
    });
    EXPECT_LT(rf.cycles, rc.cycles);
}

TEST(CoreO3, SerializingInstructionsDrainThePipeline)
{
    auto plain = Machine::gem5x86();
    RunResult rp = runX86(*plain, [](x86::X86Asm &a) {
        using namespace x86;
        for (int i = 0; i < 100; ++i)
            a.addi(R8, 1);
        a.halt(RAX);
    });
    auto fenced = Machine::gem5x86();
    RunResult rf = runX86(*fenced, [](x86::X86Asm &a) {
        using namespace x86;
        for (int i = 0; i < 100; ++i) {
            a.addi(R8, 1);
            a.cpuid(); // serializing
        }
        a.halt(RAX);
    });
    EXPECT_GT(rf.cycles, rp.cycles + 100 * 20u);
}

TEST(CorePrivilege, UserModeCannotRunPrivilegedInstructions)
{
    auto m = Machine::rocket();
    // Drop to user mode via sret, then try sfence.vma.
    RunResult r = runRiscv(*m, [](riscv::RiscvAsm &a) {
        using namespace riscv;
        auto user = a.newLabel();
        a.li(5, 0x1000 + 9 * 4); // address of user code (computed below)
        a.csrw(CSR_SEPC, 5);
        a.li(5, SSTATUS_SPP);
        a.csrrc(0, CSR_SSTATUS, 5); // previous privilege = user
        a.sret();
        // kernel never reaches here
        a.nop();
        a.nop();
        a.nop();
        a.bind(user);
        a.sfenceVma(); // must fault: user mode
        a.halt(0);
    });
    EXPECT_EQ(r.reason, StopReason::UnhandledFault);
    EXPECT_EQ(r.fault, FaultType::IllegalInstruction);
}

TEST(CorePrivilege, UserModeCannotTouchSupervisorCsrs)
{
    auto m = Machine::gem5x86();
    RunResult r = runX86(*m, [](x86::X86Asm &a) {
        using namespace x86;
        auto setup = a.newLabel();
        a.jmp(setup);
        // --- user-mode code ---
        Addr user = a.here();
        a.movToCr(3, RAX); // must fault: mov to CR3 from user mode
        a.halt(RAX);
        // --- supervisor setup: drop to user at `user` ---
        a.bind(setup);
        a.movImm(RAX, 0);
        a.movImm(RCX, CSR_TRAP_MODE);
        a.wrmsr();
        a.movImm(RAX, user);
        a.movImm(RCX, CSR_TRAP_RIP);
        a.wrmsr();
        a.iretq();
    });
    EXPECT_EQ(r.reason, StopReason::UnhandledFault);
    EXPECT_EQ(r.fault, FaultType::IllegalInstruction);
    EXPECT_EQ(m->core().state().mode, PrivMode::Supervisor)
        << "trap entry re-raised the privilege level";
}

TEST(CoreMarks, SimmarksRecordCycleAndInstruction)
{
    auto m = Machine::rocket();
    RunResult r = runRiscv(*m, [](riscv::RiscvAsm &a) {
        a.li(10, 7);
        a.simmark(10);
        for (int i = 0; i < 10; ++i)
            a.nop();
        a.li(10, 8);
        a.simmark(10);
        a.halt(0);
    });
    ASSERT_EQ(r.reason, StopReason::Halted);
    const auto &marks = m->core().marks();
    ASSERT_EQ(marks.size(), 2u);
    EXPECT_EQ(marks[0].value, 7u);
    EXPECT_EQ(marks[1].value, 8u);
    EXPECT_EQ(marks[1].instructions - marks[0].instructions, 12u);
    EXPECT_GT(marks[1].cycle, marks[0].cycle);
}

TEST(CoreFaults, WbinvdFlushesTheCaches)
{
    auto m = Machine::gem5x86();
    RunResult r = runX86(*m, [](x86::X86Asm &a) {
        using namespace x86;
        a.movImm(RSI, 0x200000);
        a.load64(RAX, RSI, 0); // warm a line
        a.wbinvd();
        a.halt(RAX);
    });
    ASSERT_EQ(r.reason, StopReason::Halted);
    EXPECT_FALSE(m->dcacheHierarchy().l1Contains(0x200000));
}

TEST(CoreFaults, FetchPastMemoryEndStops)
{
    auto m = Machine::rocket();
    m->core().reset(m->mem().size() + 0x1000);
    RunResult r = m->core().run(10);
    EXPECT_EQ(r.reason, StopReason::UnhandledFault);
    EXPECT_EQ(r.fault, FaultType::MemoryFault);
}

TEST(CoreFaults, LoadPastMemoryEndFaults)
{
    auto m = Machine::rocket();
    RunResult r = runRiscv(*m, [&](riscv::RiscvAsm &a) {
        a.li(5, m->mem().size() - 4);
        a.ld(6, 5, 0);
        a.halt(6);
    });
    EXPECT_EQ(r.reason, StopReason::UnhandledFault);
    EXPECT_EQ(r.fault, FaultType::MemoryFault);
}

TEST(CoreStats, CountersMatchProgramShape)
{
    auto m = Machine::rocket();
    runRiscv(*m, [](riscv::RiscvAsm &a) {
        a.li(5, 0x100000);
        a.ld(6, 5, 0);
        a.sd(6, 5, 8);
        a.ld(7, 5, 16);
        a.halt(7);
    });
    auto &core = m->core();
    EXPECT_EQ(core.stats().lookup("core.loads"), 2.0);
    EXPECT_EQ(core.stats().lookup("core.stores"), 1.0);
}

TEST(CoreReset, ClearsStateBetweenRuns)
{
    auto m = Machine::rocket();
    runRiscv(*m, [](riscv::RiscvAsm &a) {
        a.li(10, 1);
        a.halt(10);
    });
    Cycle c1 = m->core().cycles();
    m->core().reset(0x1000);
    EXPECT_EQ(m->core().cycles(), 0u);
    EXPECT_EQ(m->core().state().pc, 0x1000u);
    EXPECT_GT(c1, 0u);
}

TEST(CoreTrace, TraceStreamRecordsExecution)
{
    auto m = Machine::rocket();
    std::ostringstream trace;
    TextTrace tracer(trace);
    m->core().setStepHook(&tracer);
    runRiscv(*m, [](riscv::RiscvAsm &a) {
        a.li(5, 7);
        a.addi(5, 5, 1);
        a.csrw(riscv::CSR_SSCRATCH, 5);
        a.halt(5);
    });
    m->core().setStepHook(nullptr);
    std::string out = trace.str();
    EXPECT_NE(out.find("addi"), std::string::npos);
    EXPECT_NE(out.find("csrrw"), std::string::npos);
    EXPECT_NE(out.find("csr:0x140"), std::string::npos);
    EXPECT_NE(out.find("halt"), std::string::npos);
    EXPECT_NE(out.find(" d0 "), std::string::npos); // domain column
}

TEST(CoreTrace, FaultsAppearInTrace)
{
    auto m = Machine::gem5x86();
    std::ostringstream trace;
    TextTrace tracer(trace);
    m->core().setStepHook(&tracer);
    runX86(*m, [](x86::X86Asm &a) {
        a.rawBytes({0xff, 0xff, 0xff}); // undecodable
    });
    m->core().setStepHook(nullptr);
    EXPECT_NE(trace.str().find(">>> illegal-instruction"),
              std::string::npos);
}

namespace {

/** One traced run of a fresh machine, appended to @p os. */
void
traceSection(std::ostream &os, bool x86,
             const std::function<Addr(Machine &)> &load)
{
    auto m = x86 ? Machine::gem5x86() : Machine::rocket();
    Addr entry = load(*m);
    TextTrace tracer(os);
    m->core().setStepHook(&tracer);
    m->run(entry, 1000);
    m->core().setStepHook(nullptr);
}

/**
 * Every line shape of the text trace on one ISA: a gate (its domain
 * column is the domain before the switch), the first check in a
 * fresh domain (`+` with a `; pcu-stall N` suffix), an ISA-Grid
 * denial (`!`), a classical user-mode rejection (`-`), a system call
 * (`>>> syscall` at the resume pc) and decode and fetch faults (a
 * `>>>` line with no instruction line).
 */
std::string
goldenTrace(bool x86)
{
    std::ostringstream os;
    // Gate into a baseline domain, which lacks the sensitive types.
    traceSection(os, x86, [x86](Machine &m) -> Addr {
        DomainId d1 = m.domains().createBaselineDomain();
        Addr gate_pc, dest;
        if (x86) {
            x86::X86Asm a(0x1000);
            auto target = a.newLabel();
            a.movImm(x86::RBX, 0);
            gate_pc = a.here();
            a.hccall(x86::RBX);
            a.bind(target);
            a.movImm(x86::RAX, 5);
            a.addi(x86::RAX, 1);
            a.wbinvd(); // denied in d1
            a.halt(x86::RAX);
            a.finalize();
            dest = a.labelAddr(target);
            a.loadInto(m.mem());
        } else {
            riscv::RiscvAsm a(0x1000);
            auto target = a.newLabel();
            a.li(10, 0);
            gate_pc = a.here();
            a.hccall(10);
            a.bind(target);
            a.li(5, 5);
            a.addi(5, 5, 1);
            a.sfenceVma(); // denied in d1
            a.halt(5);
            a.finalize();
            dest = a.labelAddr(target);
            a.loadInto(m.mem());
        }
        m.domains().registerGate(gate_pc, dest, d1);
        m.domains().publish();
        return 0x1000;
    });
    // A privileged instruction from user mode.
    traceSection(os, x86, [x86](Machine &m) -> Addr {
        if (x86) {
            x86::X86Asm a(0x1000);
            auto setup = a.newLabel();
            a.jmp(setup);
            Addr user = a.here();
            a.movToCr(3, x86::RAX);
            a.halt(x86::RAX);
            a.bind(setup);
            a.movImm(x86::RAX, 0);
            a.movImm(x86::RCX, x86::CSR_TRAP_MODE);
            a.wrmsr();
            a.movImm(x86::RAX, user);
            a.movImm(x86::RCX, x86::CSR_TRAP_RIP);
            a.wrmsr();
            a.iretq();
            a.loadInto(m.mem());
        } else {
            riscv::RiscvAsm a(0x1000);
            a.li(5, 0x1000 + 6 * 4); // the sfence.vma below
            a.csrw(riscv::CSR_SEPC, 5);
            a.li(5, riscv::SSTATUS_SPP);
            a.csrrc(0, riscv::CSR_SSTATUS, 5);
            a.sret();
            a.sfenceVma(); // user mode: classical rejection
            a.halt(0);
            a.loadInto(m.mem());
        }
        return 0x1000;
    });
    // A system call with no handler installed.
    traceSection(os, x86, [x86](Machine &m) -> Addr {
        if (x86) {
            x86::X86Asm a(0x1000);
            a.movImm(x86::RAX, 1);
            a.syscall();
            a.halt(x86::RAX);
            a.loadInto(m.mem());
        } else {
            riscv::RiscvAsm a(0x1000);
            a.li(17, 1);
            a.ecall();
            a.halt(0);
            a.loadInto(m.mem());
        }
        return 0x1000;
    });
    // A decode fault (on x86 after an indirect jump to zero bytes),
    // then a fetch past the end of memory.
    traceSection(os, x86, [x86](Machine &m) -> Addr {
        if (x86) {
            x86::X86Asm a(0x1000);
            a.rawBytes({0xff, 0xff, 0xff});
            a.loadInto(m.mem());
        } else {
            riscv::RiscvAsm a(0x1000);
            a.raw32(0);
            a.loadInto(m.mem());
        }
        return 0x1000;
    });
    traceSection(os, x86, [](Machine &m) -> Addr {
        return m.mem().size() + 0x1000;
    });
    return os.str();
}

class CoreTraceGolden : public ::testing::TestWithParam<bool>
{
};

} // namespace

TEST_P(CoreTraceGolden, MatchesCommittedTrace)
{
    bool x86 = GetParam();
    std::string path = std::string(TEST_DATA_DIR) + "/core_trace_" +
                       (x86 ? "x86" : "riscv") + ".golden.txt";
    std::string trace = goldenTrace(x86);
    if (std::getenv("ISAGRID_REGEN_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << trace;
        GTEST_SKIP() << "golden regenerated: " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " (run once with ISAGRID_REGEN_GOLDEN=1)";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(trace, golden.str())
        << "text trace drifted from " << path
        << "; regenerate with ISAGRID_REGEN_GOLDEN=1 only for an "
        << "intended format change";
}

INSTANTIATE_TEST_SUITE_P(BothIsas, CoreTraceGolden, ::testing::Bool(),
                         [](const auto &info) {
                             return info.param ? "x86" : "riscv";
                         });

TEST(CoreTlb, AddressSpaceSwitchFlushesAndRefills)
{
    auto m = Machine::rocket();
    std::uint64_t walks_before;
    RunResult r = runRiscv(*m, [](riscv::RiscvAsm &a) {
        using namespace riscv;
        a.li(5, 0x100000);
        a.ld(6, 5, 0);  // walk page A
        a.ld(6, 5, 8);  // hit
        a.li(7, 0x41000);
        a.csrw(CSR_SATP, 7); // address-space switch: flush TLBs
        a.ld(6, 5, 16); // must re-walk page A
        a.halt(6);
    });
    ASSERT_EQ(r.reason, StopReason::Halted);
    walks_before = m->dataTlb().misses();
    EXPECT_EQ(walks_before, 2u)
        << "one cold walk plus one post-switch re-walk";
}

TEST(CoreTlb, SfenceVmaFlushes)
{
    auto m = Machine::rocket();
    runRiscv(*m, [](riscv::RiscvAsm &a) {
        a.li(5, 0x100000);
        a.ld(6, 5, 0);
        a.sfenceVma();
        a.ld(6, 5, 8);
        a.halt(6);
    });
    EXPECT_EQ(m->dataTlb().misses(), 2u);
}

TEST(CoreTlb, InvlpgIsPageSelective)
{
    auto m = Machine::gem5x86();
    runX86(*m, [](x86::X86Asm &a) {
        using namespace x86;
        a.movImm(RSI, 0x100000);
        a.movImm(RDI, 0x200000);
        a.load64(RAX, RSI, 0); // walk page A
        a.load64(RBX, RDI, 0); // walk page B
        a.movImm(RDX, 0x100000);
        a.invlpg(RDX);         // evict page A only
        a.load64(RAX, RSI, 0); // re-walk A
        a.load64(RBX, RDI, 0); // still hits
        a.halt(RAX);
    });
    EXPECT_EQ(m->dataTlb().misses(), 3u);
}

TEST(CoreTlb, WalkLatencyShowsInCycles)
{
    // Two identical loads to different pages vs the same page.
    auto two_pages = Machine::rocket();
    RunResult rp = runRiscv(*two_pages, [](riscv::RiscvAsm &a) {
        a.li(5, 0x100000);
        a.li(6, 0x200000);
        a.ld(7, 5, 0);
        a.ld(7, 6, 0);
        a.halt(7);
    });
    auto one_page = Machine::rocket();
    RunResult rs = runRiscv(*one_page, [](riscv::RiscvAsm &a) {
        a.li(5, 0x100000);
        a.li(6, 0x100000);
        a.ld(7, 5, 0);
        a.ld(7, 6, 64); // same page, different line
        a.halt(7);
    });
    EXPECT_GT(rp.cycles, rs.cycles)
        << "the second page walk must be visible";
}

TEST(CoreO3, PredictorLearnsLoopBranches)
{
    // A long-running loop: after warmup, the back edge predicts
    // correctly and CPI approaches 1/width, far better than if every
    // taken branch flushed.
    auto m = Machine::gem5x86();
    RunResult r = runX86(*m, [](x86::X86Asm &a) {
        using namespace x86;
        a.movImm(RBP, 3000);
        auto loop = a.newLabel();
        a.bind(loop);
        for (int i = 0; i < 7; ++i)
            a.addi(unsigned(R8 + i), 1);
        a.addi(RBP, -1);
        a.jnz(loop);
        a.halt(RAX);
    });
    double cpi = double(r.cycles) / double(r.instructions);
    EXPECT_LT(cpi, 1.0) << "trained loop must run superscalar";
}

TEST(CoreO3, AlternatingBranchMispredicts)
{
    // A branch that alternates taken/not-taken defeats the 2-bit
    // counters and costs redirects.
    auto alt = Machine::gem5x86();
    RunResult ra = runX86(*alt, [](x86::X86Asm &a) {
        using namespace x86;
        a.movImm(RBP, 2000);
        a.movImm(R8, 0);
        auto loop = a.newLabel();
        auto skip = a.newLabel();
        a.bind(loop);
        a.movImm(R9, 1);
        a.and_(R9, R8); // R9 = parity tracker & 1... keep flags use:
        a.addi(R8, 1);
        a.movImm(R10, 1);
        a.and_(R10, R8);   // ZF = !(R8 & 1): alternates each iteration
        a.jz8(skip);
        a.addi(R11, 1);
        a.bind(skip);
        a.addi(RBP, -1);
        a.jnz(loop);
        a.halt(RAX);
    });
    auto steady = Machine::gem5x86();
    RunResult rs = runX86(*steady, [](x86::X86Asm &a) {
        using namespace x86;
        a.movImm(RBP, 2000);
        auto loop = a.newLabel();
        auto skip = a.newLabel();
        a.bind(loop);
        a.movImm(R9, 0);
        a.addi(R8, 1);
        a.movImm(R10, 0);
        a.or_(R10, R10);   // ZF always set: never-taken... jz taken!
        a.jnz8(skip);      // never taken: perfectly predictable
        a.addi(R11, 1);
        a.bind(skip);
        a.addi(RBP, -1);
        a.jnz(loop);
        a.halt(RAX);
    });
    EXPECT_GT(double(ra.cycles) / double(ra.instructions),
              double(rs.cycles) / double(rs.instructions));
}
