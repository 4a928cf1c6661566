/**
 * @file
 * RISC-V ISA model tests: assembler/decoder round trips for every
 * supported instruction, immediate encodings, executor semantics
 * checked property-style against host arithmetic, and trap mechanics.
 */

#include <gtest/gtest.h>

#include "isa/riscv/assembler.hh"
#include "isa/riscv/riscv_isa.hh"
#include "mem/phys_mem.hh"
#include "sim/random.hh"

using namespace isagrid;
using namespace isagrid::riscv;

namespace {

RiscvIsa isa;

DecodedInst
decodeOne(const std::vector<std::uint8_t> &bytes, Addr pc = 0x1000)
{
    return isa.decode(bytes.data(), bytes.size(), pc);
}

/** Assemble a single instruction and decode it back. */
DecodedInst
roundTrip(const std::function<void(RiscvAsm &)> &emit)
{
    RiscvAsm a(0x1000);
    emit(a);
    std::vector<std::uint8_t> bytes = a.finalize();
    return decodeOne(bytes);
}

/** Fresh architectural state with a given PC. */
ArchState
freshState(Addr pc = 0x1000)
{
    ArchState s;
    isa.initState(s);
    s.pc = pc;
    return s;
}

} // namespace

// ---------------------------------------------------------------------
// Decoder round trips
// ---------------------------------------------------------------------

struct RtCase
{
    const char *mnemonic;
    InstClass cls;
    std::function<void(RiscvAsm &)> emit;
};

// gtest would print the raw bytes, pointers included, into the ctest
// name, which then changes with every load address. Print the name.
void PrintTo(const RtCase &c, std::ostream *os)
{
    *os << c.mnemonic;
}

class RiscvRoundTrip : public ::testing::TestWithParam<RtCase>
{
};

TEST_P(RiscvRoundTrip, DecodesToEmittedMnemonic)
{
    const RtCase &c = GetParam();
    DecodedInst inst = roundTrip(c.emit);
    ASSERT_TRUE(inst.valid) << c.mnemonic;
    EXPECT_STREQ(inst.mnemonic, c.mnemonic);
    EXPECT_EQ(inst.cls, c.cls) << c.mnemonic;
    EXPECT_EQ(inst.length, 4u);
}

static const RtCase rtCases[] = {
    {"lui", InstClass::IntAlu, [](RiscvAsm &a) { a.lui(3, 0x12345); }},
    {"auipc", InstClass::IntAlu, [](RiscvAsm &a) { a.auipc(4, 1); }},
    {"jalr", InstClass::Jump, [](RiscvAsm &a) { a.jalr(1, 2, 16); }},
    {"lb", InstClass::Load, [](RiscvAsm &a) { a.lb(5, 6, -4); }},
    {"lh", InstClass::Load, [](RiscvAsm &a) { a.lh(5, 6, 2); }},
    {"lw", InstClass::Load, [](RiscvAsm &a) { a.lw(5, 6, 8); }},
    {"ld", InstClass::Load, [](RiscvAsm &a) { a.ld(5, 6, 8); }},
    {"lbu", InstClass::Load, [](RiscvAsm &a) { a.lbu(5, 6, 1); }},
    {"lhu", InstClass::Load, [](RiscvAsm &a) { a.lhu(5, 6, 2); }},
    {"lwu", InstClass::Load, [](RiscvAsm &a) { a.lwu(5, 6, 4); }},
    {"sb", InstClass::Store, [](RiscvAsm &a) { a.sb(7, 8, 3); }},
    {"sh", InstClass::Store, [](RiscvAsm &a) { a.sh(7, 8, -2); }},
    {"sw", InstClass::Store, [](RiscvAsm &a) { a.sw(7, 8, 4); }},
    {"sd", InstClass::Store, [](RiscvAsm &a) { a.sd(7, 8, 8); }},
    {"addi", InstClass::IntAlu, [](RiscvAsm &a) { a.addi(1, 2, -3); }},
    {"slti", InstClass::IntAlu, [](RiscvAsm &a) { a.slti(1, 2, 9); }},
    {"sltiu", InstClass::IntAlu, [](RiscvAsm &a) { a.sltiu(1, 2, 9); }},
    {"xori", InstClass::IntAlu, [](RiscvAsm &a) { a.xori(1, 2, 5); }},
    {"ori", InstClass::IntAlu, [](RiscvAsm &a) { a.ori(1, 2, 5); }},
    {"andi", InstClass::IntAlu, [](RiscvAsm &a) { a.andi(1, 2, 5); }},
    {"slli", InstClass::IntAlu, [](RiscvAsm &a) { a.slli(1, 2, 33); }},
    {"srli", InstClass::IntAlu, [](RiscvAsm &a) { a.srli(1, 2, 33); }},
    {"srai", InstClass::IntAlu, [](RiscvAsm &a) { a.srai(1, 2, 33); }},
    {"add", InstClass::IntAlu, [](RiscvAsm &a) { a.add(1, 2, 3); }},
    {"sub", InstClass::IntAlu, [](RiscvAsm &a) { a.sub(1, 2, 3); }},
    {"sll", InstClass::IntAlu, [](RiscvAsm &a) { a.sll(1, 2, 3); }},
    {"slt", InstClass::IntAlu, [](RiscvAsm &a) { a.slt(1, 2, 3); }},
    {"sltu", InstClass::IntAlu, [](RiscvAsm &a) { a.sltu(1, 2, 3); }},
    {"xor", InstClass::IntAlu, [](RiscvAsm &a) { a.xor_(1, 2, 3); }},
    {"srl", InstClass::IntAlu, [](RiscvAsm &a) { a.srl(1, 2, 3); }},
    {"sra", InstClass::IntAlu, [](RiscvAsm &a) { a.sra(1, 2, 3); }},
    {"or", InstClass::IntAlu, [](RiscvAsm &a) { a.or_(1, 2, 3); }},
    {"and", InstClass::IntAlu, [](RiscvAsm &a) { a.and_(1, 2, 3); }},
    {"mul", InstClass::IntAlu, [](RiscvAsm &a) { a.mul(1, 2, 3); }},
    {"div", InstClass::IntAlu, [](RiscvAsm &a) { a.div(1, 2, 3); }},
    {"rem", InstClass::IntAlu, [](RiscvAsm &a) { a.rem(1, 2, 3); }},
    {"fence", InstClass::Nop, [](RiscvAsm &a) { a.fence(); }},
    {"ecall", InstClass::Syscall, [](RiscvAsm &a) { a.ecall(); }},
    {"ebreak", InstClass::Syscall, [](RiscvAsm &a) { a.ebreak(); }},
    {"sret", InstClass::TrapRet, [](RiscvAsm &a) { a.sret(); }},
    {"wfi", InstClass::SysOther, [](RiscvAsm &a) { a.wfi(); }},
    {"sfence.vma", InstClass::SysOther,
     [](RiscvAsm &a) { a.sfenceVma(); }},
    {"csrrw", InstClass::CsrWrite,
     [](RiscvAsm &a) { a.csrrw(1, CSR_SEPC, 2); }},
    {"csrrs", InstClass::CsrWrite,
     [](RiscvAsm &a) { a.csrrs(1, CSR_SEPC, 2); }},
    {"csrrc", InstClass::CsrWrite,
     [](RiscvAsm &a) { a.csrrc(1, CSR_SEPC, 2); }},
    {"csrrwi", InstClass::CsrWrite,
     [](RiscvAsm &a) { a.csrrwi(1, CSR_SEPC, 5); }},
    {"hccall", InstClass::GateCall, [](RiscvAsm &a) { a.hccall(30); }},
    {"hccalls", InstClass::GateCallS,
     [](RiscvAsm &a) { a.hccalls(30); }},
    {"hcrets", InstClass::GateRet, [](RiscvAsm &a) { a.hcrets(); }},
    {"pfch", InstClass::Prefetch, [](RiscvAsm &a) { a.pfch(4); }},
    {"pflh", InstClass::CacheFlush, [](RiscvAsm &a) { a.pflh(4); }},
    {"halt", InstClass::Halt, [](RiscvAsm &a) { a.halt(10); }},
    {"simmark", InstClass::SimMark, [](RiscvAsm &a) { a.simmark(10); }},
};

INSTANTIATE_TEST_SUITE_P(AllInstructions, RiscvRoundTrip,
                         ::testing::ValuesIn(rtCases),
                         [](const auto &info) {
                             std::string n = info.param.mnemonic;
                             for (auto &c : n)
                                 if (!std::isalnum((unsigned char)c))
                                     c = '_';
                             return n;
                         });

TEST(RiscvDecode, BranchesRoundTripWithTargets)
{
    RiscvAsm a(0x1000);
    auto target = a.newLabel();
    a.beq(1, 2, target);
    a.bne(3, 4, target);
    a.blt(5, 6, target);
    a.bge(7, 8, target);
    a.bltu(9, 10, target);
    a.bgeu(11, 12, target);
    a.bind(target);
    a.nop();
    auto bytes = a.finalize();

    const char *names[] = {"beq", "bne", "blt", "bge", "bltu", "bgeu"};
    for (int i = 0; i < 6; ++i) {
        DecodedInst inst = isa.decode(bytes.data() + 4 * i, 4,
                                      0x1000 + 4 * i);
        ASSERT_TRUE(inst.valid);
        EXPECT_STREQ(inst.mnemonic, names[i]);
        // Offset reaches the bound label.
        EXPECT_EQ(0x1000 + 4 * i + inst.imm, 0x1018);
    }
}

TEST(RiscvDecode, JalRoundTripsNegativeOffset)
{
    RiscvAsm a(0x2000);
    auto loop = a.newLabel();
    a.bind(loop);
    a.nop();
    a.jal(0, loop);
    auto bytes = a.finalize();
    DecodedInst inst = isa.decode(bytes.data() + 4, 4, 0x2004);
    ASSERT_TRUE(inst.valid);
    EXPECT_STREQ(inst.mnemonic, "jal");
    EXPECT_EQ(inst.imm, -4);
}

TEST(RiscvDecode, ImmediateSignExtension)
{
    auto inst = roundTrip([](RiscvAsm &a) { a.addi(1, 0, -2048); });
    EXPECT_EQ(inst.imm, -2048);
    inst = roundTrip([](RiscvAsm &a) { a.addi(1, 0, 2047); });
    EXPECT_EQ(inst.imm, 2047);
    inst = roundTrip([](RiscvAsm &a) { a.sd(1, 2, -8); });
    EXPECT_EQ(inst.imm, -8);
}

TEST(RiscvDecode, CsrAddressCarried)
{
    auto inst =
        roundTrip([](RiscvAsm &a) { a.csrrw(1, CSR_SATP, 2); });
    EXPECT_EQ(inst.csr_addr, std::uint32_t(CSR_SATP));
    EXPECT_FALSE(inst.csr_dynamic);
}

TEST(RiscvCsrs, BitmapIndexMatchesALinearScan)
{
    const auto &csrs = RiscvIsa::controlledCsrs();
    for (std::uint32_t addr = 0; addr < 4096 + 16; ++addr) {
        CsrIndex want = invalidCsrIndex;
        for (CsrIndex i = 0; i < csrs.size(); ++i)
            if (csrs[i] == addr)
                want = i;
        EXPECT_EQ(isa.csrBitmapIndex(addr), want) << std::hex << addr;
    }
    EXPECT_EQ(isa.csrBitmapIndex(~0u), invalidCsrIndex);
}

TEST(RiscvDecode, CsrrsWithX0IsPureRead)
{
    auto inst = roundTrip([](RiscvAsm &a) { a.csrr(3, CSR_SEPC); });
    EXPECT_EQ(inst.cls, InstClass::CsrRead);
    auto write = roundTrip([](RiscvAsm &a) { a.csrrs(3, CSR_SEPC, 4); });
    EXPECT_EQ(write.cls, InstClass::CsrWrite);
}

TEST(RiscvDecode, GarbageIsInvalid)
{
    std::vector<std::uint8_t> junk = {0xff, 0xff, 0xff, 0xff};
    EXPECT_FALSE(decodeOne(junk).valid);
    std::vector<std::uint8_t> zero = {0x00, 0x00, 0x00, 0x00};
    EXPECT_FALSE(decodeOne(zero).valid);
}

TEST(RiscvDecode, TruncatedFetchIsInvalid)
{
    std::vector<std::uint8_t> bytes = {0x13, 0x00};
    EXPECT_FALSE(isa.decode(bytes.data(), 2, 0).valid);
}

// ---------------------------------------------------------------------
// Executor semantics (property style against host arithmetic)
// ---------------------------------------------------------------------

TEST(RiscvExec, AluOpsMatchHostArithmetic)
{
    SplitMix64 rng(1234);
    for (int trial = 0; trial < 200; ++trial) {
        std::uint64_t x = rng.next(), y = rng.next();
        ArchState s = freshState();
        s.setReg(2, x);
        s.setReg(3, y);

        struct Op
        {
            std::function<void(RiscvAsm &)> emit;
            std::uint64_t expect;
        };
        std::int64_t sx = std::int64_t(x), sy = std::int64_t(y);
        Op ops[] = {
            {[](RiscvAsm &a) { a.add(1, 2, 3); }, x + y},
            {[](RiscvAsm &a) { a.sub(1, 2, 3); }, x - y},
            {[](RiscvAsm &a) { a.xor_(1, 2, 3); }, x ^ y},
            {[](RiscvAsm &a) { a.or_(1, 2, 3); }, x | y},
            {[](RiscvAsm &a) { a.and_(1, 2, 3); }, x & y},
            {[](RiscvAsm &a) { a.sll(1, 2, 3); }, x << (y & 63)},
            {[](RiscvAsm &a) { a.srl(1, 2, 3); }, x >> (y & 63)},
            {[](RiscvAsm &a) { a.sra(1, 2, 3); },
             std::uint64_t(sx >> (y & 63))},
            {[](RiscvAsm &a) { a.slt(1, 2, 3); },
             std::uint64_t(sx < sy)},
            {[](RiscvAsm &a) { a.sltu(1, 2, 3); },
             std::uint64_t(x < y)},
            {[](RiscvAsm &a) { a.mul(1, 2, 3); }, x * y},
        };
        for (auto &op : ops) {
            ArchState state = s;
            DecodedInst inst = roundTrip(op.emit);
            isa.execute(inst, state);
            EXPECT_EQ(state.reg(1), op.expect);
        }
    }
}

TEST(RiscvExec, DivisionEdgeCases)
{
    ArchState s = freshState();
    s.setReg(2, 100);
    s.setReg(3, 0);
    DecodedInst div = roundTrip([](RiscvAsm &a) { a.div(1, 2, 3); });
    isa.execute(div, s);
    EXPECT_EQ(s.reg(1), ~std::uint64_t{0}); // div by zero -> all ones
    DecodedInst rem = roundTrip([](RiscvAsm &a) { a.rem(1, 2, 3); });
    isa.execute(rem, s);
    EXPECT_EQ(s.reg(1), 100u); // rem by zero -> dividend
}

TEST(RiscvExec, X0IsHardwiredToZero)
{
    ArchState s = freshState();
    s.setReg(2, 55);
    DecodedInst inst = roundTrip([](RiscvAsm &a) { a.addi(0, 2, 1); });
    isa.execute(inst, s);
    EXPECT_EQ(s.reg(0), 0u);
}

TEST(RiscvExec, LoadProducesMemRequest)
{
    ArchState s = freshState();
    s.setReg(6, 0x8000);
    DecodedInst inst = roundTrip([](RiscvAsm &a) { a.lw(5, 6, -4); });
    ExecResult res = isa.execute(inst, s);
    EXPECT_TRUE(res.mem_valid);
    EXPECT_FALSE(res.mem_write);
    EXPECT_EQ(res.mem_addr, 0x7ffcu);
    EXPECT_EQ(res.mem_size, 4u);
    EXPECT_TRUE(res.mem_sign_extend);
    EXPECT_EQ(res.mem_reg, 5u);
}

TEST(RiscvExec, StoreCarriesValue)
{
    ArchState s = freshState();
    s.setReg(8, 0x9000);
    s.setReg(7, 0xabcd);
    DecodedInst inst = roundTrip([](RiscvAsm &a) { a.sh(7, 8, 6); });
    ExecResult res = isa.execute(inst, s);
    EXPECT_TRUE(res.mem_write);
    EXPECT_EQ(res.mem_addr, 0x9006u);
    EXPECT_EQ(res.mem_size, 2u);
    EXPECT_EQ(res.store_value, 0xabcdu);
}

TEST(RiscvExec, BranchTakenAndNotTaken)
{
    ArchState s = freshState(0x1000);
    s.setReg(1, 5);
    s.setReg(2, 5);
    RiscvAsm a(0x1000);
    auto t = a.newLabel();
    a.beq(1, 2, t);
    a.nop();
    a.bind(t);
    auto bytes = a.finalize();
    DecodedInst inst = isa.decode(bytes.data(), 4, 0x1000);
    ExecResult res = isa.execute(inst, s);
    EXPECT_TRUE(res.taken_branch);
    EXPECT_EQ(res.next_pc, 0x1008u);

    s.setReg(2, 6);
    res = isa.execute(inst, s);
    EXPECT_FALSE(res.taken_branch);
    EXPECT_EQ(res.next_pc, 0x1004u);
}

TEST(RiscvExec, JalLinksReturnAddress)
{
    ArchState s = freshState(0x1000);
    RiscvAsm a(0x1000);
    auto t = a.newLabel();
    a.jal(1, t);
    a.nop();
    a.bind(t);
    auto bytes = a.finalize();
    DecodedInst inst = isa.decode(bytes.data(), 4, 0x1000);
    ExecResult res = isa.execute(inst, s);
    EXPECT_EQ(s.reg(1), 0x1004u);
    EXPECT_EQ(res.next_pc, 0x1008u);
}

TEST(RiscvExec, CsrNewValueImplementsSetAndClear)
{
    DecodedInst rw = roundTrip([](RiscvAsm &a) { a.csrrw(1, 0x100, 2); });
    DecodedInst rs = roundTrip([](RiscvAsm &a) { a.csrrs(1, 0x100, 2); });
    DecodedInst rc = roundTrip([](RiscvAsm &a) { a.csrrc(1, 0x100, 2); });
    EXPECT_EQ(isa.csrNewValue(rw, 0xf0, 0x0f), 0x0fu);
    EXPECT_EQ(isa.csrNewValue(rs, 0xf0, 0x0f), 0xffu);
    EXPECT_EQ(isa.csrNewValue(rc, 0xff, 0x0f), 0xf0u);
}

TEST(RiscvExec, EcallRaisesSyscallTrap)
{
    ArchState s = freshState();
    DecodedInst inst = roundTrip([](RiscvAsm &a) { a.ecall(); });
    ExecResult res = isa.execute(inst, s);
    EXPECT_EQ(res.fault, FaultType::SyscallTrap);
    EXPECT_TRUE(res.serializing);
}

TEST(RiscvTrap, EntryAndReturnRoundTrip)
{
    ArchState s = freshState(0x4000);
    s.mode = PrivMode::User;
    s.csrs.write(CSR_STVEC, 0x8000);
    s.csrs.write(CSR_SSTATUS, SSTATUS_SIE);

    Addr handler = isa.takeTrap(s, FaultType::SyscallTrap, 0x4004, 0);
    EXPECT_EQ(handler, 0x8000u);
    EXPECT_EQ(s.mode, PrivMode::Supervisor);
    EXPECT_EQ(s.csrs.read(CSR_SEPC), 0x4004u);
    EXPECT_EQ(s.csrs.read(CSR_SCAUSE),
              std::uint64_t(CAUSE_ECALL_FROM_U));
    // SPP recorded user, SPIE saved the enabled state, SIE cleared.
    RegVal sstatus = s.csrs.read(CSR_SSTATUS);
    EXPECT_FALSE(sstatus & SSTATUS_SPP);
    EXPECT_TRUE(sstatus & SSTATUS_SPIE);
    EXPECT_FALSE(sstatus & SSTATUS_SIE);

    Addr resume = isa.trapReturn(s);
    EXPECT_EQ(resume, 0x4004u);
    EXPECT_EQ(s.mode, PrivMode::User);
    EXPECT_TRUE(s.csrs.read(CSR_SSTATUS) & SSTATUS_SIE);
}

TEST(RiscvTrap, GridFaultsHaveDistinctCauses)
{
    std::set<std::uint64_t> causes;
    for (FaultType f :
         {FaultType::InstPrivilege, FaultType::CsrPrivilege,
          FaultType::CsrMaskViolation, FaultType::GateFault,
          FaultType::TrustedMemoryViolation,
          FaultType::TrustedStackFault}) {
        ArchState s = freshState();
        s.csrs.write(CSR_STVEC, 0x8000);
        isa.takeTrap(s, f, 0x1000, 0);
        causes.insert(s.csrs.read(CSR_SCAUSE));
    }
    EXPECT_EQ(causes.size(), 6u);
}

// ---------------------------------------------------------------------
// Assembler details
// ---------------------------------------------------------------------

TEST(RiscvAsmTest, LiMaterializesArbitraryConstants)
{
    SplitMix64 rng(77);
    std::vector<std::uint64_t> values = {0, 1, 2047, 2048, ~0ull,
                                         0x80000000ull, 0x123456789abcdefull};
    for (int i = 0; i < 40; ++i)
        values.push_back(rng.next());

    for (std::uint64_t v : values) {
        RiscvAsm a(0x1000);
        a.li(9, v);
        auto bytes = a.finalize();
        // Execute the emitted sequence functionally.
        ArchState s = freshState(0x1000);
        Addr pc = 0x1000;
        while (pc < 0x1000 + bytes.size()) {
            DecodedInst inst = isa.decode(
                bytes.data() + (pc - 0x1000), 4, pc);
            ASSERT_TRUE(inst.valid);
            s.pc = pc;
            ExecResult res = isa.execute(inst, s);
            pc = res.next_pc;
        }
        EXPECT_EQ(s.reg(9), v) << std::hex << v;
    }
}

TEST(RiscvAsmTest, LabelBoundTwiceDies)
{
    RiscvAsm a(0);
    auto l = a.newLabel();
    a.bind(l);
    EXPECT_DEATH(a.bind(l), "");
}

TEST(RiscvAsmTest, UnboundLabelDiesAtFinalize)
{
    RiscvAsm a(0);
    auto l = a.newLabel();
    a.jal(0, l);
    EXPECT_DEATH(a.finalize(), "");
}

TEST(RiscvAsmTest, BranchOutOfRangeDies)
{
    RiscvAsm a(0);
    auto l = a.newLabel();
    a.beq(1, 2, l);
    for (int i = 0; i < 2000; ++i)
        a.nop();
    a.bind(l);
    EXPECT_DEATH(a.finalize(), "");
}

TEST(RiscvAsmTest, EmitAfterFinalizeDies)
{
    RiscvAsm a(0);
    a.nop();
    a.finalize();
    EXPECT_DEATH(a.nop(), "");
}
