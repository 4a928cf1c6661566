/**
 * @file
 * x86-like ISA model tests: variable-length decode, prefixes, all
 * instruction round trips, executor semantics, flags, stack ops, and
 * the unintended-instruction property the paper's security argument
 * rests on.
 */

#include <gtest/gtest.h>

#include "isa/x86/assembler.hh"
#include "isa/x86/x86_isa.hh"
#include "sim/random.hh"

using namespace isagrid;
using namespace isagrid::x86;

namespace {

X86Isa isa;

DecodedInst
decodeBytes(const std::vector<std::uint8_t> &bytes, Addr pc = 0x1000)
{
    return isa.decode(bytes.data(), bytes.size(), pc);
}

DecodedInst
roundTrip(const std::function<void(X86Asm &)> &emit)
{
    X86Asm a(0x1000);
    emit(a);
    auto bytes = a.finalize();
    return decodeBytes(bytes);
}

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
// Decode round trips and lengths
// ---------------------------------------------------------------------

struct XCase
{
    const char *mnemonic;
    InstClass cls;
    unsigned length;
    std::function<void(X86Asm &)> emit;
};

// gtest would print the raw bytes, pointers included, into the ctest
// name, which then changes with every load address. Print the name.
void PrintTo(const XCase &c, std::ostream *os)
{
    *os << c.mnemonic;
}

class X86RoundTrip : public ::testing::TestWithParam<XCase>
{
};

TEST_P(X86RoundTrip, DecodesToEmittedMnemonicAndLength)
{
    const XCase &c = GetParam();
    DecodedInst inst = roundTrip(c.emit);
    ASSERT_TRUE(inst.valid) << c.mnemonic;
    EXPECT_STREQ(inst.mnemonic, c.mnemonic);
    EXPECT_EQ(inst.cls, c.cls) << c.mnemonic;
    EXPECT_EQ(inst.length, c.length) << c.mnemonic;
}

static const XCase xCases[] = {
    {"nop", InstClass::Nop, 1, [](X86Asm &a) { a.nop(); }},
    {"mov", InstClass::IntAlu, 2, [](X86Asm &a) { a.mov(RAX, RBX); }},
    {"movabs", InstClass::IntAlu, 10,
     [](X86Asm &a) { a.movImm(RCX, 0x1122334455667788ull); }},
    {"load8", InstClass::Load, 6,
     [](X86Asm &a) { a.load8(RAX, RSI, 4); }},
    {"load16", InstClass::Load, 7,
     [](X86Asm &a) { a.load16(RAX, RSI, 4); }},
    {"load32", InstClass::Load, 7,
     [](X86Asm &a) { a.load32(RAX, RSI, 4); }},
    {"load64", InstClass::Load, 6,
     [](X86Asm &a) { a.load64(RAX, RSI, -4); }},
    {"store8", InstClass::Store, 6,
     [](X86Asm &a) { a.store8(RAX, RDI, 0); }},
    {"store16", InstClass::Store, 7,
     [](X86Asm &a) { a.store16(RAX, RDI, 0); }},
    {"store32", InstClass::Store, 7,
     [](X86Asm &a) { a.store32(RAX, RDI, 0); }},
    {"store64", InstClass::Store, 6,
     [](X86Asm &a) { a.store64(RAX, RDI, 8); }},
    {"add", InstClass::IntAlu, 2, [](X86Asm &a) { a.add(RAX, RBX); }},
    {"sub", InstClass::IntAlu, 2, [](X86Asm &a) { a.sub(RAX, RBX); }},
    {"xor", InstClass::IntAlu, 2, [](X86Asm &a) { a.xor_(RAX, RBX); }},
    {"and", InstClass::IntAlu, 2, [](X86Asm &a) { a.and_(RAX, RBX); }},
    {"or", InstClass::IntAlu, 2, [](X86Asm &a) { a.or_(RAX, RBX); }},
    {"cmp", InstClass::IntAlu, 2, [](X86Asm &a) { a.cmp(RAX, RBX); }},
    {"imul", InstClass::IntAlu, 3,
     [](X86Asm &a) { a.imul(RAX, RBX); }},
    {"addi8", InstClass::IntAlu, 3, [](X86Asm &a) { a.addi(RAX, 5); }},
    {"addi32", InstClass::IntAlu, 6,
     [](X86Asm &a) { a.addi(RAX, 1000); }},
    {"shl", InstClass::IntAlu, 3, [](X86Asm &a) { a.shl(RAX, 3); }},
    {"shr", InstClass::IntAlu, 3, [](X86Asm &a) { a.shr(RAX, 3); }},
    {"sar", InstClass::IntAlu, 3, [](X86Asm &a) { a.sar(RAX, 3); }},
    {"jmpr", InstClass::Jump, 2, [](X86Asm &a) { a.jmpReg(R11); }},
    {"callr", InstClass::Jump, 2, [](X86Asm &a) { a.callReg(R11); }},
    {"ret", InstClass::Jump, 1, [](X86Asm &a) { a.ret(); }},
    {"push", InstClass::Store, 2, [](X86Asm &a) { a.push(RBP); }},
    {"pop", InstClass::Load, 2, [](X86Asm &a) { a.pop(RBP); }},
    {"out", InstClass::SysOther, 1, [](X86Asm &a) { a.out(); }},
    {"hlt", InstClass::SysOther, 1, [](X86Asm &a) { a.hlt(); }},
    {"syscall", InstClass::Syscall, 2,
     [](X86Asm &a) { a.syscall(); }},
    {"iretq", InstClass::TrapRet, 2, [](X86Asm &a) { a.iretq(); }},
    {"wbinvd", InstClass::SysOther, 2, [](X86Asm &a) { a.wbinvd(); }},
    {"invlpg", InstClass::SysOther, 3,
     [](X86Asm &a) { a.invlpg(RAX); }},
    {"movrcr", InstClass::CsrRead, 3,
     [](X86Asm &a) { a.movFromCr(RAX, 0); }},
    {"movcrr", InstClass::CsrWrite, 3,
     [](X86Asm &a) { a.movToCr(3, RAX); }},
    {"movrdr", InstClass::CsrRead, 3,
     [](X86Asm &a) { a.movFromDr(RAX, 7); }},
    {"movdrr", InstClass::CsrWrite, 3,
     [](X86Asm &a) { a.movToDr(0, RAX); }},
    {"rdmsr", InstClass::CsrRead, 2, [](X86Asm &a) { a.rdmsr(); }},
    {"wrmsr", InstClass::CsrWrite, 2, [](X86Asm &a) { a.wrmsr(); }},
    {"rdtsc", InstClass::IntAlu, 2, [](X86Asm &a) { a.rdtsc(); }},
    {"cpuid", InstClass::SysOther, 2, [](X86Asm &a) { a.cpuid(); }},
    {"lidt", InstClass::CsrWrite, 3, [](X86Asm &a) { a.lidt(RAX); }},
    {"lgdt", InstClass::CsrWrite, 3, [](X86Asm &a) { a.lgdt(RAX); }},
    {"lldt", InstClass::CsrWrite, 3, [](X86Asm &a) { a.lldt(RAX); }},
    {"wrpkru", InstClass::CsrWrite, 3,
     [](X86Asm &a) { a.wrpkru(RBX); }},
    {"rdpkru", InstClass::CsrRead, 3,
     [](X86Asm &a) { a.rdpkru(RBX); }},
    {"hccall", InstClass::GateCall, 3,
     [](X86Asm &a) { a.hccall(RCX); }},
    {"hccalls", InstClass::GateCallS, 3,
     [](X86Asm &a) { a.hccalls(RCX); }},
    {"hcrets", InstClass::GateRet, 2, [](X86Asm &a) { a.hcrets(); }},
    {"pfch", InstClass::Prefetch, 3, [](X86Asm &a) { a.pfch(RCX); }},
    {"pflh", InstClass::CacheFlush, 3, [](X86Asm &a) { a.pflh(RCX); }},
    {"halt", InstClass::Halt, 3, [](X86Asm &a) { a.halt(RAX); }},
    {"simmark", InstClass::SimMark, 3,
     [](X86Asm &a) { a.simmark(RAX); }},
};

INSTANTIATE_TEST_SUITE_P(AllInstructions, X86RoundTrip,
                         ::testing::ValuesIn(xCases),
                         [](const auto &info) {
                             std::string n = info.param.mnemonic;
                             for (auto &c : n)
                                 if (!std::isalnum((unsigned char)c))
                                     c = '_';
                             return n + std::to_string(info.index);
                         });

TEST(X86Decode, PrefixesConsumedAndIgnoredForTyping)
{
    // Section 7: "ISA-Grid ignores the instruction prefix and uses the
    // opcode to decide the instruction type."
    X86Asm a(0);
    a.prefix(0x66);
    a.prefix(0xf3);
    a.add(RAX, RBX);
    auto bytes = a.finalize();
    DecodedInst inst = decodeBytes(bytes);
    ASSERT_TRUE(inst.valid);
    EXPECT_STREQ(inst.mnemonic, "add");
    EXPECT_EQ(inst.type, InstTypeId(IT_ADD));
    EXPECT_EQ(inst.length, 4u); // 2 prefixes + 2-byte add
}

TEST(X86Decode, RexBlockIsPrefix)
{
    for (std::uint8_t b = 0x40; b <= 0x4f; ++b)
        EXPECT_TRUE(isPrefixByte(b));
    EXPECT_FALSE(isPrefixByte(0x50));
}

TEST(X86Decode, TooManyPrefixesInvalid)
{
    std::vector<std::uint8_t> bytes = {0x66, 0x66, 0x66, 0x66, 0x66,
                                       0x90};
    // Four prefixes max: the fifth 0x66 is treated as an opcode and
    // fails to decode.
    EXPECT_FALSE(decodeBytes(bytes).valid);
}

TEST(X86Decode, TruncatedVariableLengthInvalid)
{
    // movabs needs 10 bytes.
    std::vector<std::uint8_t> bytes = {0xb8, 0x00, 0x11, 0x22};
    EXPECT_FALSE(isa.decode(bytes.data(), bytes.size(), 0).valid);
}

TEST(X86Decode, InteriorBytesDecodeDifferently)
{
    // The variable-length property at the heart of the paper's
    // unintended-instruction discussion: a movabs whose immediate
    // contains 0xEE ('out') yields a *different, privileged*
    // instruction when decoded at +2.
    X86Asm a(0x1000);
    a.movImm(RAX, 0x00000000001f0feeull);
    auto bytes = a.finalize();
    DecodedInst outer = decodeBytes(bytes);
    ASSERT_TRUE(outer.valid);
    EXPECT_STREQ(outer.mnemonic, "movabs");

    DecodedInst hidden = isa.decode(bytes.data() + 2, bytes.size() - 2,
                                    0x1002);
    ASSERT_TRUE(hidden.valid);
    EXPECT_STREQ(hidden.mnemonic, "out");
    EXPECT_TRUE(isa.instPrivileged(hidden));
}

TEST(X86Decode, MsrInstructionsAreDynamic)
{
    DecodedInst rd = roundTrip([](X86Asm &a) { a.rdmsr(); });
    EXPECT_TRUE(rd.csr_dynamic);
    EXPECT_EQ(rd.rs1, unsigned(RCX));
    DecodedInst wr = roundTrip([](X86Asm &a) { a.wrmsr(); });
    EXPECT_TRUE(wr.csr_dynamic);
}

TEST(X86Decode, ControlRegisterAddressesResolved)
{
    DecodedInst cr4 =
        roundTrip([](X86Asm &a) { a.movToCr(4, RAX); });
    EXPECT_EQ(cr4.csr_addr, std::uint32_t(CSR_CR4));
    DecodedInst dr6 =
        roundTrip([](X86Asm &a) { a.movFromDr(RAX, 6); });
    EXPECT_EQ(dr6.csr_addr, std::uint32_t(CSR_DR_BASE) + 6);
    DecodedInst idtr = roundTrip([](X86Asm &a) { a.lidt(RBX); });
    EXPECT_EQ(idtr.csr_addr, std::uint32_t(CSR_IDTR));
}

// ---------------------------------------------------------------------
// Executor semantics
// ---------------------------------------------------------------------

TEST(X86Exec, AluMatchesHostArithmetic)
{
    SplitMix64 rng(55);
    for (int trial = 0; trial < 200; ++trial) {
        std::uint64_t x = rng.next(), y = rng.next();
        ArchState base = freshState();
        base.setReg(RAX, x);
        base.setReg(RBX, y);

        struct Op
        {
            std::function<void(X86Asm &)> emit;
            std::uint64_t expect;
        };
        Op ops[] = {
            {[](X86Asm &a) { a.add(RAX, RBX); }, x + y},
            {[](X86Asm &a) { a.sub(RAX, RBX); }, x - y},
            {[](X86Asm &a) { a.xor_(RAX, RBX); }, x ^ y},
            {[](X86Asm &a) { a.and_(RAX, RBX); }, x & y},
            {[](X86Asm &a) { a.or_(RAX, RBX); }, x | y},
            {[](X86Asm &a) { a.imul(RAX, RBX); }, x * y},
        };
        for (auto &op : ops) {
            ArchState s = base;
            isa.execute(roundTrip(op.emit), s);
            EXPECT_EQ(s.reg(RAX), op.expect);
        }
    }
}

TEST(X86Exec, FlagsDriveConditionalBranches)
{
    ArchState s = freshState(0x1000);
    s.setReg(RAX, 7);
    s.setReg(RBX, 7);
    isa.execute(roundTrip([](X86Asm &a) { a.cmp(RAX, RBX); }), s);
    EXPECT_TRUE(s.regs[RFLAGS] & FLAG_ZF);

    // jz8 with ZF set: taken.
    std::vector<std::uint8_t> jz = {0x74, 0x10};
    DecodedInst inst = decodeBytes(jz);
    ExecResult res = isa.execute(inst, s);
    EXPECT_TRUE(res.taken_branch);
    EXPECT_EQ(res.next_pc, 0x1000u + 2 + 0x10);

    s.setReg(RBX, 9);
    isa.execute(roundTrip([](X86Asm &a) { a.cmp(RAX, RBX); }), s);
    EXPECT_FALSE(s.regs[RFLAGS] & FLAG_ZF);
    EXPECT_TRUE(s.regs[RFLAGS] & FLAG_SF); // 7-9 negative
    res = isa.execute(inst, s);
    EXPECT_FALSE(res.taken_branch);
}

TEST(X86Exec, PushPopMoveRsp)
{
    ArchState s = freshState();
    s.setReg(RSP, 0x8000);
    s.setReg(RBP, 0x1234);
    ExecResult push =
        isa.execute(roundTrip([](X86Asm &a) { a.push(RBP); }), s);
    EXPECT_EQ(s.reg(RSP), 0x7ff8u);
    EXPECT_TRUE(push.mem_write);
    EXPECT_EQ(push.mem_addr, 0x7ff8u);
    EXPECT_EQ(push.store_value, 0x1234u);

    ExecResult pop =
        isa.execute(roundTrip([](X86Asm &a) { a.pop(RDX); }), s);
    EXPECT_EQ(s.reg(RSP), 0x8000u);
    EXPECT_FALSE(pop.mem_write);
    EXPECT_EQ(pop.mem_addr, 0x7ff8u);
    EXPECT_EQ(pop.mem_reg, unsigned(RDX));
}

TEST(X86Exec, CallPushesReturnRetPopsToPc)
{
    ArchState s = freshState(0x1000);
    s.setReg(RSP, 0x8000);
    X86Asm a(0x1000);
    auto t = a.newLabel();
    a.call(t);
    a.nop();
    a.bind(t);
    auto bytes = a.finalize();
    DecodedInst call = decodeBytes(bytes);
    ExecResult res = isa.execute(call, s);
    EXPECT_EQ(res.store_value, 0x1005u); // return past the call
    EXPECT_EQ(res.next_pc, 0x1006u);     // the label

    ExecResult ret =
        isa.execute(roundTrip([](X86Asm &b) { b.ret(); }), s);
    EXPECT_TRUE(ret.mem_to_pc);
    EXPECT_EQ(ret.mem_addr, 0x7ff8u);
}

TEST(X86Exec, RdtscReadsCycleCounter)
{
    ArchState s = freshState();
    s.cycle = 123456;
    isa.execute(roundTrip([](X86Asm &a) { a.rdtsc(); }), s);
    EXPECT_EQ(s.reg(RAX), 123456u);
}

TEST(X86Exec, CpuidFillsVendorRegisters)
{
    ArchState s = freshState();
    isa.execute(roundTrip([](X86Asm &a) { a.cpuid(); }), s);
    EXPECT_NE(s.reg(RAX), 0u);
    EXPECT_EQ(s.reg(RBX), 0x47724964u);
}

TEST(X86Exec, WbinvdRequestsCacheFlush)
{
    ArchState s = freshState();
    ExecResult res =
        isa.execute(roundTrip([](X86Asm &a) { a.wbinvd(); }), s);
    EXPECT_TRUE(res.flush_caches);
    EXPECT_TRUE(res.serializing);
}

TEST(X86Exec, WrmsrCarriesValueFromRax)
{
    ArchState s = freshState();
    s.setReg(RCX, MSR_VOLTAGE);
    s.setReg(RAX, 0x42);
    ExecResult res =
        isa.execute(roundTrip([](X86Asm &a) { a.wrmsr(); }), s);
    EXPECT_TRUE(res.csr_write);
    EXPECT_EQ(res.csr_write_value, 0x42u);
}

TEST(X86Trap, EntryUsesIdtrAndReturnRestoresMode)
{
    ArchState s = freshState(0x2000);
    s.mode = PrivMode::User;
    s.csrs.write(CSR_IDTR, 0x7000);
    Addr handler = isa.takeTrap(s, FaultType::SyscallTrap, 0x2002, 0);
    EXPECT_EQ(handler, 0x7000u);
    EXPECT_EQ(s.mode, PrivMode::Supervisor);
    EXPECT_EQ(s.csrs.read(CSR_TRAP_RIP), 0x2002u);
    EXPECT_EQ(s.csrs.read(CSR_TRAP_CAUSE),
              std::uint64_t(VEC_SYSCALL));
    EXPECT_EQ(s.csrs.read(CSR_TRAP_MODE), 0u);

    Addr resume = isa.trapReturn(s);
    EXPECT_EQ(resume, 0x2002u);
    EXPECT_EQ(s.mode, PrivMode::User);
}

TEST(X86Privilege, SupervisorOnlyInstructions)
{
    EXPECT_TRUE(isa.instPrivileged(
        roundTrip([](X86Asm &a) { a.out(); })));
    EXPECT_TRUE(isa.instPrivileged(
        roundTrip([](X86Asm &a) { a.wbinvd(); })));
    EXPECT_TRUE(isa.instPrivileged(
        roundTrip([](X86Asm &a) { a.rdmsr(); })));
    // wrpkru works in user mode: the MPK problem the paper fixes.
    EXPECT_FALSE(isa.instPrivileged(
        roundTrip([](X86Asm &a) { a.wrpkru(RAX); })));
    EXPECT_FALSE(isa.instPrivileged(
        roundTrip([](X86Asm &a) { a.add(RAX, RBX); })));
}

TEST(X86Privilege, PkruIsUserAccessibleCsr)
{
    EXPECT_FALSE(isa.csrPrivileged(CSR_PKRU));
    EXPECT_TRUE(isa.csrPrivileged(CSR_CR0));
    EXPECT_TRUE(isa.csrPrivileged(MSR_VOLTAGE));
}

TEST(X86Mappings, ControlledCsrsHaveDenseBitmapIndices)
{
    const auto &csrs = X86Isa::controlledCsrs();
    std::set<CsrIndex> indices;
    for (std::uint32_t addr : csrs) {
        CsrIndex i = isa.csrBitmapIndex(addr);
        ASSERT_NE(i, invalidCsrIndex);
        EXPECT_LT(i, csrs.size());
        indices.insert(i);
    }
    EXPECT_EQ(indices.size(), csrs.size()); // bijection
    EXPECT_EQ(isa.csrBitmapIndex(0x12345), invalidCsrIndex);
}

TEST(X86Mappings, OnlyCr0AndCr4AreMaskable)
{
    EXPECT_EQ(isa.csrMaskIndex(CSR_CR0), 0u);
    EXPECT_EQ(isa.csrMaskIndex(CSR_CR4), 1u);
    EXPECT_EQ(isa.csrMaskIndex(CSR_CR3), invalidCsrIndex);
    EXPECT_EQ(isa.csrMaskIndex(MSR_VOLTAGE), invalidCsrIndex);
    EXPECT_EQ(isa.numMaskableCsrs(), 2u);
}

TEST(X86Mappings, GridRegBlockResolves)
{
    for (std::uint8_t i = 0; i < numGridRegs; ++i) {
        GridReg reg = static_cast<GridReg>(i);
        std::uint32_t addr = isa.gridRegAddr(reg);
        EXPECT_TRUE(isa.isGridReg(addr));
        EXPECT_EQ(isa.gridRegId(addr), reg);
    }
    EXPECT_FALSE(isa.isGridReg(MSR_VOLTAGE));
}

/**
 * Random byte sequences either fail to decode or decode to a length
 * within bounds — the decoder never reads past its input.
 */
TEST(X86Decode, FuzzedBytesNeverOverrun)
{
    SplitMix64 rng(2024);
    for (int i = 0; i < 20000; ++i) {
        std::uint8_t buf[15];
        std::size_t len = 1 + rng.below(15);
        for (std::size_t k = 0; k < len; ++k)
            buf[k] = std::uint8_t(rng.next());
        DecodedInst inst = isa.decode(buf, len, 0x1000);
        if (inst.valid) {
            EXPECT_LE(inst.length, len);
            EXPECT_LT(inst.type, isa.numInstTypes());
        }
    }
}
