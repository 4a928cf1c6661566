#include "isa/riscv/riscv_isa.hh"

#include <array>

#include "sim/logging.hh"

namespace isagrid {
namespace riscv {

namespace {

/** Sign-extend the low @p bits of @p value. */
std::int64_t
sext(std::uint64_t value, unsigned bits)
{
    std::uint64_t mask = 1ull << (bits - 1);
    value &= (bits >= 64) ? ~0ull : ((1ull << bits) - 1);
    return static_cast<std::int64_t>((value ^ mask) - mask);
}

std::uint32_t field(std::uint32_t w, unsigned lo, unsigned len)
{
    return (w >> lo) & ((1u << len) - 1);
}

std::int64_t
immI(std::uint32_t w)
{
    return sext(w >> 20, 12);
}

std::int64_t
immS(std::uint32_t w)
{
    return sext((field(w, 25, 7) << 5) | field(w, 7, 5), 12);
}

std::int64_t
immB(std::uint32_t w)
{
    std::uint64_t imm = (field(w, 31, 1) << 12) | (field(w, 7, 1) << 11) |
                        (field(w, 25, 6) << 5) | (field(w, 8, 4) << 1);
    return sext(imm, 13);
}

std::int64_t
immU(std::uint32_t w)
{
    return sext(w & 0xfffff000u, 32);
}

std::int64_t
immJ(std::uint32_t w)
{
    std::uint64_t imm = (field(w, 31, 1) << 20) | (field(w, 12, 8) << 12) |
                        (field(w, 20, 1) << 11) | (field(w, 21, 10) << 1);
    return sext(imm, 21);
}

const char *const instTypeNames[NumInstTypes] = {
    "lui", "auipc", "jal", "jalr",
    "beq", "bne", "blt", "bge", "bltu", "bgeu",
    "lb", "lh", "lw", "ld", "lbu", "lhu", "lwu",
    "sb", "sh", "sw", "sd",
    "addi", "slti", "sltiu", "xori", "ori", "andi",
    "slli", "srli", "srai",
    "add", "sub", "sll", "slt", "sltu", "xor",
    "srl", "sra", "or", "and",
    "mul", "div", "rem",
    "fence", "ecall", "ebreak", "sret", "wfi", "sfence.vma",
    "csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci",
    "hccall", "hccalls", "hcrets", "pfch", "pflh",
    "halt", "simmark",
};

DecodedInst
make(InstTypeId type, InstClass cls)
{
    DecodedInst inst;
    inst.valid = true;
    inst.length = 4;
    inst.type = type;
    inst.cls = cls;
    inst.mnemonic = instTypeNames[type];
    return inst;
}

} // namespace

RiscvIsa::RiscvIsa() = default;

namespace {

/** The controlled CSRs, in register-bitmap order. */
constexpr std::array<std::uint32_t, 13> kControlledCsrs = {
    CSR_SSTATUS, CSR_SIE, CSR_STVEC, CSR_SCOUNTEREN, CSR_SSCRATCH,
    CSR_SEPC, CSR_SCAUSE, CSR_STVAL, CSR_SIP, CSR_SATP,
    CSR_CYCLE, CSR_TIME, CSR_INSTRET,
};

/**
 * Register-bitmap index by 12-bit CSR address: one constant table for
 * the process, so the PCU's CSR checks index instead of scanning.
 */
constexpr std::array<CsrIndex, 4096> kCsrBitmapIndex = [] {
    std::array<CsrIndex, 4096> table{};
    table.fill(invalidCsrIndex);
    for (CsrIndex i = 0; i < kControlledCsrs.size(); ++i)
        table[kControlledCsrs[i]] = i;
    return table;
}();

} // namespace

const std::vector<std::uint32_t> &
RiscvIsa::controlledCsrs()
{
    static const std::vector<std::uint32_t> csrs(kControlledCsrs.begin(),
                                                 kControlledCsrs.end());
    return csrs;
}

std::uint32_t
RiscvIsa::numControlledCsrs() const
{
    return static_cast<std::uint32_t>(controlledCsrs().size());
}

CsrIndex
RiscvIsa::csrBitmapIndex(std::uint32_t csr_addr) const
{
    return csr_addr < kCsrBitmapIndex.size() ? kCsrBitmapIndex[csr_addr]
                                             : invalidCsrIndex;
}

CsrIndex
RiscvIsa::csrMaskIndex(std::uint32_t csr_addr) const
{
    // Only SSTATUS requires bitwise control in the RISC-V prototype.
    return csr_addr == CSR_SSTATUS ? 0 : invalidCsrIndex;
}

bool
RiscvIsa::isGridReg(std::uint32_t csr_addr) const
{
    return csr_addr >= CSR_GRID_BASE &&
           csr_addr < CSR_GRID_BASE + numGridRegs;
}

GridReg
RiscvIsa::gridRegId(std::uint32_t csr_addr) const
{
    ISAGRID_ASSERT(isGridReg(csr_addr), "csr %#x", csr_addr);
    return static_cast<GridReg>(csr_addr - CSR_GRID_BASE);
}

std::uint32_t
RiscvIsa::gridRegAddr(GridReg reg) const
{
    return CSR_GRID_BASE + static_cast<std::uint32_t>(reg);
}

bool
RiscvIsa::csrPrivileged(std::uint32_t csr_addr) const
{
    if (csr_addr >= 0xc00 && csr_addr <= 0xc1f)
        return false; // user counters
    return true;
}

bool
RiscvIsa::instPrivileged(const DecodedInst &inst) const
{
    return inst.type == IT_SRET || inst.type == IT_WFI ||
           inst.type == IT_SFENCE_VMA;
}

const char *
RiscvIsa::instTypeName(InstTypeId type) const
{
    ISAGRID_ASSERT(type < NumInstTypes, "type %u", type);
    return instTypeNames[type];
}

std::vector<InstTypeId>
RiscvIsa::baselineInstTypes() const
{
    std::vector<InstTypeId> types;
    for (InstTypeId t = 0; t < NumInstTypes; ++t) {
        // sfence.vma and wfi are the sensitive per-domain grants; every
        // other type (including the CSR-access and gate instructions,
        // whose targets the register bitmap / SGT control) is baseline.
        if (t == IT_SFENCE_VMA || t == IT_WFI)
            continue;
        types.push_back(t);
    }
    return types;
}

CtrlFlow
RiscvIsa::controlFlow(const DecodedInst &inst) const
{
    // Dispatch on the un-remapped type id so a GroupedIsa decorator can
    // forward decorated instructions unchanged.
    InstTypeId t =
        inst.raw_type != invalidInstType ? inst.raw_type : inst.type;
    switch (inst.cls) {
      case InstClass::Branch:
        return CtrlFlow::Branch;
      case InstClass::Jump:
        if (t == IT_JAL)
            return inst.rd == 1 ? CtrlFlow::Call : CtrlFlow::Jump;
        // jalr: the standard link/return register idioms.
        if (inst.rd == 1)
            return CtrlFlow::IndirectCall;
        if (inst.rd == 0 && inst.rs1 == 1 && inst.imm == 0)
            return CtrlFlow::Return;
        return CtrlFlow::IndirectJump;
      default:
        return CtrlFlow::None;
    }
}

std::optional<Addr>
RiscvIsa::controlTarget(const DecodedInst &inst, Addr pc,
                        std::optional<RegVal> rs1_value) const
{
    InstTypeId t =
        inst.raw_type != invalidInstType ? inst.raw_type : inst.type;
    if (inst.cls == InstClass::Branch)
        return pc + static_cast<RegVal>(inst.imm);
    if (inst.cls != InstClass::Jump)
        return std::nullopt;
    if (t == IT_JAL)
        return pc + static_cast<RegVal>(inst.imm);
    if (rs1_value) // jalr: target = (rs1 + imm) & ~1
        return (*rs1_value + static_cast<RegVal>(inst.imm)) & ~Addr{1};
    return std::nullopt;
}

bool
RiscvIsa::csrReadsOldValue(const DecodedInst &inst) const
{
    if (inst.cls != InstClass::CsrRead && inst.cls != InstClass::CsrWrite)
        return false;
    // Matches execute(): csrrw/csrrs/csrrc read the old value exactly
    // when rd is not x0; the pure-read forms always do.
    return inst.rd != 0 || inst.cls == InstClass::CsrRead;
}

int
RiscvIsa::csrWriteSourceReg(const DecodedInst &inst, RegVal &imm_out) const
{
    if ((inst.subop & 4) != 0) { // csrr*i: the rs1 field is the uimm
        imm_out = inst.rs1;
        return -1;
    }
    imm_out = 0;
    return inst.rs1;
}

DecodedInst
RiscvIsa::decode(const std::uint8_t *bytes, std::size_t avail,
                 Addr pc) const
{
    (void)pc;
    DecodedInst bad;
    if (avail < 4)
        return bad;
    std::uint32_t w = std::uint32_t(bytes[0]) | (std::uint32_t(bytes[1]) << 8) |
                      (std::uint32_t(bytes[2]) << 16) |
                      (std::uint32_t(bytes[3]) << 24);
    std::uint32_t op = field(w, 0, 7);
    auto rd = std::uint8_t(field(w, 7, 5));
    auto f3 = std::uint16_t(field(w, 12, 3));
    auto rs1 = std::uint8_t(field(w, 15, 5));
    auto rs2 = std::uint8_t(field(w, 20, 5));
    std::uint32_t f7 = field(w, 25, 7);

    DecodedInst inst;
    switch (op) {
      case OP_LUI:
        inst = make(IT_LUI, InstClass::IntAlu);
        inst.rd = rd; inst.imm = immU(w);
        return inst;
      case OP_AUIPC:
        inst = make(IT_AUIPC, InstClass::IntAlu);
        inst.rd = rd; inst.imm = immU(w);
        return inst;
      case OP_JAL:
        inst = make(IT_JAL, InstClass::Jump);
        inst.rd = rd; inst.imm = immJ(w);
        return inst;
      case OP_JALR:
        if (f3 != 0)
            return bad;
        inst = make(IT_JALR, InstClass::Jump);
        inst.rd = rd; inst.rs1 = rs1; inst.imm = immI(w);
        return inst;
      case OP_BRANCH: {
        static constexpr InstTypeId types[8] = {
            IT_BEQ, IT_BNE, invalidInstType, invalidInstType,
            IT_BLT, IT_BGE, IT_BLTU, IT_BGEU};
        if (types[f3] == invalidInstType)
            return bad;
        inst = make(types[f3], InstClass::Branch);
        inst.rs1 = rs1; inst.rs2 = rs2; inst.imm = immB(w);
        return inst;
      }
      case OP_LOAD: {
        static constexpr InstTypeId types[8] = {
            IT_LB, IT_LH, IT_LW, IT_LD, IT_LBU, IT_LHU, IT_LWU,
            invalidInstType};
        if (types[f3] == invalidInstType)
            return bad;
        inst = make(types[f3], InstClass::Load);
        inst.rd = rd; inst.rs1 = rs1; inst.imm = immI(w);
        inst.subop = f3;
        return inst;
      }
      case OP_STORE: {
        static constexpr InstTypeId types[8] = {
            IT_SB, IT_SH, IT_SW, IT_SD, invalidInstType, invalidInstType,
            invalidInstType, invalidInstType};
        if (types[f3] == invalidInstType)
            return bad;
        inst = make(types[f3], InstClass::Store);
        inst.rs1 = rs1; inst.rs2 = rs2; inst.imm = immS(w);
        inst.subop = f3;
        return inst;
      }
      case OP_IMM: {
        InstTypeId type;
        switch (f3) {
          case 0: type = IT_ADDI; break;
          case 2: type = IT_SLTI; break;
          case 3: type = IT_SLTIU; break;
          case 4: type = IT_XORI; break;
          case 6: type = IT_ORI; break;
          case 7: type = IT_ANDI; break;
          case 1:
            if (f7 != 0 && f7 != 1)
                return bad;
            type = IT_SLLI;
            break;
          case 5:
            type = (f7 & 0x20) ? IT_SRAI : IT_SRLI;
            break;
          default:
            return bad;
        }
        inst = make(type, InstClass::IntAlu);
        inst.rd = rd; inst.rs1 = rs1;
        if (f3 == 1 || f3 == 5)
            inst.imm = field(w, 20, 6); // shamt for RV64
        else
            inst.imm = immI(w);
        return inst;
      }
      case OP_REG: {
        InstTypeId type = invalidInstType;
        if (f7 == 0x01) { // M extension subset
            switch (f3) {
              case 0: type = IT_MUL; break;
              case 4: type = IT_DIV; break;
              case 6: type = IT_REM; break;
              default: return bad;
            }
        } else {
            switch (f3) {
              case 0: type = (f7 == 0x20) ? IT_SUB : IT_ADD; break;
              case 1: type = IT_SLL; break;
              case 2: type = IT_SLT; break;
              case 3: type = IT_SLTU; break;
              case 4: type = IT_XOR; break;
              case 5: type = (f7 == 0x20) ? IT_SRA : IT_SRL; break;
              case 6: type = IT_OR; break;
              case 7: type = IT_AND; break;
            }
            if ((f7 != 0 && f7 != 0x20) ||
                (f7 == 0x20 && f3 != 0 && f3 != 5))
                return bad;
        }
        inst = make(type, InstClass::IntAlu);
        inst.rd = rd; inst.rs1 = rs1; inst.rs2 = rs2;
        if (type == IT_MUL)
            inst.exec_latency = 3;
        else if (type == IT_DIV || type == IT_REM)
            inst.exec_latency = 12;
        return inst;
      }
      case OP_FENCE:
        inst = make(IT_FENCE, InstClass::Nop);
        return inst;
      case OP_SYSTEM: {
        if (f3 == 0) {
            std::uint32_t imm12 = w >> 20;
            if (f7 == 0x09) {
                inst = make(IT_SFENCE_VMA, InstClass::SysOther);
                inst.rs1 = rs1; inst.rs2 = rs2;
                return inst;
            }
            switch (imm12) {
              case 0x000: return make(IT_ECALL, InstClass::Syscall);
              case 0x001: return make(IT_EBREAK, InstClass::Syscall);
              case 0x102: return make(IT_SRET, InstClass::TrapRet);
              case 0x105: return make(IT_WFI, InstClass::SysOther);
              default: return bad;
            }
        }
        static constexpr InstTypeId types[8] = {
            invalidInstType, IT_CSRRW, IT_CSRRS, IT_CSRRC,
            invalidInstType, IT_CSRRWI, IT_CSRRSI, IT_CSRRCI};
        if (types[f3] == invalidInstType)
            return bad;
        bool is_imm_form = f3 >= 5;
        bool pure_read = (f3 == 2 || f3 == 3 || f3 == 6 || f3 == 7) &&
                         rs1 == 0; // csrrs/c with x0 source reads only
        inst = make(types[f3],
                    pure_read ? InstClass::CsrRead : InstClass::CsrWrite);
        inst.rd = rd;
        inst.rs1 = rs1; // register number, or uimm for immediate forms
        inst.csr_addr = w >> 20;
        inst.subop = static_cast<std::uint16_t>(
            (f3 & 3) | (is_imm_form ? 4 : 0));
        return inst;
      }
      case OP_CUSTOM0:
        switch (f3) {
          case F3_HCCALL:
            inst = make(IT_HCCALL, InstClass::GateCall);
            inst.rs1 = rs1;
            return inst;
          case F3_HCCALLS:
            inst = make(IT_HCCALLS, InstClass::GateCallS);
            inst.rs1 = rs1;
            return inst;
          case F3_HCRETS:
            return make(IT_HCRETS, InstClass::GateRet);
          case F3_PFCH:
            inst = make(IT_PFCH, InstClass::Prefetch);
            inst.rs1 = rs1;
            return inst;
          case F3_PFLH:
            inst = make(IT_PFLH, InstClass::CacheFlush);
            inst.rs1 = rs1;
            return inst;
          default:
            return bad;
        }
      case OP_CUSTOM1:
        switch (f3) {
          case F3_HALT:
            inst = make(IT_HALT, InstClass::Halt);
            inst.rs1 = rs1;
            return inst;
          case F3_SIMMARK:
            inst = make(IT_SIMMARK, InstClass::SimMark);
            inst.rs1 = rs1;
            return inst;
          default:
            return bad;
        }
      default:
        return bad;
    }
}

ExecResult
RiscvIsa::execute(const DecodedInst &inst, ArchState &state) const
{
    ExecResult res;
    res.next_pc = state.pc + inst.length;
    RegVal a = state.reg(inst.rs1);
    RegVal b = state.reg(inst.rs2);
    auto sa = static_cast<std::int64_t>(a);
    auto sb = static_cast<std::int64_t>(b);

    switch (inst.type) {
      case IT_LUI:
        state.setReg(inst.rd, static_cast<RegVal>(inst.imm));
        break;
      case IT_AUIPC:
        state.setReg(inst.rd, state.pc + static_cast<RegVal>(inst.imm));
        break;
      case IT_JAL:
        state.setReg(inst.rd, state.pc + 4);
        res.next_pc = state.pc + static_cast<RegVal>(inst.imm);
        res.taken_branch = true;
        break;
      case IT_JALR: {
        Addr target = (a + static_cast<RegVal>(inst.imm)) & ~RegVal{1};
        state.setReg(inst.rd, state.pc + 4);
        res.next_pc = target;
        res.taken_branch = true;
        break;
      }
      case IT_BEQ: case IT_BNE: case IT_BLT: case IT_BGE:
      case IT_BLTU: case IT_BGEU: {
        bool taken = false;
        switch (inst.type) {
          case IT_BEQ: taken = a == b; break;
          case IT_BNE: taken = a != b; break;
          case IT_BLT: taken = sa < sb; break;
          case IT_BGE: taken = sa >= sb; break;
          case IT_BLTU: taken = a < b; break;
          case IT_BGEU: taken = a >= b; break;
          default: break;
        }
        if (taken) {
            res.next_pc = state.pc + static_cast<RegVal>(inst.imm);
            res.taken_branch = true;
        }
        break;
      }
      case IT_LB: case IT_LH: case IT_LW: case IT_LD:
      case IT_LBU: case IT_LHU: case IT_LWU: {
        static constexpr std::uint8_t sizes[8] = {1, 2, 4, 8, 1, 2, 4, 0};
        res.mem_valid = true;
        res.mem_write = false;
        res.mem_addr = a + static_cast<RegVal>(inst.imm);
        res.mem_size = sizes[inst.subop];
        res.mem_sign_extend = inst.subop < 4;
        res.mem_reg = inst.rd;
        break;
      }
      case IT_SB: case IT_SH: case IT_SW: case IT_SD: {
        static constexpr std::uint8_t sizes[4] = {1, 2, 4, 8};
        res.mem_valid = true;
        res.mem_write = true;
        res.mem_addr = a + static_cast<RegVal>(inst.imm);
        res.mem_size = sizes[inst.subop];
        res.store_value = b;
        break;
      }
      case IT_ADDI:
        state.setReg(inst.rd, a + static_cast<RegVal>(inst.imm));
        break;
      case IT_SLTI:
        state.setReg(inst.rd, sa < inst.imm ? 1 : 0);
        break;
      case IT_SLTIU:
        state.setReg(inst.rd, a < static_cast<RegVal>(inst.imm) ? 1 : 0);
        break;
      case IT_XORI:
        state.setReg(inst.rd, a ^ static_cast<RegVal>(inst.imm));
        break;
      case IT_ORI:
        state.setReg(inst.rd, a | static_cast<RegVal>(inst.imm));
        break;
      case IT_ANDI:
        state.setReg(inst.rd, a & static_cast<RegVal>(inst.imm));
        break;
      case IT_SLLI:
        state.setReg(inst.rd, a << (inst.imm & 63));
        break;
      case IT_SRLI:
        state.setReg(inst.rd, a >> (inst.imm & 63));
        break;
      case IT_SRAI:
        state.setReg(inst.rd,
                     static_cast<RegVal>(sa >> (inst.imm & 63)));
        break;
      case IT_ADD: state.setReg(inst.rd, a + b); break;
      case IT_SUB: state.setReg(inst.rd, a - b); break;
      case IT_SLL: state.setReg(inst.rd, a << (b & 63)); break;
      case IT_SLT: state.setReg(inst.rd, sa < sb ? 1 : 0); break;
      case IT_SLTU: state.setReg(inst.rd, a < b ? 1 : 0); break;
      case IT_XOR: state.setReg(inst.rd, a ^ b); break;
      case IT_SRL: state.setReg(inst.rd, a >> (b & 63)); break;
      case IT_SRA:
        state.setReg(inst.rd, static_cast<RegVal>(sa >> (b & 63)));
        break;
      case IT_OR: state.setReg(inst.rd, a | b); break;
      case IT_AND: state.setReg(inst.rd, a & b); break;
      case IT_MUL: state.setReg(inst.rd, a * b); break;
      case IT_DIV:
        state.setReg(inst.rd,
                     b == 0 ? ~RegVal{0}
                            : static_cast<RegVal>(sa / sb));
        break;
      case IT_REM:
        state.setReg(inst.rd,
                     b == 0 ? a : static_cast<RegVal>(sa % sb));
        break;
      case IT_FENCE:
      case IT_WFI:
      case IT_SIMMARK:
        break;
      case IT_SFENCE_VMA:
        res.serializing = true;
        res.flush_tlb = true;
        break;
      case IT_ECALL:
      case IT_EBREAK:
        res.fault = FaultType::SyscallTrap;
        res.serializing = true;
        break;
      case IT_SRET:
        // The core performs the actual return via trapReturn().
        res.serializing = true;
        break;
      case IT_CSRRW: case IT_CSRRS: case IT_CSRRC:
      case IT_CSRRWI: case IT_CSRRSI: case IT_CSRRCI: {
        bool imm_form = (inst.subop & 4) != 0;
        RegVal operand = imm_form ? inst.rs1 : a;
        // The core supplies the old value and applies the write after
        // the PCU check; here we only describe the request.
        res.csr_write = inst.cls == InstClass::CsrWrite;
        res.csr_write_addr = inst.csr_addr;
        res.csr_old_reg = inst.rd;
        res.csr_old_reg_valid = inst.rd != 0 ||
                                inst.cls == InstClass::CsrRead;
        res.serializing = res.csr_write;
        // Compute the written value from the old one; the core will
        // re-evaluate through applyCsrOp() since it owns the old value.
        res.csr_write_value = operand;
        break;
      }
      case IT_HCCALL: case IT_HCCALLS:
        res.serializing = true;
        break;
      case IT_HCRETS:
        res.serializing = true;
        break;
      case IT_PFCH: case IT_PFLH:
        break;
      case IT_HALT:
        res.halt = true;
        res.halt_code = a;
        break;
      default:
        res.fault = FaultType::IllegalInstruction;
        break;
    }
    return res;
}

RegVal
RiscvIsa::csrNewValue(const DecodedInst &inst, RegVal old_value,
                      RegVal operand) const
{
    switch (inst.subop & 3) {
      case 1: return operand;              // csrrw / csrrwi
      case 2: return old_value | operand;  // csrrs / csrrsi
      case 3: return old_value & ~operand; // csrrc / csrrci
      default:
        panic("csrNewValue on non-CSR instruction %s", inst.mnemonic);
    }
}

void
RiscvIsa::initState(ArchState &state) const
{
    state.zero_reg_hardwired = true;
    state.mode = PrivMode::Supervisor;
    state.csrs.define(CSR_SSTATUS, "sstatus");
    state.csrs.define(CSR_SIE, "sie");
    state.csrs.define(CSR_STVEC, "stvec");
    state.csrs.define(CSR_SCOUNTEREN, "scounteren");
    state.csrs.define(CSR_SSCRATCH, "sscratch");
    state.csrs.define(CSR_SEPC, "sepc");
    state.csrs.define(CSR_SCAUSE, "scause");
    state.csrs.define(CSR_STVAL, "stval");
    state.csrs.define(CSR_SIP, "sip");
    state.csrs.define(CSR_SATP, "satp");
    state.csrs.define(CSR_CYCLE, "cycle");
    state.csrs.define(CSR_TIME, "time");
    state.csrs.define(CSR_INSTRET, "instret");
}

Addr
RiscvIsa::takeTrap(ArchState &state, FaultType fault, Addr faulting_pc,
                   RegVal info) const
{
    std::uint64_t cause;
    switch (fault) {
      case FaultType::SyscallTrap:
        cause = state.mode == PrivMode::User ? CAUSE_ECALL_FROM_U
                                             : CAUSE_ECALL_FROM_S;
        break;
      case FaultType::IllegalInstruction: cause = CAUSE_ILLEGAL_INST; break;
      case FaultType::InstPrivilege: cause = CAUSE_GRID_INST_PRIV; break;
      case FaultType::CsrPrivilege: cause = CAUSE_GRID_CSR_PRIV; break;
      case FaultType::CsrMaskViolation: cause = CAUSE_GRID_CSR_MASK; break;
      case FaultType::GateFault: cause = CAUSE_GRID_GATE; break;
      case FaultType::TrustedMemoryViolation: cause = CAUSE_GRID_TMEM; break;
      case FaultType::TrustedStackFault: cause = CAUSE_GRID_TSTACK; break;
      case FaultType::MemoryFault: cause = CAUSE_LOAD_FAULT; break;
      case FaultType::TimerInterrupt: cause = causeTimer; break;
      default:
        panic("takeTrap with fault %s", faultName(fault));
    }

    RegVal sstatus = state.csrs.read(CSR_SSTATUS);
    // Save previous privilege and interrupt enable (side effects:
    // exempt from ISA-Grid privilege checks).
    if (state.mode == PrivMode::Supervisor)
        sstatus |= SSTATUS_SPP;
    else
        sstatus &= ~std::uint64_t{SSTATUS_SPP};
    if (sstatus & SSTATUS_SIE)
        sstatus |= SSTATUS_SPIE;
    else
        sstatus &= ~std::uint64_t{SSTATUS_SPIE};
    sstatus &= ~std::uint64_t{SSTATUS_SIE};
    state.csrs.write(CSR_SSTATUS, sstatus);
    state.csrs.write(CSR_SEPC, faulting_pc);
    state.csrs.write(CSR_SCAUSE, cause);
    state.csrs.write(CSR_STVAL, info);
    state.mode = PrivMode::Supervisor;
    return state.csrs.read(CSR_STVEC) & ~RegVal{3};
}

Addr
RiscvIsa::trapReturn(ArchState &state) const
{
    RegVal sstatus = state.csrs.read(CSR_SSTATUS);
    state.mode = (sstatus & SSTATUS_SPP) ? PrivMode::Supervisor
                                         : PrivMode::User;
    if (sstatus & SSTATUS_SPIE)
        sstatus |= SSTATUS_SIE;
    else
        sstatus &= ~std::uint64_t{SSTATUS_SIE};
    sstatus |= SSTATUS_SPIE;
    sstatus &= ~std::uint64_t{SSTATUS_SPP};
    state.csrs.write(CSR_SSTATUS, sstatus);
    return state.csrs.read(CSR_SEPC);
}

} // namespace riscv
} // namespace isagrid
