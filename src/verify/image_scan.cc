#include "verify/image_scan.hh"

#include <algorithm>
#include <cstdio>
#include <string_view>

namespace isagrid {

std::string
hexAddr(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%#llx", (unsigned long long)value);
    return buf;
}

void
jsonEscape(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

// ---------------------------------------------------------------------
// ConstTracker
// ---------------------------------------------------------------------

ConstTracker::ConstTracker(unsigned num_regs, bool zero_hardwired)
    : known(num_regs, false), vals(num_regs, 0),
      zeroHardwired(zero_hardwired)
{
    if (zero_hardwired)
        known[0] = true;
}

std::optional<RegVal>
ConstTracker::value(unsigned reg) const
{
    if (reg < known.size() && known[reg])
        return vals[reg];
    return std::nullopt;
}

void
ConstTracker::step(const DecodedInst &inst, Addr pc)
{
    std::string_view m = inst.mnemonic;
    switch (inst.cls) {
      case InstClass::IntAlu:
        if (m == "lui" || m == "movabs") {
            set(inst.rd, static_cast<RegVal>(inst.imm));
        } else if (m == "auipc") {
            set(inst.rd, pc + static_cast<RegVal>(inst.imm));
        } else if (m == "mov") {
            propagate(inst.rd, value(inst.rs1));
        } else if (m == "addi" || m == "addi8" || m == "addi32") {
            if (auto v = value(inst.rs1))
                set(inst.rd, *v + static_cast<RegVal>(inst.imm));
            else
                kill(inst.rd);
        } else if (m == "slli" || m == "shl") {
            if (auto v = value(inst.rs1))
                set(inst.rd, *v << inst.imm);
            else
                kill(inst.rd);
        } else if (m == "srli" || m == "shr") {
            if (auto v = value(inst.rs1))
                set(inst.rd, *v >> inst.imm);
            else
                kill(inst.rd);
        } else if (m == "add" || m == "sub" || m == "or" ||
                   m == "and" || m == "xor") {
            // Register copies spelled as ALU identities (or rd,rs,x0;
            // or rd,rd,rs with a zeroed rd) and the xor/sub zeroing
            // idioms fold here, so a gate id or MSR number reaching an
            // indirect use through such a copy still resolves.
            auto a = value(inst.rs1), b = value(inst.rs2);
            if ((m == "xor" || m == "sub") && inst.rs1 == inst.rs2) {
                set(inst.rd, 0); // rs ^ rs == rs - rs == 0, known or not
            } else if (a && b) {
                RegVal r = 0;
                if (m == "add") r = *a + *b;
                else if (m == "sub") r = *a - *b;
                else if (m == "or") r = *a | *b;
                else if (m == "and") r = *a & *b;
                else r = *a ^ *b;
                set(inst.rd, r);
            } else {
                kill(inst.rd);
            }
        } else if (m == "cmp") {
            // Writes only flags; rd aliases the untouched source.
        } else {
            kill(inst.rd);
        }
        break;
      case InstClass::Load:
      case InstClass::CsrRead:
        kill(inst.rd);
        break;
      case InstClass::SysOther:
        if (m == "cpuid")
            for (unsigned r = 0; r < 4; ++r)
                kill(r); // RAX..RDX
        break;
      case InstClass::Jump:
      case InstClass::Branch:
      case InstClass::Syscall:
      case InstClass::TrapRet:
      case InstClass::GateCall:
      case InstClass::GateCallS:
      case InstClass::GateRet:
      case InstClass::Halt:
        // Join point: another path may reach the next instruction.
        clear();
        break;
      default:
        break;
    }
}

void
ConstTracker::clear()
{
    std::fill(known.begin(), known.end(), false);
    if (zeroHardwired)
        known[0] = true;
}

void
ConstTracker::set(unsigned reg, RegVal value)
{
    if (reg >= known.size() || (zeroHardwired && reg == 0))
        return;
    known[reg] = true;
    vals[reg] = value;
}

void
ConstTracker::propagate(unsigned reg, std::optional<RegVal> value)
{
    if (value)
        set(reg, *value);
    else
        kill(reg);
}

void
ConstTracker::kill(unsigned reg)
{
    if (reg < known.size() && !(zeroHardwired && reg == 0))
        known[reg] = false;
}

// ---------------------------------------------------------------------
// walkRegion
// ---------------------------------------------------------------------

bool
walkRegion(const IsaModel &isa, const PhysMem &mem,
           const CodeRegion &region,
           const std::function<void(const ScanStep &)> &visit,
           const std::function<void(Addr)> &undecodable)
{
    if (region.limit <= region.base || region.limit > mem.size())
        return false;

    const bool x86 = isa.name() == "x86";
    std::vector<std::uint8_t> bytes(region.limit - region.base);
    mem.readBlock(region.base, bytes.data(), bytes.size());

    ConstTracker consts(isa.numRegs(), !x86);
    Addr pc = region.base;
    while (pc < region.limit) {
        std::size_t off = pc - region.base;
        DecodedInst inst =
            isa.decode(bytes.data() + off, bytes.size() - off, pc);
        if (!inst.valid) {
            if (undecodable)
                undecodable(pc);
            consts.clear();
            pc += x86 ? 1 : 4;
            continue;
        }
        ScanStep step;
        step.pc = pc;
        step.inst = &inst;
        step.consts = &consts;
        visit(step);
        consts.step(inst, pc);
        pc += inst.length;
    }
    return true;
}

} // namespace isagrid
