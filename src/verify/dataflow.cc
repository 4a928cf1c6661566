#include "verify/dataflow.hh"

#include <string_view>

namespace isagrid {

namespace {

/** Join of two abstract values; Unknown is top. */
SymValue
joinSym(const SymValue &a, const SymValue &b)
{
    if (a == b)
        return a;
    if (a.kind == SymValue::CsrRmw && b.kind == SymValue::CsrRmw &&
        a.csr == b.csr) {
        SymValue s = SymValue::makeCsr(a.csr);
        s.set = a.set | b.set;
        s.clear = a.clear | b.clear;
        return s;
    }
    return SymValue{};
}

/**
 * Bits a CSR write can change, given the abstract operand value.
 * Probing csrNewValue with all-zeros and all-ones old values bounds
 * the changeable bits for any monotone bitwise update rule: a bit the
 * instruction can set shows up in new(0) and a bit it can clear shows
 * up as a zero in new(~0). Exact for csrrw (all bits), csrrs/csrrc
 * (the operand bits) and plain replacement writes.
 */
RegVal
changedBits(const IsaModel &isa, const DecodedInst &inst,
            std::uint32_t csr_addr, const SymValue &operand)
{
    if (operand.kind == SymValue::Const) {
        RegVal from_zero = isa.csrNewValue(inst, 0, operand.v);
        RegVal from_ones = isa.csrNewValue(inst, ~RegVal{0}, operand.v);
        return from_zero | ~from_ones;
    }
    if (operand.kind == SymValue::CsrRmw && operand.csr == csr_addr) {
        // Writing back a read-modify-write of the same CSR changes at
        // most the touched bits — but only under plain replacement
        // semantics (new value == operand), which the probe detects.
        const RegVal probe = 0xAAAA5555AAAA5555ull;
        if (isa.csrNewValue(inst, 0, probe) == probe &&
            isa.csrNewValue(inst, ~RegVal{0}, probe) == probe)
            return operand.set | operand.clear;
    }
    return ~RegVal{0};
}

} // namespace

PrivilegeInference::PrivilegeInference(const IsaModel &isa,
                                       const PhysMem &mem,
                                       const PolicySnapshot &snapshot,
                                       std::vector<CodeRegion> regions)
    : isa(isa), mem(mem), snap(snapshot), regions_(std::move(regions))
{
    PolicyView view(isa, mem, snap);
    for (GateId g = 0; g < view.numGates(); ++g) {
        SgtEntry entry = view.gate(g).entry;
        entries_.emplace_back(static_cast<DomainId>(entry.dest_domain),
                              entry.dest_addr);
    }
}

void
PrivilegeInference::addEntry(DomainId domain, Addr addr)
{
    entries_.emplace_back(domain, addr);
}

void
PrivilegeInference::run()
{
    if (ran_)
        return;
    ran_ = true;

    std::vector<Addr> extra_leaders;
    for (const auto &[domain, addr] : entries_)
        extra_leaders.push_back(addr);
    cfg_ = Cfg::build(isa, mem, snap, std::move(regions_),
                      extra_leaders);

    const bool zero_hardwired = isa.name() != "x86";
    State bottom(isa.numRegs());
    if (zero_hardwired && !bottom.empty())
        bottom[0] = SymValue::makeConst(0);

    for (const auto &[domain, addr] : entries_)
        if (const BasicBlock *bb = cfg_.blockStarting(addr))
            enqueue(domain, bb->id, bottom);

    // Per-block unresolved-control-flow sites, for widening.
    std::vector<std::vector<const IndirectSite *>> indirects(
        cfg_.blocks().size());
    for (const IndirectSite &s : cfg_.unresolvedIndirects())
        indirects[s.block].push_back(&s);
    std::vector<std::vector<const GateSite *>> blindGates(
        cfg_.blocks().size());
    for (const GateSite &s : cfg_.gateSites())
        if (!s.resolved)
            blindGates[s.block].push_back(&s);

    while (!work_.empty()) {
        Key key = work_.back();
        work_.pop_back();
        DomainId domain = key.first;
        const BasicBlock &bb = cfg_.blocks()[key.second];
        State out = transfer(domain, bb, inStates_.at(key));

        for (const CfgEdge &e : bb.succs) {
            switch (e.kind) {
              case EdgeKind::Gate:
                enqueue(e.dest_domain, e.to, out);
                break;
              case EdgeKind::Return:
                // The callee (or gate destination) may clobber any
                // register before control returns here.
                enqueue(domain, e.to, bottom);
                break;
              default:
                enqueue(domain, e.to, out);
                break;
            }
        }

        // An unresolved indirect jump may land anywhere in the
        // executing domain's own code. (Landing in a *foreign* region
        // is a jump-outside violation isagrid-verify reports; the
        // inference assumes a verify-clean image.)
        if (!indirects[bb.id].empty()) {
            DomainNeed &need = needs_[domain];
            need.widened = true;
            for (const IndirectSite *s : indirects[bb.id])
                need.notes.insert(
                    "indirect " +
                    std::string(s->is_call ? "call" : "jump") + " at " +
                    hexAddr(s->pc) +
                    " has no statically known target; treating every "
                    "block of domain " + std::to_string(domain) +
                    " as reachable");
            for (const BasicBlock &other : cfg_.blocks())
                if (other.domain == domain)
                    enqueue(domain, other.id, bottom);
        }

        // A gate with an unknown id can only switch through SGT
        // entries registered *at this pc* (property i): the PCU
        // matches gate_addr before honouring the id.
        for (const GateSite *s : blindGates[bb.id]) {
            for (GateId g = 0; g < cfg_.gates().size(); ++g) {
                const SgtEntry &entry = cfg_.gates()[g];
                if (entry.gate_addr != s->pc)
                    continue;
                if (const BasicBlock *dest =
                        cfg_.blockStarting(entry.dest_addr))
                    enqueue(static_cast<DomainId>(entry.dest_domain),
                            dest->id, bottom);
                needs_[domain].notes.insert(
                    "gate at " + hexAddr(s->pc) +
                    " has an unresolved gate id; following every SGT "
                    "entry registered at that address");
            }
        }
    }
}

void
PrivilegeInference::enqueue(DomainId domain, std::uint32_t block,
                            const State &state)
{
    Key key{domain, block};
    auto [it, inserted] = inStates_.emplace(key, state);
    bool changed = inserted;
    if (!inserted) {
        for (std::size_t r = 0; r < state.size(); ++r) {
            SymValue joined = joinSym(it->second[r], state[r]);
            if (!(joined == it->second[r])) {
                it->second[r] = joined;
                changed = true;
            }
        }
    }
    if (changed)
        work_.push_back(key);
}

PrivilegeInference::State
PrivilegeInference::transfer(DomainId domain, const BasicBlock &bb,
                             State state)
{
    for (const CfgInst &ci : bb.insts) {
        stepNeeds(domain, ci.pc, ci.inst, state);
        symStep(ci.inst, ci.pc, state);
    }
    return state;
}

void
PrivilegeInference::stepNeeds(DomainId domain, Addr pc,
                              const DecodedInst &inst, const State &state)
{
    if (domain == 0)
        return; // domain 0 bypasses every PCU check
    DomainNeed &need = needs_[domain];
    need.inst_types.emplace(inst.type, pc);

    if (!inst.isCsrAccess() && !inst.csr_dynamic)
        return;
    bool reads = isa.csrReadsOldValue(inst);
    bool writes = inst.cls == InstClass::CsrWrite;

    std::uint32_t csr_addr = inst.csr_addr;
    if (inst.csr_dynamic) {
        if (inst.rs1 < state.size() &&
            state[inst.rs1].kind == SymValue::Const) {
            csr_addr = static_cast<std::uint32_t>(state[inst.rs1].v);
        } else {
            if (reads)
                need.unresolved_dynamic_read = true;
            if (writes)
                need.unresolved_dynamic_write = true;
            need.notes.insert(
                "dynamic CSR index at " + hexAddr(pc) +
                " is not a known constant; keeping every configured "
                "register grant for that direction");
            return;
        }
    }
    if (isa.isGridReg(csr_addr))
        return; // separate read/writeGridReg path, domain-0 only
    CsrIndex index = isa.csrBitmapIndex(csr_addr);
    if (index == invalidCsrIndex)
        return; // uncontrolled CSR: outside ISA-Grid's scope

    if (reads)
        need.csr_reads.emplace(index, pc);
    if (writes) {
        need.csr_writes.emplace(index, pc);
        RegVal imm = 0;
        int src = isa.csrWriteSourceReg(inst, imm);
        SymValue operand = src < 0 ? SymValue::makeConst(imm)
                           : (static_cast<unsigned>(src) < state.size()
                                  ? state[src]
                                  : SymValue{});
        CsrIndex mask_index = isa.csrMaskIndex(csr_addr);
        if (mask_index != invalidCsrIndex)
            need.written_bits[mask_index] |=
                changedBits(isa, inst, csr_addr, operand);
    }
}

void
PrivilegeInference::symStep(const DecodedInst &inst, Addr pc,
                            State &state) const
{
    const bool zero_hardwired = isa.name() != "x86";
    auto set = [&](unsigned reg, const SymValue &v) {
        if (reg < state.size() && !(zero_hardwired && reg == 0))
            state[reg] = v;
    };
    auto kill = [&](unsigned reg) { set(reg, SymValue{}); };
    auto cval = [&](unsigned reg) -> const SymValue & {
        static const SymValue unknown;
        return reg < state.size() ? state[reg] : unknown;
    };

    std::string_view m = inst.mnemonic;
    switch (inst.cls) {
      case InstClass::IntAlu:
        if (m == "lui" || m == "movabs") {
            set(inst.rd, SymValue::makeConst(
                             static_cast<RegVal>(inst.imm)));
        } else if (m == "auipc") {
            set(inst.rd, SymValue::makeConst(
                             pc + static_cast<RegVal>(inst.imm)));
        } else if (m == "mov") {
            set(inst.rd, cval(inst.rs1));
        } else if (m == "addi" || m == "addi8" || m == "addi32" ||
                   m == "slli" || m == "shl" || m == "srli" ||
                   m == "shr") {
            const SymValue &a = cval(inst.rs1);
            if (a.kind == SymValue::Const) {
                RegVal r = m[0] == 'a'
                               ? a.v + static_cast<RegVal>(inst.imm)
                               : (m == "slli" || m == "shl"
                                      ? a.v << inst.imm
                                      : a.v >> inst.imm);
                set(inst.rd, SymValue::makeConst(r));
            } else {
                kill(inst.rd);
            }
        } else if (m == "add" || m == "sub" || m == "or" ||
                   m == "and" || m == "xor") {
            const SymValue &a = cval(inst.rs1);
            const SymValue &b = cval(inst.rs2);
            if ((m == "xor" || m == "sub") && inst.rs1 == inst.rs2) {
                set(inst.rd, SymValue::makeConst(0));
            } else if (a.kind == SymValue::Const &&
                       b.kind == SymValue::Const) {
                RegVal r = 0;
                if (m == "add") r = a.v + b.v;
                else if (m == "sub") r = a.v - b.v;
                else if (m == "or") r = a.v | b.v;
                else if (m == "and") r = a.v & b.v;
                else r = a.v ^ b.v;
                set(inst.rd, SymValue::makeConst(r));
            } else if ((m == "or" || m == "and") &&
                       (a.kind == SymValue::CsrRmw ||
                        b.kind == SymValue::CsrRmw) &&
                       (a.kind == SymValue::Const ||
                        b.kind == SymValue::Const)) {
                // The x86 RMW idiom: mov-from-CR, or/and a constant,
                // mov-to-CR. Track which bits the constant can touch.
                const SymValue &rmw =
                    a.kind == SymValue::CsrRmw ? a : b;
                RegVal c = a.kind == SymValue::Const ? a.v : b.v;
                SymValue out = rmw;
                if (m == "or") {
                    out.set |= c;
                    out.clear &= ~c;
                } else {
                    out.clear |= ~c;
                    out.set &= c;
                }
                set(inst.rd, out);
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
        kill(inst.rd);
        break;
      case InstClass::CsrRead:
      case InstClass::CsrWrite: {
        if (!isa.csrReadsOldValue(inst))
            break;
        std::uint32_t csr_addr = inst.csr_addr;
        if (inst.csr_dynamic) {
            const SymValue &idx = cval(inst.rs1);
            csr_addr = idx.kind == SymValue::Const
                           ? static_cast<std::uint32_t>(idx.v)
                           : ~0u;
        }
        if (csr_addr != ~0u && !isa.isGridReg(csr_addr))
            set(inst.rd, SymValue::makeCsr(csr_addr));
        else
            kill(inst.rd);
        break;
      }
      case InstClass::SysOther:
        if (m == "cpuid")
            for (unsigned r = 0; r < 4 && r < state.size(); ++r)
                kill(r); // RAX..RDX
        break;
      case InstClass::Jump:
        kill(inst.rd); // link register
        break;
      case InstClass::Syscall:
        // The trap handler runs (and may clobber anything) before
        // control falls through to the next instruction.
        for (unsigned r = 0; r < state.size(); ++r)
            kill(r);
        break;
      default:
        break;
    }
}

} // namespace isagrid
