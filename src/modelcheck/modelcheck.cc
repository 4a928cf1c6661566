#include "modelcheck/modelcheck.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <tuple>

#include "isa/disasm.hh"
#include "isa/state.hh"
#include "isagrid/sgt.hh"
#include "kernel/asm_iface.hh"
#include "modelcheck/explorer.hh"
#include "verify/report_common.hh"

namespace isagrid {

namespace {

const char *
kindName(TraceStep::Kind kind)
{
    switch (kind) {
      case TraceStep::Kind::GateCall: return "hccall";
      case TraceStep::Kind::GateCallS: return "hccalls";
      case TraceStep::Kind::GateRet: return "hcrets";
      case TraceStep::Kind::CsrWrite: return "csr-write";
      case TraceStep::Kind::Inst: return "inst";
      case TraceStep::Kind::Store: return "store";
    }
    return "?";
}

/** A bit-maskable CSR and its Section 4.1 indices. */
struct MaskableCsr
{
    std::uint32_t addr = 0;
    CsrIndex bitmap_index = invalidCsrIndex;
    CsrIndex mask_index = invalidCsrIndex;
};

} // namespace

std::size_t
McResult::violations() const
{
    std::size_t n = 0;
    for (const auto &f : findings)
        n += f.severity == Severity::Violation;
    return n;
}

std::size_t
McResult::warnings() const
{
    std::size_t n = 0;
    for (const auto &f : findings)
        n += f.severity == Severity::Warning;
    return n;
}

std::string
McResult::text() const
{
    std::string out;
    for (const auto &f : findings) {
        out += severityName(f.severity);
        out += ' ';
        out += f.check;
        out += " domain=" + std::to_string(f.domain);
        out += " addr=" + hexAddr(f.addr);
        out += ": " + f.message + "\n";
        for (const auto &s : f.trace) {
            out += "    ";
            out += kindName(s.kind);
            if (s.in_image || s.pc != 0)
                out += " pc=" + hexAddr(s.pc);
            if (s.kind == TraceStep::Kind::GateCall ||
                s.kind == TraceStep::Kind::GateCallS)
                out += " gate=" + std::to_string(s.gate);
            if (s.csr_addr != ~0u)
                out += " csr=" + hexAddr(s.csr_addr);
            if (s.kind == TraceStep::Kind::CsrWrite)
                out += " flip=" + hexAddr(s.flip);
            if (s.kind == TraceStep::Kind::Store && !s.in_image) {
                out += " [" + hexAddr(s.store_addr) +
                       "]=" + hexAddr(s.store_value);
            }
            if (s.domain_before != s.domain_after) {
                out += " d" + std::to_string(s.domain_before) + "->d" +
                       std::to_string(s.domain_after);
            }
            out += s.expect == FaultType::None
                       ? std::string(" => ok")
                       : std::string(" => ") + faultName(s.expect);
            if (!s.note.empty())
                out += "  (" + s.note + ")";
            out += "\n";
        }
    }
    out += std::to_string(violations()) + " violations, " +
           std::to_string(warnings()) + " warnings; " +
           std::to_string(stats.states) + " states, " +
           std::to_string(stats.transitions) + " transitions, depth " +
           std::to_string(stats.depth_reached);
    if (stats.state_cap_hit)
        out += " (state cap hit)";
    out += "\n";
    return out;
}

std::string
McResult::json() const
{
    std::string out = "{";
    out += "\"violations\":" + std::to_string(violations());
    out += ",\"warnings\":" + std::to_string(warnings());
    // Structured per-severity summary, matching the isagrid-verify
    // report contract (minus lints, which the checker has none of).
    out += ',';
    appendSummaryObject(out,
                        {{"violations", violations()},
                         {"warnings", warnings()},
                         {"total", violations() + warnings()},
                         {"recorded", findings.size()}});
    out += ",\"stats\":{";
    out += "\"states\":" + std::to_string(stats.states);
    out += ",\"transitions\":" + std::to_string(stats.transitions);
    out += ",\"peak_frontier\":" + std::to_string(stats.peak_frontier);
    out += ",\"depth_reached\":" + std::to_string(stats.depth_reached);
    out += ",\"state_cap_hit\":";
    out += stats.state_cap_hit ? "true" : "false";
    out += ",\"domains_scanned\":" + std::to_string(stats.domains_scanned);
    out += "}";
    out += ",\"findings\":[";
    bool first = true;
    for (const auto &f : findings) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"severity\":\"";
        out += severityName(f.severity);
        out += "\",\"check\":\"";
        jsonEscape(out, f.check);
        out += "\",\"domain\":" + std::to_string(f.domain);
        out += ",\"addr\":\"" + hexAddr(f.addr) + "\"";
        out += ",\"message\":\"";
        jsonEscape(out, f.message);
        out += "\",\"trace\":[";
        bool first_step = true;
        for (const auto &s : f.trace) {
            if (!first_step)
                out += ',';
            first_step = false;
            out += "{\"kind\":\"";
            out += kindName(s.kind);
            out += "\",\"pc\":\"" + hexAddr(s.pc) + "\"";
            if (s.kind == TraceStep::Kind::GateCall ||
                s.kind == TraceStep::Kind::GateCallS)
                out += ",\"gate\":" + std::to_string(s.gate);
            if (s.csr_addr != ~0u) {
                out += ",\"csr\":\"" + hexAddr(s.csr_addr) + "\"";
                out += ",\"flip\":\"" + hexAddr(s.flip) + "\"";
            }
            out += ",\"domain_before\":" + std::to_string(s.domain_before);
            out += ",\"domain_after\":" + std::to_string(s.domain_after);
            out += ",\"expect\":\"";
            out += s.expect == FaultType::None ? "ok"
                                               : faultName(s.expect);
            out += "\"}";
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

/** All checker state and logic (kept out of the public header). */
struct ModelChecker::Impl
{
    const IsaModel &isa;
    const PhysMem &mem;
    std::vector<CodeRegion> regions;
    DomainId initialDomain;
    McOptions options;

    SwitchImage image;
    const PolicyView &policy;
    ArchState probe; //!< reset CSR file: which addresses exist

    /**
     * Maskable CSR m owns abstraction words 2m (`known`: bits still
     * guaranteed to hold their boot value) and 2m + 1 (`dirty`: bits
     * possibly flipped through bit-mask, not full-write, grants).
     */
    std::vector<MaskableCsr> maskables;
    std::map<Addr, GateId> gateAt; //!< registered gate addresses

    /**
     * Instruction types the replay stub executes for synthesized
     * CsrWrite steps (per maskable CSR) and for synthesized Store
     * steps. The PCU checks the instruction-type bitmap before every
     * gate/CSR/memory check, so a domain whose grants miss any stub
     * type inst-privilege-faults instead of performing the modelled
     * operation — the checker must not synthesize such a transition,
     * or its trace has no executable witness.
     */
    std::vector<std::vector<InstTypeId>> csrStubTypes;
    std::vector<InstTypeId> storeStubTypes;

    Explorer ex;
    McResult res;
    std::set<DomainId> scannedDomains;
    std::set<std::tuple<std::string, DomainId, Addr>> reported;
    std::map<const CodeRegion *, std::set<Addr>> boundaryCache;

    Impl(const IsaModel &isa, const PhysMem &mem,
         const PolicySnapshot &snapshot, std::vector<CodeRegion> regions,
         DomainId initial_domain, const McOptions &options)
        : isa(isa), mem(mem), regions(std::move(regions)),
          initialDomain(initial_domain),
          options(options), image(isa, mem, snapshot, this->regions),
          policy(image.policy),
          ex(image, options.max_states, options.depth_bound)
    {
        probe.zero_reg_hardwired = isa.name() != "x86";
        isa.initState(probe);

        for (std::uint32_t addr : isa.controlledCsrAddrs()) {
            CsrIndex mi = isa.csrMaskIndex(addr);
            if (mi == invalidCsrIndex)
                continue;
            maskables.push_back({addr, isa.csrBitmapIndex(addr), mi});
        }
        for (const MaskableCsr &mc : maskables) {
            csrStubTypes.push_back(
                stubTypes([&mc](AsmIface &a, RegVal v) {
                    a.li(a.regArg(3), v);
                    a.csrWrite(mc.addr, a.regArg(3));
                }));
        }
        storeStubTypes = stubTypes([](AsmIface &a, RegVal v) {
            a.li(a.regTmp(0), v);
            a.li(a.regTmp(1), v);
            a.store64(a.regTmp(1), a.regTmp(0), 0);
        });

        for (GateId id = 0; id < image.gates.size(); ++id) {
            const Verdict &call = image.gates[id].call;
            if (call.fault != FaultType::MemoryFault)
                gateAt.emplace(call.entry.gate_addr, id);
        }
    }

    /**
     * Decode the instruction types one replay stub executes. The body
     * is assembled twice — with a small and a full-width literal — so
     * every load-immediate expansion the assembler might pick for the
     * runtime value is covered, followed by the li+halt tail every
     * stub shares (replay.cc).
     */
    std::vector<InstTypeId>
    stubTypes(const std::function<void(AsmIface &, RegVal)> &body) const
    {
        std::vector<InstTypeId> types;
        for (RegVal v : {RegVal{0x5a}, ~(RegVal{0x5a} << 33)}) {
            auto asm_ = isa.name() == "x86" ? makeX86Asm(0x100)
                                            : makeRiscvAsm(0x100);
            body(*asm_, v);
            asm_->li(asm_->regTmp(2), 0x5a);
            asm_->halt(asm_->regTmp(2));
            PhysMem scratch(0x1000);
            asm_->loadInto(scratch);
            for (Addr pc = 0x100; pc < asm_->here();) {
                DecodedInst di = decodeAt(isa, scratch, pc);
                if (!di.valid || di.length == 0)
                    break;
                if (di.type != invalidInstType)
                    types.push_back(di.type);
                pc += di.length;
            }
        }
        std::sort(types.begin(), types.end());
        types.erase(std::unique(types.begin(), types.end()),
                    types.end());
        return types;
    }

    bool
    stubAllowed(DomainId d, const std::vector<InstTypeId> &types) const
    {
        for (InstTypeId t : types) {
            if (!policy.inst(d, t).allowed())
                return false;
        }
        return true;
    }

    /** The PCU's fault for an instruction of @p type in domain @p d. */
    FaultType
    typeFault(DomainId d, InstTypeId type) const
    {
        return type == invalidInstType ? FaultType::None
                                       : policy.inst(d, type).fault;
    }

    DomainId numDomains() const { return policy.numDomains(); }

    bool
    stackInsideTmem() const
    {
        RegVal base = policy.reg(GridReg::Hcsb);
        RegVal limit = policy.reg(GridReg::Hcsl);
        RegVal tb = policy.reg(GridReg::Tmemb);
        RegVal tl = policy.reg(GridReg::Tmeml);
        if (limit <= base)
            return true; // no stack storage to forge
        return tl > tb && base >= tb && limit <= tl;
    }

    bool
    inTmem(Addr addr, std::size_t size) const
    {
        RegVal tb = policy.reg(GridReg::Tmemb);
        RegVal tl = policy.reg(GridReg::Tmeml);
        return tl > tb && addr + size > tb && addr < tl;
    }

    const CodeRegion *
    regionOf(Addr addr) const
    {
        for (const auto &r : regions)
            if (r.contains(addr))
                return &r;
        return nullptr;
    }

    const std::set<Addr> &
    boundariesOf(const CodeRegion &region)
    {
        auto it = boundaryCache.find(&region);
        if (it != boundaryCache.end())
            return it->second;
        std::set<Addr> &b = boundaryCache[&region];
        walkRegion(isa, mem, region,
                   [&b](const ScanStep &step) { b.insert(step.pc); });
        return b;
    }

    // --- findings ---

    void
    addFinding(Severity severity, std::string check, DomainId domain,
               Addr addr, std::string message, std::vector<TraceStep> trace)
    {
        if (!reported.emplace(check, domain, addr).second)
            return;
        if (res.findings.size() >= options.max_violations)
            return;
        res.findings.push_back({severity, std::move(check), domain, addr,
                                std::move(message), std::move(trace)});
    }

    /** Register seeds from the constant window of a scanned site. */
    static std::vector<std::pair<unsigned, RegVal>>
    seedsFor(const DecodedInst &inst, const ConstTracker &consts)
    {
        std::vector<std::pair<unsigned, RegVal>> seed;
        std::set<unsigned> regs{inst.rs1, inst.rs2};
        for (unsigned r : regs) {
            if (auto v = consts.value(r))
                seed.emplace_back(r, *v);
        }
        return seed;
    }

    // --- Explorer hooks: properties of the reachable states ---

    /** State-dependent property checks + first-reach domain scan. */
    void
    discovered(std::uint32_t id)
    {
        const DomainId d = ex.domain(id);
        if (scannedDomains.insert(d).second) {
            ++res.stats.domains_scanned;
            for (const auto &region : regions) {
                if (region.domain == d)
                    scanRegion(region, id);
            }
        }

        if (d == 0)
            return;
        const Addr *ret_pc = image.retSite(d);
        if (ret_pc == nullptr)
            return;
        const std::size_t frames = ex.frames(id);

        // Trusted-stack unforgeability: an hcrets site reachable with
        // an empty stack (the PCU underflow-faults, blocking the
        // ROP-style return).
        if (frames == 0) {
            std::vector<TraceStep> trace = ex.pathTo(id);
            TraceStep step;
            step.kind = TraceStep::Kind::GateRet;
            step.pc = *ret_pc;
            step.in_image = true;
            step.expect = FaultType::TrustedStackFault;
            step.domain_before = d;
            step.domain_after = d;
            step.note = "hcrets with no frame to pop";
            trace.push_back(std::move(step));
            addFinding(Severity::Violation, "mc-ret-underflow", d,
                       *ret_pc,
                       "hcrets reachable with an empty trusted "
                       "stack: an attacker-driven return has no "
                       "legitimate frame and must underflow-fault",
                       std::move(trace));
            return;
        }

        // Trusted-stack storage outside trusted memory: any domain in
        // an extended call can rewrite its own return frame and land
        // in an arbitrary (domain, pc).
        if (stackInsideTmem() || !stubAllowed(d, storeStubTypes))
            return;
        // Forge a return into the highest other non-zero domain.
        const DomainId n = numDomains();
        if (n <= 1)
            return;
        const DomainId forged = n - 1 != d ? n - 1 : n > 2 ? n - 2 : d;
        Addr frame = policy.reg(GridReg::Hcsb) + 16 * (frames - 1);
        Addr target = *ret_pc;
        for (const auto &r : regions) {
            if (r.domain == forged) {
                target = r.base;
                break;
            }
        }
        std::vector<TraceStep> trace = ex.pathTo(id);
        TraceStep st;
        st.kind = TraceStep::Kind::Store;
        st.store_addr = frame;
        st.store_value = target;
        st.domain_before = st.domain_after = d;
        st.note = "forge frame return_pc";
        trace.push_back(st);
        st.store_addr = frame + 8;
        st.store_value = forged;
        st.note = "forge frame source domain";
        trace.push_back(st);
        TraceStep ret;
        ret.kind = TraceStep::Kind::GateRet;
        ret.pc = *ret_pc;
        ret.in_image = true;
        ret.domain_before = d;
        ret.domain_after = forged;
        ret.note = "pop the forged frame";
        trace.push_back(ret);
        addFinding(Severity::Violation, "mc-stack-forge", d, frame,
                   "trusted-stack storage lies outside trusted "
                   "memory: domain " + std::to_string(d) +
                       " overwrites its return frame and "
                       "hcrets into domain " + std::to_string(forged) +
                       " at an arbitrary address",
                   std::move(trace));
    }

    /** An SGT entry whose raw dest_domain names no configured domain. */
    void
    gateFault(std::uint32_t from, GateId gid)
    {
        const DomainId d = ex.domain(from);
        const GateInfo &gate = image.gates[gid];
        const SgtEntry &entry = gate.call.entry;
        TraceStep step = ex.gateStep(gid, d, d);
        step.expect = gate.call.fault;
        step.note = "dest_domain word out of range";
        std::vector<TraceStep> trace = ex.pathTo(from);
        trace.push_back(std::move(step));
        addFinding(Severity::Violation, "mc-gate-dest-domain", d,
                   entry.gate_addr,
                   "SGT entry " + std::to_string(gid) +
                       " holds raw dest_domain " +
                       std::to_string(entry.dest_domain) + " with only " +
                       std::to_string(numDomains()) +
                       " domains configured: the PCU must gate-fault "
                       "instead of switching into an unconfigured "
                       "domain",
                   std::move(trace));
    }

    /** Domain-0 escalation: a gate from a non-zero domain into 0. */
    void
    gateEntered(std::uint32_t from, GateId gid, DomainId dest)
    {
        const DomainId d = ex.domain(from);
        if (dest != 0 || d == 0)
            return;
        Severity sev = options.domain0_entry_violation ? Severity::Violation
                                                       : Severity::Warning;
        std::vector<TraceStep> trace = ex.pathTo(from);
        trace.push_back(ex.gateStep(gid, d, dest));
        addFinding(sev, "mc-domain0-entry", d,
                   image.gates[gid].call.entry.gate_addr,
                   "gate " + std::to_string(gid) +
                       " hands domain-0 privileges to any "
                       "domain that executes it — legitimate "
                       "only for trusted-stack management paths",
                   std::move(trace));
    }

    /** Bit-maskable CSR writes the policy permits. */
    void
    expand(std::uint32_t id)
    {
        const DomainId d = ex.domain(id);
        if (d == 0)
            return;
        for (std::size_t m = 0; m < maskables.size(); ++m) {
            const MaskableCsr &mc = maskables[m];
            if (!stubAllowed(d, csrStubTypes[m])) {
                // The write instruction's own type (or the li feeding
                // it) is revoked for this domain: the PCU
                // inst-privilege-faults before the CSR check, so no
                // write of any kind can happen.
                continue;
            }
            const Verdict write =
                policy.csrWrite(d, mc.bitmap_index, mc.mask_index);
            if (write.allowed()) {
                // Authorized full write: the value is no longer the
                // boot value, but no mask composition is involved.
                ex.successor(id)[2 * m] = 0;
                ex.follow(*this, id, [&] {
                    TraceStep step;
                    step.kind = TraceStep::Kind::CsrWrite;
                    step.csr_addr = mc.addr;
                    step.flip = 0;
                    step.domain_before = step.domain_after = d;
                    step.note = "full write privilege";
                    return step;
                });
                continue;
            }
            if (!write.maskDecides() || write.mask == 0)
                continue; // every write faults
            const RegVal mask = write.mask;
            RegVal *succ = ex.successor(id);
            succ[2 * m] &= ~mask;
            succ[2 * m + 1] |= mask;
            const RegVal dirty = succ[2 * m + 1];
            const RegVal escaped = dirty & ~mask;
            std::uint32_t succ_id = ex.follow(*this, id, [&] {
                TraceStep step;
                step.kind = TraceStep::Kind::CsrWrite;
                step.csr_addr = mc.addr;
                step.flip = mask;
                step.masked = true;
                step.domain_before = step.domain_after = d;
                step.note = "bit-mask write, mask " + hexAddr(mask);
                return step;
            });
            if (escaped != 0 && succ_id != Explorer::none) {
                // Write-composition escalation: the chain of masked
                // writes flips bits the final writer's own mask does
                // not cover — a combined change no single domain was
                // granted.
                addFinding(Severity::Violation, "mc-mask-composition", d,
                           mc.addr,
                           "masked writes compose across domains: CSR " +
                               hexAddr(mc.addr) + " accumulates flips " +
                               hexAddr(dirty) + " of which " +
                               hexAddr(escaped) +
                               " exceed the final writer's mask " +
                               hexAddr(mask),
                           ex.pathTo(succ_id));
            }
        }
    }

    // --- first-reach code scan (site findings) ---

    /**
     * Emit a finding for a site instruction: @p extra steps follow the
     * reach-path (the last step carries the expected fault).
     */
    void
    siteFinding(std::uint32_t node, Severity severity,
                std::string check, DomainId domain, Addr addr,
                std::string message, std::vector<TraceStep> extra)
    {
        std::vector<TraceStep> trace = ex.pathTo(node);
        for (auto &s : extra)
            trace.push_back(std::move(s));
        addFinding(severity, std::move(check), domain, addr,
                   std::move(message), std::move(trace));
    }

    TraceStep
    instStep(Addr pc, DomainId d, FaultType expect,
             const DecodedInst &inst, const ConstTracker &consts,
             std::string note = {})
    {
        TraceStep step;
        step.kind = TraceStep::Kind::Inst;
        step.pc = pc;
        step.in_image = true;
        step.expect = expect;
        step.domain_before = step.domain_after = d;
        step.seed = seedsFor(inst, consts);
        step.note = std::move(note);
        return step;
    }

    void
    scanRegion(const CodeRegion &region, std::uint32_t node)
    {
        const DomainId d = region.domain;
        // Runtime code injection: byte stores to addresses outside
        // every code region, replayed before jump-target analysis.
        std::map<Addr, std::uint8_t> injected;
        std::map<Addr, TraceStep> injectors; //!< store site per byte

        auto visit = [&](const ScanStep &step) {
            const DecodedInst &inst = *step.inst;
            const ConstTracker &consts = *step.consts;
            const Addr pc = step.pc;

            if (inst.cls == InstClass::GateRet)
                return; // modelled as transitions, not site findings
            if (d == 0)
                return; // domain-0 passes every PCU check

            // First failing check, in stepOne() order: instruction
            // bitmap, then gates, then CSR access, then memory.
            if (FaultType fault = typeFault(d, inst.type);
                fault != FaultType::None) {
                siteFinding(node, Severity::Violation, "mc-inst-privilege",
                            d, pc,
                            std::string(inst.mnemonic) + " (type " +
                                std::to_string(inst.type) +
                                (fault == FaultType::MemoryFault
                                     ? ") is checked against an "
                                       "instruction bitmap outside "
                                       "physical memory"
                                     : ") is denied by the domain's "
                                       "instruction bitmap"),
                            {instStep(pc, d, fault, inst, consts)});
                return;
            }

            if (inst.cls == InstClass::GateCall ||
                inst.cls == InstClass::GateCallS) {
                scanGateSite(node, d, pc, inst, consts);
                return;
            }

            if (inst.cls == InstClass::CsrRead ||
                inst.cls == InstClass::CsrWrite) {
                scanCsrSite(node, d, pc, inst, consts);
                return;
            }

            if (inst.cls == InstClass::Store ||
                inst.cls == InstClass::Load) {
                scanMemSite(node, d, pc, inst, consts, injected,
                            injectors);
                return;
            }

            if (inst.cls == InstClass::Jump) {
                if (auto target = jumpTarget(inst, consts, pc)) {
                    scanJumpTarget(node, d, pc, inst, consts,
                                   *target, injected, injectors);
                }
            }
        };
        walkRegion(isa, mem, region, visit);
    }

    void
    scanGateSite(std::uint32_t node, DomainId d, Addr pc,
                 const DecodedInst &inst, const ConstTracker &consts)
    {
        auto reg_id = consts.value(inst.rs1);
        auto at = gateAt.find(pc);
        if (at != gateAt.end()) {
            if (!reg_id || *reg_id == at->second)
                return; // a modelled, registered gate edge
            TraceStep step = instStep(
                pc, d, policy.gateCall(*reg_id, pc).fault, inst, consts);
            siteFinding(node, Severity::Violation,
                        "mc-gate-id-mismatch", d, pc,
                        "gate id " + std::to_string(*reg_id) +
                            " does not name the SGT entry registered "
                            "for this address",
                        {std::move(step)});
            return;
        }
        // Unregistered gate address: property (i) faults it for every
        // id — in range (gate_addr mismatch) or out of range.
        TraceStep step =
            instStep(pc, d, policy.gateCall(reg_id.value_or(0), pc).fault,
                     inst, consts);
        if (!reg_id)
            step.seed.emplace_back(inst.rs1, 0);
        if (reg_id && *reg_id >= policy.numGates()) {
            siteFinding(node, Severity::Violation,
                        "mc-gate-id-range", d, pc,
                        "gate id " + std::to_string(*reg_id) +
                            " out of range (gatenr " +
                            std::to_string(policy.numGates()) + ")",
                        {std::move(step)});
        } else {
            siteFinding(node, Severity::Violation, "mc-gate-forged",
                        d, pc,
                        std::string(inst.mnemonic) +
                            " at an address registered in no SGT "
                            "entry: a forged gate the PCU must fault",
                        {std::move(step)});
        }
    }

    void
    scanCsrSite(std::uint32_t node, DomainId d, Addr pc,
                const DecodedInst &inst, const ConstTracker &consts)
    {
        std::uint32_t csr = inst.csr_addr;
        if (csr == ~0u && inst.csr_dynamic) {
            if (auto v = consts.value(inst.rs1))
                csr = static_cast<std::uint32_t>(*v);
        }
        const bool is_write = inst.cls == InstClass::CsrWrite;
        if (csr == ~0u) {
            siteFinding(node, Severity::Warning, "mc-csr-unresolved", d, pc,
                        std::string(inst.mnemonic) +
                            " accesses a CSR whose address could not "
                            "be resolved statically",
                        {});
            return;
        }
        if (isa.isGridReg(csr)) {
            GridReg gr = isa.gridRegId(csr);
            const FaultType fault = rules::gridReg(d, gr, is_write).fault;
            if (fault == FaultType::None)
                return;
            siteFinding(node, Severity::Violation, "mc-grid-reg", d, pc,
                        std::string(inst.mnemonic) +
                            (is_write ? " writes" : " reads") +
                            " ISA-Grid register " + gridRegName(gr) +
                            " outside domain-0",
                        {instStep(pc, d, fault, inst, consts)});
            return;
        }
        if (!probe.csrs.exists(csr))
            return; // undefined CSR: faults natively, not ISA-Grid
        // A register-bitmap or bit-mask walk off the bus faults in
        // place of the check's verdict.
        const CsrIndex index = isa.csrBitmapIndex(csr);
        const Verdict v =
            is_write ? policy.csrWrite(d, index, isa.csrMaskIndex(csr))
                     : policy.csrRead(d, index);
        if (v.allowed())
            return; // granted, or an uncontrolled CSR
        if (!v.masked) {
            siteFinding(node, Severity::Violation,
                        is_write ? "mc-csr-write" : "mc-csr-read", d, pc,
                        std::string(inst.mnemonic) +
                            (is_write ? " writes CSR " : " reads CSR ") +
                            hexAddr(csr) +
                            (v.fault == FaultType::MemoryFault
                                 ? " from a register bitmap outside "
                                   "physical memory"
                             : is_write ? " without the write bit"
                                        : " without the read bit"),
                        {instStep(pc, d, v.fault, inst, consts)});
            return;
        }
        if (v.fault == FaultType::MemoryFault) {
            siteFinding(node, Severity::Violation, "mc-csr-mask", d, pc,
                        std::string(inst.mnemonic) + " writes bit-maskable "
                            "CSR " + hexAddr(csr) + " through a bit-mask "
                            "outside physical memory",
                        {instStep(pc, d, v.fault, inst, consts)});
        } else if (v.mask == 0) {
            siteFinding(node, Severity::Violation, "mc-csr-mask", d, pc,
                        std::string(inst.mnemonic) + " writes bit-maskable "
                            "CSR " + hexAddr(csr) + " with an all-zero "
                            "mask: any change to the value is rejected",
                        {instStep(pc, d, v.write(0, ~RegVal{0}), inst,
                                  consts, "bit-mask equation rejects")});
        }
        // mask != 0: legality depends on the live CSR value — the
        // masked-write transitions model the permitted outcomes.
    }

    void
    scanMemSite(std::uint32_t node, DomainId d, Addr pc,
                const DecodedInst &inst, const ConstTracker &consts,
                std::map<Addr, std::uint8_t> &injected,
                std::map<Addr, TraceStep> &injectors)
    {
        // Address = base register + displacement for both ISAs' plain
        // load/store forms; push/pop use implied rsp addressing the
        // constant window does not model.
        std::string_view m = inst.mnemonic;
        if (m == "push" || m == "pop")
            return;
        auto base = consts.value(inst.rs1);
        if (!base)
            return;
        Addr addr = *base + static_cast<RegVal>(inst.imm);
        const bool is_store = inst.cls == InstClass::Store;
        // x86 stashes the access size in subop; RISC-V stashes funct3
        // (log2 size in its low bits).
        std::size_t size = isa.name() == "x86"
                               ? inst.subop
                               : std::size_t{1} << (inst.subop & 3);
        if (size == 0 || size > 8)
            size = 8;
        if (inTmem(addr, size)) {
            siteFinding(node, Severity::Violation, "mc-tmem-access", d, pc,
                        std::string(inst.mnemonic) +
                            (is_store ? " stores into" : " loads from") +
                            " trusted memory at " + hexAddr(addr),
                        {instStep(pc, d, FaultType::TrustedMemoryViolation,
                                  inst, consts)});
            return;
        }
        if (!is_store || regionOf(addr) != nullptr)
            return;
        // A store to fresh memory with a known value: runtime code
        // injection material. Track the written bytes so jump-target
        // analysis decodes what the attacker actually planted.
        auto value = consts.value(inst.rs2);
        if (!value)
            return;
        TraceStep step = instStep(pc, d, FaultType::None, inst, consts,
                                  "plant injected bytes");
        step.kind = TraceStep::Kind::Store;
        for (std::size_t i = 0; i < size; ++i) {
            injected[addr + i] = std::uint8_t(*value >> (8 * i));
            injectors[addr + i] = step;
        }
    }

    std::optional<Addr>
    jumpTarget(const DecodedInst &inst, const ConstTracker &consts,
               Addr pc) const
    {
        std::string_view m = inst.mnemonic;
        if (m == "jal")
            return pc + static_cast<RegVal>(inst.imm);
        if (m == "jmp8" || m == "jmp32" || m == "call")
            return pc + inst.length + static_cast<RegVal>(inst.imm);
        if (m == "jalr") {
            if (auto v = consts.value(inst.rs1))
                return (*v + static_cast<RegVal>(inst.imm)) & ~Addr{1};
            return std::nullopt;
        }
        if (m == "jmpr" || m == "callr") {
            if (auto v = consts.value(inst.rs1))
                return *v;
            return std::nullopt;
        }
        return std::nullopt;
    }

    void
    scanJumpTarget(std::uint32_t node, DomainId d,
                   Addr pc, const DecodedInst &inst,
                   const ConstTracker &consts, Addr target,
                   const std::map<Addr, std::uint8_t> &injected,
                   const std::map<Addr, TraceStep> &injectors)
    {
        TraceStep jump = instStep(pc, d, FaultType::None, inst, consts,
                                  "transfer to " + hexAddr(target));

        // An x86 call pushes the return address before transferring:
        // with an unknown stack pointer the push lands anywhere (and
        // may genuinely fault), so a "clean" jump step only has an
        // executable witness when the stack slot is known and safe.
        std::string_view mn = inst.mnemonic;
        if (isa.name() == "x86" && (mn == "call" || mn == "callr")) {
            constexpr unsigned rsp = 4;
            auto sp = consts.value(rsp);
            if (!sp)
                return;
            Addr slot = *sp - 8;
            RegVal tb = policy.reg(GridReg::Tmemb);
            RegVal tl = policy.reg(GridReg::Tmeml);
            bool in_tmem = tl > tb && slot < tl && slot + 8 > tb;
            if (slot >= mem.size() || mem.size() - slot < 8 || in_tmem)
                return;
            jump.seed.emplace_back(rsp, *sp);
        }

        const CodeRegion *r = regionOf(target);
        if (r != nullptr) {
            if (boundariesOf(*r).count(target))
                return; // lands on a real instruction: modelled as code
            hiddenInstFinding(node, d, pc, target, std::move(jump));
            return;
        }

        // Outside every region: decode what is (or was planted) there.
        if (target >= mem.size()) {
            jump.note = "jump beyond physical memory";
            TraceStep land;
            land.kind = TraceStep::Kind::Inst;
            land.pc = target;
            land.in_image = true;
            land.expect = FaultType::MemoryFault;
            land.domain_before = land.domain_after = d;
            siteFinding(node, Severity::Violation,
                        "mc-jump-outside", d, pc,
                        "control transfer to " + hexAddr(target) +
                            ", beyond physical memory",
                        {std::move(jump), std::move(land)});
            return;
        }
        std::uint8_t buf[16] = {};
        std::size_t avail =
            std::min<std::size_t>(isa.maxInstBytes(),
                                  mem.size() - target);
        mem.readBlock(target, buf, avail);
        std::vector<TraceStep> plant;
        std::set<Addr> used;
        for (std::size_t i = 0; i < avail; ++i) {
            auto it = injected.find(target + i);
            if (it == injected.end())
                continue;
            buf[i] = it->second;
            const TraceStep &site = injectors.at(target + i);
            if (used.insert(site.pc).second)
                plant.push_back(site);
        }
        DecodedInst hidden = isa.decode(buf, avail, target);
        std::vector<TraceStep> extra = std::move(plant);
        if (!hidden.valid) {
            extra.push_back(jump);
            TraceStep land;
            land.kind = TraceStep::Kind::Inst;
            land.pc = target;
            land.in_image = true;
            land.expect = FaultType::IllegalInstruction;
            land.domain_before = land.domain_after = d;
            extra.push_back(std::move(land));
            siteFinding(node, Severity::Violation,
                        "mc-jump-outside", d, pc,
                        "control transfer to " + hexAddr(target) +
                            ", outside every known code region "
                            "(undecodable bytes)",
                        std::move(extra));
            return;
        }
        if (hidden.cls == InstClass::GateCall ||
            hidden.cls == InstClass::GateCallS) {
            // Dynamically injected gate: its address matches no SGT
            // entry, so property (i) faults it — unless the domain's
            // instruction bitmap already denies the gate instruction
            // itself, which the PCU checks first.
            const FaultType inst_fault = typeFault(d, hidden.type);
            const bool denied = inst_fault != FaultType::None;
            extra.push_back(jump);
            TraceStep gate;
            gate.kind = hidden.cls == InstClass::GateCallS
                            ? TraceStep::Kind::GateCallS
                            : TraceStep::Kind::GateCall;
            gate.pc = target;
            gate.in_image = true;
            RegVal id = 0;
            if (auto v = consts.value(hidden.rs1))
                id = *v;
            gate.expect = denied ? inst_fault
                                 : policy.gateCall(GateId(id), target).fault;
            gate.domain_before = gate.domain_after = d;
            gate.gate = GateId(id);
            gate.seed.emplace_back(hidden.rs1, id);
            gate.note = "injected gate at an unregistered address";
            extra.push_back(std::move(gate));
            siteFinding(node, Severity::Violation,
                        "mc-injected-gate", d, pc,
                        "runtime-written " +
                            std::string(hidden.mnemonic) + " at " +
                            hexAddr(target) +
                            (denied ? " is denied by the domain's "
                                      "instruction bitmap: the PCU "
                                      "must inst-privilege-fault the "
                                      "injected switch"
                                    : " is registered in no SGT "
                                      "entry: the PCU must gate-fault "
                                      "the injected switch"),
                        std::move(extra));
            return;
        }
        if (FaultType fault = typeFault(d, hidden.type);
            fault != FaultType::None) {
            extra.push_back(jump);
            TraceStep land;
            land.kind = TraceStep::Kind::Inst;
            land.pc = target;
            land.in_image = true;
            land.expect = fault;
            land.domain_before = land.domain_after = d;
            extra.push_back(std::move(land));
            siteFinding(node, Severity::Violation,
                        "mc-jump-outside", d, pc,
                        "control transfer to denied " +
                            std::string(hidden.mnemonic) + " at " +
                            hexAddr(target) +
                            ", outside every known code region",
                        std::move(extra));
        }
    }

    /** A transfer into a non-boundary offset of a known region. */
    void
    hiddenInstFinding(std::uint32_t node, DomainId d,
                      Addr pc, Addr target, TraceStep jump)
    {
        std::uint8_t buf[16] = {};
        std::size_t avail =
            std::min<std::size_t>(isa.maxInstBytes(),
                                  mem.size() - target);
        mem.readBlock(target, buf, avail);
        DecodedInst hidden = isa.decode(buf, avail, target);
        TraceStep land;
        land.kind = TraceStep::Kind::Inst;
        land.pc = target;
        land.in_image = true;
        land.domain_before = land.domain_after = d;
        if (!hidden.valid) {
            land.expect = FaultType::IllegalInstruction;
            siteFinding(node, Severity::Violation,
                        "mc-hidden-inst", d, pc,
                        "control transfer to " + hexAddr(target) +
                            ", a non-boundary offset holding "
                            "undecodable bytes",
                        {std::move(jump), std::move(land)});
            return;
        }
        if (FaultType fault = typeFault(d, hidden.type);
            fault != FaultType::None) {
            land.expect = fault;
            land.note = std::string("unintended ") + hidden.mnemonic;
            siteFinding(node, Severity::Violation,
                        "mc-hidden-inst", d, pc,
                        "control transfer to unintended " +
                            std::string(hidden.mnemonic) + " at " +
                            hexAddr(target) +
                            " (non-boundary offset): the instruction "
                            "bitmap must reject it",
                        {std::move(jump), std::move(land)});
            return;
        }
        if (hidden.cls == InstClass::GateCall ||
            hidden.cls == InstClass::GateCallS ||
            hidden.cls == InstClass::GateRet) {
            siteFinding(node, Severity::Warning, "mc-hidden-gate",
                        d, pc,
                        "control transfer to an unintended " +
                            std::string(hidden.mnemonic) + " at " +
                            hexAddr(target) +
                            " (ERIM-style occurrence)",
                        {});
        }
    }

    McResult
    runAll()
    {
        std::vector<RegVal> init;
        for (std::size_t m = 0; m < maskables.size(); ++m)
            init.insert(init.end(), {~RegVal{0}, 0});
        static_cast<ExplorerStats &>(res.stats) =
            ex.run(*this, initialDomain, init);
        return std::move(res);
    }
};

ModelChecker::ModelChecker(const IsaModel &isa, const PhysMem &mem,
                           const PolicySnapshot &snapshot,
                           std::vector<CodeRegion> regions,
                           DomainId initial_domain,
                           const McOptions &options)
    : impl(new Impl(isa, mem, snapshot, std::move(regions),
                    initial_domain, options))
{
}

ModelChecker::~ModelChecker() { delete impl; }

McResult
ModelChecker::run()
{
    return impl->runAll();
}

} // namespace isagrid
