#include "verify/superset.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "isa/disasm.hh"
#include "isagrid/sgt.hh"
#include "verify/report_common.hh"

namespace isagrid {

const char *
xscanVerdictName(XscanVerdict verdict)
{
    switch (verdict) {
      case XscanVerdict::Confirmed: return "confirmed";
      case XscanVerdict::Discharged: return "discharged";
      case XscanVerdict::Plausible: return "plausible";
    }
    return "?";
}

void
XscanReport::add(XscanFinding finding)
{
    ++counts[finding.severity == Severity::Violation ? 0 : 1];
    if (findings_.size() < max_findings)
        findings_.push_back(std::move(finding));
}

std::size_t
XscanReport::confirmed() const
{
    return std::count_if(findings_.begin(), findings_.end(),
                         [](const XscanFinding &f) {
                             return f.verdict == XscanVerdict::Confirmed;
                         });
}

std::size_t
XscanReport::discharged() const
{
    return std::count_if(findings_.begin(), findings_.end(),
                         [](const XscanFinding &f) {
                             return f.verdict == XscanVerdict::Discharged;
                         });
}

std::size_t
XscanReport::plausible() const
{
    return std::count_if(findings_.begin(), findings_.end(),
                         [](const XscanFinding &f) {
                             return f.verdict == XscanVerdict::Plausible;
                         });
}

std::string
XscanReport::text() const
{
    std::string out;
    for (const auto &f : findings_) {
        out += severityName(f.severity);
        out += ' ';
        out += f.check;
        out += " domain=" + std::to_string(f.domain);
        out += " addr=" + hexAddr(f.addr);
        out += ": " + f.message;
        out += " [" + std::string(xscanVerdictName(f.verdict)) + "]\n";
    }
    std::size_t total = violations() + warnings();
    out += std::to_string(violations()) + " violations, " +
           std::to_string(warnings()) + " warnings (" +
           std::to_string(confirmed()) + " confirmed, " +
           std::to_string(discharged()) + " discharged, " +
           std::to_string(plausible()) + " plausible)";
    if (total > findings_.size()) {
        out += " (" + std::to_string(total - findings_.size()) +
               " findings not recorded)";
    }
    out += "\n";
    return out;
}

std::string
XscanReport::json() const
{
    std::string out = "{";
    out += "\"violations\":" + std::to_string(violations());
    out += ",\"warnings\":" + std::to_string(warnings());
    out += ',';
    appendSummaryObject(
        out, {{"violations", violations()},
              {"warnings", warnings()},
              {"confirmed", confirmed()},
              {"discharged", discharged()},
              {"plausible", plausible()},
              {"total", violations() + warnings()},
              {"recorded", findings_.size()}});
    out += ",\"stats\":{";
    out += "\"regions\":" + std::to_string(stats.regions);
    out += ",\"offsets_scanned\":" + std::to_string(stats.offsets_scanned);
    out += ",\"hidden_valid\":" + std::to_string(stats.hidden_valid);
    out += ",\"entry_points\":" + std::to_string(stats.entry_points);
    out += ",\"reachable\":" + std::to_string(stats.reachable);
    out += ",\"reachable_misaligned\":" +
           std::to_string(stats.reachable_misaligned);
    out += ",\"widened\":" + std::to_string(stats.widened);
    out += ",\"discharges\":" + std::to_string(stats.discharges);
    out += "}";
    out += ",\"findings\":[";
    bool first = true;
    for (const auto &f : findings_) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"severity\":\"";
        out += severityName(f.severity);
        out += "\",\"check\":\"";
        jsonEscape(out, f.check);
        out += "\",\"domain\":" + std::to_string(f.domain);
        out += ",\"addr\":\"" + hexAddr(f.addr) + "\"";
        out += ",\"carrier_pc\":\"" + hexAddr(f.carrier_pc) + "\"";
        out += ",\"carrier\":\"";
        jsonEscape(out, f.carrier_text);
        out += "\",\"hidden\":\"";
        jsonEscape(out, f.hidden_text);
        out += "\",\"expect\":\"";
        out += faultName(f.expect);
        out += "\",\"verdict\":\"";
        out += xscanVerdictName(f.verdict);
        out += "\",\"chain\":[";
        bool cfirst = true;
        for (Addr a : f.chain) {
            if (!cfirst)
                out += ',';
            cfirst = false;
            out += "\"" + hexAddr(a) + "\"";
        }
        out += "],\"message\":\"";
        jsonEscape(out, f.message);
        out += "\"}";
    }
    out += "]}";
    return out;
}

namespace {

/** Everything the scan derives from one code region. */
struct RegionScan
{
    const CodeRegion *region = nullptr;
    /** Superset decode at base + k*step, indexed by k (invalid: gap). */
    std::vector<DecodedInst> superset;
};

/** The scan state shared by the passes. */
struct Scanner
{
    const IsaModel &isa;
    const PhysMem &mem;
    PolicyView policy;
    const std::vector<CodeRegion> &regions;
    const XscanOptions &options;
    XscanReport &report;

    /** Decode step: every byte on x86, the 2-byte parcel on RISC-V. */
    Addr step;
    std::vector<RegionScan> scans;
    /** Aligned instruction boundaries of every region (pc -> length). */
    std::map<Addr, std::uint8_t> boundaries;
    /** Entry-reachability seeds. */
    std::set<Addr> seeds;
    /** BFS predecessor map; a seed maps to itself. */
    std::map<Addr, Addr> pred;

    Scanner(const IsaModel &isa, const PhysMem &mem,
            const PolicySnapshot &snap,
            const std::vector<CodeRegion> &regions,
            const XscanOptions &options, XscanReport &report)
        : isa(isa), mem(mem), policy(isa, mem, snap), regions(regions),
          options(options), report(report),
          step(isa.maxInstBytes() > 4 ? 1 : 2)
    {
    }

    const CodeRegion *
    regionOf(Addr addr) const
    {
        for (const auto &r : regions)
            if (r.contains(addr))
                return &r;
        return nullptr;
    }

    const RegionScan *
    scanOf(const CodeRegion *region) const
    {
        for (const auto &s : scans)
            if (s.region == region)
                return &s;
        return nullptr;
    }

    /** The superset decode at @p pc, or nullptr for gaps/odd offsets. */
    const DecodedInst *
    decodeOf(Addr pc) const
    {
        const CodeRegion *r = regionOf(pc);
        if (r == nullptr || (pc - r->base) % step != 0)
            return nullptr;
        const RegionScan *s = scanOf(r);
        if (s == nullptr)
            return nullptr;
        const DecodedInst &inst = s->superset[(pc - r->base) / step];
        return inst.valid ? &inst : nullptr;
    }

    void
    seed(Addr addr)
    {
        const CodeRegion *r = regionOf(addr);
        if (r == nullptr || (addr - r->base) % step != 0)
            return;
        seeds.insert(addr);
    }

    /**
     * Pass 1, aligned walk: record the instruction boundaries and
     * collect the entry seeds the image itself implies — every
     * statically resolved control-transfer target, and every
     * address-taken constant materialised into a code region (the
     * values an indirect transfer can take at runtime).
     */
    void
    walkAligned()
    {
        for (const auto &region : regions) {
            ++report.stats.regions;
            walkRegion(isa, mem, region, [&](const ScanStep &s) {
                boundaries.emplace(s.pc, s.inst->length);

                CtrlFlow cf = isa.controlFlow(*s.inst);
                if (cf != CtrlFlow::None && cf != CtrlFlow::Return) {
                    if (auto target = isa.controlTarget(
                            *s.inst, s.pc, s.consts->value(s.inst->rs1)))
                        seed(*target);
                }

                // Address-taken constants: step a copy of the window
                // past the instruction and look at what it wrote.
                ConstTracker after = *s.consts;
                after.step(*s.inst, s.pc);
                if (auto v = after.value(s.inst->rd))
                    seed(*v);
            });
        }
    }

    /** Pass 2: decode every step offset of every region. */
    void
    decodeSuperset()
    {
        scans.reserve(regions.size());
        for (const auto &region : regions) {
            RegionScan scan;
            scan.region = &region;
            if (region.limit <= region.base ||
                region.limit > mem.size()) {
                scans.push_back(std::move(scan));
                continue;
            }
            scan.superset.resize((region.limit - region.base + step - 1) /
                                 step);
            for (Addr pc = region.base; pc < region.limit; pc += step) {
                ++report.stats.offsets_scanned;
                // Deliberately not clamped to the region: the core's
                // fetch is not either, so an encoding straddling the
                // region end is exactly as executable as any other.
                DecodedInst inst = decodeAt(isa, mem, pc);
                if (inst.valid && !boundaries.count(pc))
                    ++report.stats.hidden_valid;
                scan.superset[(pc - region.base) / step] = inst;
            }
            scans.push_back(std::move(scan));
        }
    }

    /** Pass 3: close the seeds over the superset graph and classify. */
    void
    closeAndClassify()
    {
        std::deque<Addr> work;
        auto push = [&](Addr to, Addr from) {
            const CodeRegion *r = regionOf(to);
            if (r == nullptr || (to - r->base) % step != 0)
                return;
            if (pred.emplace(to, from).second)
                work.push_back(to);
        };

        // SGT gate destinations are entered by the switching engine.
        for (GateId id = 0; id < policy.numGates(); ++id)
            seed(policy.gate(id).entry.dest_addr);
        for (Addr s : seeds)
            push(s, s);
        report.stats.entry_points = pred.size();

        while (!work.empty()) {
            Addr pc = work.front();
            work.pop_front();
            ++report.stats.reachable;

            bool misaligned = !boundaries.count(pc);
            if (misaligned)
                ++report.stats.reachable_misaligned;
            else
                continue; // aligned flows are closed by the seed set

            const DecodedInst *inst = decodeOf(pc);
            if (inst == nullptr)
                continue; // undecodable: IllegalInstruction, stream ends

            if (classify(pc, *inst))
                continue; // the PCU faults here: stream ends

            CtrlFlow cf = isa.controlFlow(*inst);
            switch (cf) {
              case CtrlFlow::None:
                if (inst->cls == InstClass::Halt ||
                    inst->cls == InstClass::Syscall ||
                    inst->cls == InstClass::TrapRet)
                    break; // trap/halt targets are seeds already
                push(pc + inst->length, pc);
                break;
              case CtrlFlow::Branch:
                push(pc + inst->length, pc);
                if (auto t = isa.controlTarget(*inst, pc, std::nullopt))
                    push(*t, pc);
                break;
              case CtrlFlow::Jump:
              case CtrlFlow::Call:
                if (auto t = isa.controlTarget(*inst, pc, std::nullopt))
                    push(*t, pc);
                else
                    ++report.stats.widened;
                if (cf == CtrlFlow::Call)
                    push(pc + inst->length, pc);
                break;
              case CtrlFlow::IndirectJump:
              case CtrlFlow::IndirectCall:
                // No constant window survives into a misaligned
                // stream; the target must have been materialised by an
                // aligned instruction, and all of those are seeds
                // (docs/unintended_instructions.md).
                ++report.stats.widened;
                if (cf == CtrlFlow::IndirectCall)
                    push(pc + inst->length, pc);
                break;
              case CtrlFlow::Return:
                break; // return addresses are aligned call fallthroughs
            }
        }
    }

    /** Chain from the seeding entry to @p pc, capped at max_chain. */
    std::vector<Addr>
    chainTo(Addr pc) const
    {
        std::vector<Addr> chain;
        Addr cur = pc;
        while (chain.size() < 4096) {
            chain.push_back(cur);
            auto it = pred.find(cur);
            if (it == pred.end() || it->second == cur)
                break;
            cur = it->second;
        }
        std::reverse(chain.begin(), chain.end());
        if (chain.size() > options.max_chain) {
            chain.erase(chain.begin(),
                        chain.end() - options.max_chain);
        }
        return chain;
    }

    /**
     * Emit the finding (if any) for the reachable misaligned @p pc.
     * Returns true when the PCU deterministically faults there, ending
     * the hidden stream.
     */
    bool
    classify(Addr pc, const DecodedInst &inst)
    {
        const CodeRegion *r = regionOf(pc);
        const DomainId d = r->domain;

        auto emit = [&](Severity severity, const char *check,
                        FaultType expect, const std::string &why) {
            XscanFinding f;
            f.severity = severity;
            f.check = check;
            f.domain = d;
            f.addr = pc;
            auto it = boundaries.upper_bound(pc);
            if (it != boundaries.begin()) {
                --it;
                if (it->first + it->second > pc) {
                    f.carrier_pc = it->first;
                    f.carrier_text = disassembleAt(isa, mem, it->first);
                }
            }
            f.hidden_text = disassemble(inst);
            f.chain = chainTo(pc);
            f.expect = expect;
            f.message = std::string(inst.mnemonic) +
                        " hidden at an unintended offset of '" + r->name +
                        "' is reachable " + why;
            report.add(std::move(f));
        };

        // The instruction check comes first (stepOne() order).
        const FaultType inst_fault = inst.type == invalidInstType
                                         ? FaultType::None
                                         : policy.inst(d, inst.type).fault;
        if (isGateClass(inst.cls)) {
            // Past the instruction check, a hidden hcrets underflows:
            // nothing legitimate ever pushed a frame for this offset.
            // A hidden hccall/hccalls gate-faults: no SGT entry
            // registers a misaligned address (the gate-decode check
            // would have flagged it), so property (i) rejects it.
            const FaultType expect =
                inst_fault != FaultType::None ? inst_fault
                : inst.cls == InstClass::GateRet
                    ? FaultType::TrustedStackFault
                    : FaultType::GateFault;
            emit(Severity::Violation, "ui-gate-forge", expect,
                 "— a forged domain switch the SGT never registered");
            return true;
        }

        if (d == 0)
            return false; // domain-0 holds every privilege anyway

        bool sensitive = inst.cls == InstClass::CsrWrite ||
                         isa.instPrivileged(inst);
        if (!sensitive)
            return false;

        if (inst_fault != FaultType::None) {
            emit(Severity::Violation, "ui-priv-escape", inst_fault,
                 "but denied by the domain's instruction bitmap");
            return true;
        }

        if (inst.cls == InstClass::CsrWrite) {
            std::uint32_t csr = inst.csr_addr;
            if (csr == ~0u) {
                // Dynamic CSR address with the type granted: the
                // operand register is unknowable in a misaligned
                // stream, so no deterministic probe exists. The
                // aligned analyses flag the grant itself.
                return false;
            }
            if (isa.isGridReg(csr)) {
                emit(Severity::Violation, "ui-priv-escape",
                     rules::gridReg(d, isa.gridRegId(csr), true).fault,
                     "and writes ISA-Grid register state outside "
                     "domain-0");
                return true;
            }
            const CsrIndex index = isa.csrBitmapIndex(csr);
            if (index == invalidCsrIndex)
                return false; // uncontrolled CSR: nothing to escape
            const Verdict v =
                policy.csrWrite(d, index, isa.csrMaskIndex(csr));
            if (v.allowed()) {
                emit(Severity::Warning, "ui-priv-escape", FaultType::None,
                     "and the domain's register bitmap permits the "
                     "write");
                return false;
            }
            if (v.maskDecides() && v.mask != 0) {
                // Nonzero bit-mask: acceptance depends on the written
                // value, which no deterministic probe pins down.
                return false;
            }
            // Denied, or an all-zero bit-mask rejects every change of
            // the value: the fault of a write that flips every bit.
            emit(Severity::Violation, "ui-priv-escape",
                 v.write(0, ~RegVal{0}),
                 "but denied by the domain's register bitmap");
            return true;
        }

        emit(Severity::Warning, "ui-priv-escape", FaultType::None,
             "and the domain's instruction bitmap permits it");
        return false;
    }
};

} // namespace

XscanReport
scanSuperset(const IsaModel &isa, const PhysMem &mem,
             const PolicySnapshot &snap,
             const std::vector<CodeRegion> &regions,
             const std::vector<Addr> &entries,
             const XscanOptions &options)
{
    XscanReport report;
    report.max_findings = options.max_findings;

    Scanner scanner(isa, mem, snap, regions, options, report);
    scanner.walkAligned();
    for (Addr e : entries)
        scanner.seed(e);
    scanner.decodeSuperset();
    scanner.closeAndClassify();
    return report;
}

} // namespace isagrid
