#include "verify/verify.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "isa/disasm.hh"
#include "isagrid/hpt.hh"
#include "isagrid/pcu.hh"
#include "isagrid/sgt.hh"
#include "verify/report_common.hh"
#include "verify/superset.hh"

namespace isagrid {

namespace {

std::string
hex(std::uint64_t value)
{
    return hexAddr(value);
}

} // namespace

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Violation: return "violation";
      case Severity::Warning: return "warning";
      case Severity::Lint: return "lint";
    }
    return "?";
}

void
VerifyReport::add(Severity severity, std::string check, DomainId domain,
                  Addr addr, std::string message)
{
    ++counts[static_cast<std::size_t>(severity)];
    if (findings_.size() < max_findings) {
        findings_.push_back({severity, std::move(check), domain, addr,
                             std::move(message)});
    }
}

std::string
VerifyReport::text() const
{
    std::string out;
    for (const auto &f : findings_) {
        out += severityName(f.severity);
        out += ' ';
        out += f.check;
        out += " domain=" + std::to_string(f.domain);
        out += " addr=" + hex(f.addr);
        out += ": " + f.message + "\n";
    }
    std::size_t total = violations() + warnings() + lints();
    out += std::to_string(violations()) + " violations, " +
           std::to_string(warnings()) + " warnings, " +
           std::to_string(lints()) + " lints";
    if (total > findings_.size()) {
        out += " (" + std::to_string(total - findings_.size()) +
               " findings not recorded)";
    }
    out += "\n";
    return out;
}

std::string
VerifyReport::json() const
{
    std::string out = "{";
    out += "\"violations\":" + std::to_string(violations());
    out += ",\"warnings\":" + std::to_string(warnings());
    out += ",\"lints\":" + std::to_string(lints());
    // Structured per-severity summary: counts every finding (recorded
    // or not) plus how many made it under max_findings, so machine
    // consumers need not reconcile the two themselves.
    out += ',';
    appendSummaryObject(
        out, {{"violations", violations()},
              {"warnings", warnings()},
              {"lints", lints()},
              {"total", violations() + warnings() + lints()},
              {"recorded", findings_.size()}});
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
        out += ",\"addr\":\"" + hex(f.addr) + "\"";
        out += ",\"message\":\"";
        jsonEscape(out, f.message);
        out += "\"}";
    }
    out += "]}";
    return out;
}

/** Per-region facts gathered by the linear scan. */
struct Verifier::RegionScan
{
    const CodeRegion *region = nullptr;
    std::set<Addr> boundaries;
    /** Resolved direct/indirect control-transfer targets (source, dest). */
    std::vector<std::pair<Addr, Addr>> jumpTargets;
    std::set<InstTypeId> usedTypes;
    std::set<CsrIndex> usedReads;
    std::set<CsrIndex> usedWrites;
};

Verifier::Verifier(const IsaModel &isa, const PhysMem &mem,
                   const PolicySnapshot &snapshot,
                   std::vector<CodeRegion> regions,
                   const VerifyOptions &options)
    : isa(isa), mem(mem), snap(snapshot), policy(isa, mem, snapshot),
      regions(std::move(regions)), options(options)
{
}

const CodeRegion *
Verifier::regionOf(Addr addr) const
{
    for (const auto &r : regions)
        if (r.contains(addr))
            return &r;
    return nullptr;
}

void
Verifier::checkStructure(VerifyReport &report) const
{
    const DomainId domains = policy.numDomains();
    const Addr tmemb = snap.reg(GridReg::Tmemb);
    const Addr tmeml = snap.reg(GridReg::Tmeml);
    const bool tmem_enabled = tmeml > tmemb;

    // --- Section 4.5: trusted memory geometry ---
    if (domains > 1 && !tmem_enabled) {
        report.add(Severity::Violation, "tmem-disabled", 0, tmemb,
                   "multiple domains configured but trusted memory is "
                   "disabled (tmeml <= tmemb): nothing protects the "
                   "HPT/SGT from software stores");
    }
    if (tmem_enabled) {
        Addr size = tmeml - tmemb;
        if ((size & (size - 1)) != 0) {
            report.add(Severity::Violation, "tmem-geometry", 0, tmemb,
                       "trusted memory size " + hex(size) +
                           " is not a power of two");
        } else if ((tmemb & (size - 1)) != 0) {
            report.add(Severity::Violation, "tmem-geometry", 0, tmemb,
                       "trusted memory base " + hex(tmemb) +
                           " is not aligned to its size " + hex(size));
        }
    }

    // --- Section 4.5: every table must live inside trusted memory ---
    if (domains > 1 && tmem_enabled) {
        for (const PolicyTable &t : policy.tables()) {
            if (t.bytes == 0)
                continue;
            if (t.base < tmemb || t.base + t.bytes > tmeml) {
                report.add(Severity::Violation, "table-outside-tmem", 0,
                           t.base,
                           std::string(t.name) + " [" + hex(t.base) +
                               ", " + hex(t.base + t.bytes) +
                               ") not contained in trusted memory [" +
                               hex(tmemb) + ", " + hex(tmeml) + ")");
            }
        }
    }

    // --- Section 4.2 property (i): gate table sanity ---
    for (GateId id = 0; id < policy.numGates(); ++id) {
        const Verdict call = policy.gate(id);
        const SgtEntry &e = call.entry;
        std::string tag = "gate " + std::to_string(id);
        if (call.fault == FaultType::GateFault) {
            report.add(Severity::Violation, "gate-dest-domain", 0,
                       e.gate_addr,
                       tag + " targets domain " +
                           std::to_string(e.dest_domain) +
                           " but only " + std::to_string(domains) +
                           " domains are configured");
        }
        DecodedInst gi = decodeAt(isa, mem, e.gate_addr);
        if (!gi.valid || (gi.cls != InstClass::GateCall &&
                          gi.cls != InstClass::GateCallS)) {
            report.add(Severity::Violation, "gate-decode", 0, e.gate_addr,
                       tag + " gate_addr " + hex(e.gate_addr) +
                           " does not decode to hccall/hccalls (found: " +
                           disassembleAt(isa, mem, e.gate_addr) + ")");
        }
        const CodeRegion *src = regionOf(e.gate_addr);
        if (src == nullptr) {
            report.add(Severity::Violation, "gate-addr-region", 0,
                       e.gate_addr,
                       tag + " gate_addr " + hex(e.gate_addr) +
                           " lies outside every known code region");
        }
        if (tmem_enabled && e.dest_addr >= tmemb && e.dest_addr < tmeml) {
            report.add(Severity::Violation, "gate-dest-tmem",
                       e.dest_domain, e.dest_addr,
                       tag + " dest_addr " + hex(e.dest_addr) +
                           " points into trusted memory");
        }
        const CodeRegion *dst = regionOf(e.dest_addr);
        if (dst == nullptr) {
            report.add(Severity::Violation, "gate-dest-region",
                       e.dest_domain, e.dest_addr,
                       tag + " dest_addr " + hex(e.dest_addr) +
                           " lies outside every known code region");
        } else if (dst->domain != e.dest_domain) {
            report.add(Severity::Violation, "gate-dest-domain", dst->domain,
                       e.dest_addr,
                       tag + " dest_addr " + hex(e.dest_addr) +
                           " lies in code owned by domain " +
                           std::to_string(dst->domain) +
                           ", not destination domain " +
                           std::to_string(e.dest_domain));
        }
    }

    // --- Properties (iii)/(iv): the Table 2 registers must not be
    // writable from any domain but domain-0. Both ISA models keep them
    // out of the register bitmap entirely (the PCU enforces domain-0 on
    // its own), so a valid bitmap index with the write bit set means a
    // future ISA mapped them — and misconfigured the bitmaps.
    for (DomainId d = 1; d < domains; ++d) {
        for (std::uint8_t r = 0; r < numGridRegs; ++r) {
            std::uint32_t addr =
                isa.gridRegAddr(static_cast<GridReg>(r));
            CsrIndex index = isa.csrBitmapIndex(addr);
            if (index == invalidCsrIndex)
                continue;
            if (policy.csrWrite(d, index, isa.csrMaskIndex(addr))
                    .allowed()) {
                report.add(Severity::Violation, "grid-reg-writable", d,
                           addr,
                           std::string("domain holds write privilege "
                                       "over ISA-Grid register ") +
                               gridRegName(static_cast<GridReg>(r)));
            }
        }
    }
}

void
Verifier::scanRegion(const CodeRegion &region, RegionScan &scan,
                     VerifyReport &report) const
{
    scan.region = &region;
    const DomainId d = region.domain;

    // Gate addresses registered in the SGT, for property (ii) checks.
    std::map<Addr, GateId> gate_at;
    std::set<DomainId> hccalls_dests;
    for (GateId id = 0; id < policy.numGates(); ++id) {
        const SgtEntry &e = policy.gate(id).entry;
        gate_at.emplace(e.gate_addr, id);
        DecodedInst gi = decodeAt(isa, mem, e.gate_addr);
        if (gi.valid && gi.cls == InstClass::GateCallS)
            hccalls_dests.insert(e.dest_domain);
    }

    auto visit = [&](const ScanStep &step) {
        const DecodedInst &inst = *step.inst;
        const ConstTracker &consts = *step.consts;
        const Addr pc = step.pc;
        scan.boundaries.insert(pc);
        if (inst.type != invalidInstType)
            scan.usedTypes.insert(inst.type);

        // --- instruction bitmap (Section 4.1) ---
        if (inst.type != invalidInstType &&
            !policy.inst(d, inst.type).allowed()) {
            report.add(Severity::Violation, "inst-privilege", d, pc,
                       std::string(inst.mnemonic) + " (type " +
                           std::to_string(inst.type) +
                           ") is not granted in the domain's "
                           "instruction bitmap");
        }

        // --- register bitmap and bit-mask arrays (Section 4.1) ---
        std::uint32_t csr = inst.csr_addr;
        if (csr == ~0u && inst.csr_dynamic) {
            if (auto v = consts.value(inst.rs1))
                csr = static_cast<std::uint32_t>(*v);
        }
        bool is_read = inst.cls == InstClass::CsrRead;
        bool is_write = inst.cls == InstClass::CsrWrite;
        if (d != 0 && (is_read || is_write)) {
            if (csr == ~0u) {
                report.add(Severity::Warning, "csr-unresolved", d, pc,
                           std::string(inst.mnemonic) +
                               " accesses a CSR whose address could "
                               "not be resolved statically");
            } else if (isa.isGridReg(csr)) {
                GridReg gr = isa.gridRegId(csr);
                if (!rules::gridReg(d, gr, is_write).allowed()) {
                    report.add(Severity::Violation,
                               is_write ? "grid-reg-write"
                                        : "grid-reg-read",
                               d, pc,
                               std::string(inst.mnemonic) +
                                   (is_write ? " writes" : " reads") +
                                   " ISA-Grid register " +
                                   gridRegName(gr) + " outside domain-0");
                }
            } else {
                CsrIndex index = isa.csrBitmapIndex(csr);
                if (index != invalidCsrIndex) {
                    if (is_read) {
                        scan.usedReads.insert(index);
                        if (!policy.csrRead(d, index).allowed()) {
                            report.add(Severity::Violation, "csr-read",
                                       d, pc,
                                       std::string(inst.mnemonic) +
                                           " reads CSR " + hex(csr) +
                                           " without the read bit");
                        }
                    } else {
                        scan.usedWrites.insert(index);
                        const Verdict v = policy.csrWrite(
                            d, index, isa.csrMaskIndex(csr));
                        if (!v.allowed() &&
                            !(v.maskDecides() && v.mask != 0)) {
                            report.add(
                                Severity::Violation, "csr-write", d, pc,
                                std::string(inst.mnemonic) +
                                    " writes CSR " + hex(csr) +
                                    " without the write bit" +
                                    (v.masked ? " and with an all-zero "
                                                "bit-mask"
                                              : ""));
                        }
                    }
                }
            }
        }

        // --- gates (Section 4.2 property ii) ---
        if (inst.cls == InstClass::GateCall ||
            inst.cls == InstClass::GateCallS) {
            if (gate_at.find(pc) == gate_at.end()) {
                report.add(Severity::Violation, "gate-unregistered", d,
                           pc,
                           std::string(inst.mnemonic) +
                               " at an address registered in no SGT "
                               "entry always faults — or is a forged "
                               "gate");
            }
            if (auto id = consts.value(inst.rs1)) {
                if (*id >= policy.numGates()) {
                    report.add(Severity::Violation, "gate-id-range", d,
                               pc,
                               "gate id " + std::to_string(*id) +
                                   " out of range (gatenr " +
                                   std::to_string(policy.numGates()) +
                                   ")");
                } else if (policy.gate(*id).entry.gate_addr != pc) {
                    report.add(Severity::Violation, "gate-id-mismatch",
                               d, pc,
                               "gate id " + std::to_string(*id) +
                                   " is registered for " +
                                   hex(policy.gate(*id).entry.gate_addr) +
                                   ", not this address");
                }
            }
        }
        if (inst.cls == InstClass::GateRet && d != 0 &&
            hccalls_dests.find(d) == hccalls_dests.end()) {
            report.add(Severity::Violation, "gate-ret-orphan", d, pc,
                       "hcrets in a domain no hccalls gate enters: the "
                       "trusted stack can never hold a frame to return "
                       "through");
        }

        // --- control-transfer targets ---
        CtrlFlow cf = isa.controlFlow(inst);
        if (cf != CtrlFlow::None && cf != CtrlFlow::Return) {
            // Returns are excluded: their targets live on the stack.
            if (auto target = isa.controlTarget(inst, pc,
                                                consts.value(inst.rs1)))
                scan.jumpTargets.emplace_back(pc, *target);
        }
    };

    bool in_bounds = walkRegion(isa, mem, region, visit, [&](Addr pc) {
        report.add(Severity::Warning, "undecodable", d, pc,
                   "code region '" + region.name +
                       "' contains undecodable bytes");
    });
    if (!in_bounds) {
        report.add(Severity::Violation, "region-bounds", region.domain,
                   region.base,
                   "code region '" + region.name + "' [" +
                       hex(region.base) + ", " + hex(region.limit) +
                       ") is empty or outside physical memory");
    }
}

void
Verifier::scanMisaligned(const CodeRegion &region, const RegionScan &scan,
                         VerifyReport &report) const
{
    if (region.limit <= region.base || region.limit > mem.size())
        return;

    const bool x86 = isa.name() == "x86";
    const DomainId d = region.domain;
    const Addr step = x86 ? 1 : 2;

    std::set<Addr> gate_addrs;
    for (GateId id = 0; id < policy.numGates(); ++id)
        gate_addrs.insert(policy.gate(id).entry.gate_addr);

    std::vector<std::uint8_t> bytes(region.limit - region.base);
    mem.readBlock(region.base, bytes.data(), bytes.size());

    for (Addr pc = region.base; pc < region.limit; pc += step) {
        if (scan.boundaries.count(pc))
            continue;
        std::size_t off = pc - region.base;
        DecodedInst inst =
            isa.decode(bytes.data() + off, bytes.size() - off, pc);
        if (!inst.valid)
            continue;

        if (isGateClass(inst.cls)) {
            if (gate_addrs.count(pc)) {
                report.add(Severity::Violation, "hidden-gate", d, pc,
                           "SGT-registered gate address decodes only as "
                           "an unintended instruction inside " +
                               region.name);
            } else {
                report.add(Severity::Warning, "hidden-gate", d, pc,
                           std::string(inst.mnemonic) +
                               " reachable at an unintended offset "
                               "(ERIM-style occurrence)");
            }
            continue;
        }
        if (d == 0)
            continue; // domain-0 is fully privileged anyway

        bool sensitive = inst.cls == InstClass::CsrWrite ||
                         isa.instPrivileged(inst);
        if (!sensitive)
            continue;
        bool permitted = inst.type == invalidInstType ||
                         policy.inst(d, inst.type).allowed();
        if (permitted && inst.cls == InstClass::CsrWrite &&
            inst.csr_addr != ~0u) {
            const Verdict v =
                policy.csrWrite(d, isa.csrBitmapIndex(inst.csr_addr),
                                isa.csrMaskIndex(inst.csr_addr));
            permitted = v.allowed() || (v.maskDecides() && v.mask != 0);
        }
        if (permitted) {
            report.add(Severity::Warning, "hidden-sensitive", d, pc,
                       std::string(inst.mnemonic) +
                           " decodes at an unintended offset and the "
                           "domain's bitmaps permit it");
        } else if (options.lint) {
            report.add(Severity::Lint, "hidden-denied", d, pc,
                       std::string(inst.mnemonic) +
                           " decodes at an unintended offset (the PCU "
                           "would reject it)");
        }
    }
}

void
Verifier::checkGateTargets(const std::vector<RegionScan> &scans,
                           VerifyReport &report) const
{

    auto scanFor = [&](const CodeRegion *r) -> const RegionScan * {
        for (const auto &s : scans)
            if (s.region == r)
                return &s;
        return nullptr;
    };

    // Gate and destination addresses must be instruction boundaries.
    for (GateId id = 0; id < policy.numGates(); ++id) {
        const SgtEntry e = policy.gate(id).entry;
        std::string tag = "gate " + std::to_string(id);
        if (const CodeRegion *src = regionOf(e.gate_addr)) {
            const RegionScan *s = scanFor(src);
            if (s && !s->boundaries.count(e.gate_addr)) {
                report.add(Severity::Violation, "gate-addr-boundary",
                           src->domain, e.gate_addr,
                           tag + " gate_addr " + hex(e.gate_addr) +
                               " is not on an instruction boundary of '" +
                               src->name + "'");
            }
        }
        const CodeRegion *dst = regionOf(e.dest_addr);
        if (dst && dst->domain == e.dest_domain) {
            const RegionScan *s = scanFor(dst);
            if (s && !s->boundaries.count(e.dest_addr)) {
                report.add(Severity::Violation, "gate-dest-boundary",
                           e.dest_domain, e.dest_addr,
                           tag + " dest_addr " + hex(e.dest_addr) +
                               " is not on an instruction boundary of '" +
                               dst->name + "'");
            }
        }
    }

    // Every statically resolved jump/branch/call target must land on an
    // instruction boundary of a known code region: anything else either
    // executes data or starts an unintended-instruction stream.
    for (const auto &scan : scans) {
        if (!scan.region)
            continue;
        for (const auto &[src, target] : scan.jumpTargets) {
            const CodeRegion *r = regionOf(target);
            if (r == nullptr) {
                report.add(Severity::Violation, "jump-outside",
                           scan.region->domain, src,
                           "control transfer to " + hex(target) +
                               ", outside every known code region");
                continue;
            }
            const RegionScan *s = scanFor(r);
            if (s && !s->boundaries.count(target)) {
                report.add(Severity::Violation, "jump-misaligned",
                           scan.region->domain, src,
                           "control transfer to " + hex(target) +
                               ", which is not an instruction boundary "
                               "of '" + r->name + "'");
            }
        }
    }
}

void
Verifier::checkTransitionGraph(VerifyReport &report) const
{
    const DomainId domains = policy.numDomains();
    if (domains == 0)
        return;

    // Edges: one per SGT entry, from the domain owning the gate address
    // to the destination domain.
    std::map<DomainId, std::set<DomainId>> edges;
    for (GateId id = 0; id < policy.numGates(); ++id) {
        const Verdict call = policy.gate(id);
        const SgtEntry &e = call.entry;
        const CodeRegion *src = regionOf(e.gate_addr);
        if (src == nullptr || call.fault == FaultType::GateFault)
            continue; // already a structural violation
        edges[src->domain].insert(e.dest_domain);
        if (src->domain != 0 && e.dest_domain == 0) {
            report.add(Severity::Warning, "gate-escalation", src->domain,
                       e.gate_addr,
                       "gate " + std::to_string(id) +
                           " enters domain-0 from domain " +
                           std::to_string(src->domain) +
                           " — legitimate only for trusted-stack "
                           "management paths");
        }
    }

    // Reachability from domain-0 (where the processor resets).
    std::set<DomainId> reachable{0};
    std::vector<DomainId> work{0};
    while (!work.empty()) {
        DomainId d = work.back();
        work.pop_back();
        for (DomainId next : edges[d]) {
            if (reachable.insert(next).second)
                work.push_back(next);
        }
    }
    std::set<DomainId> flagged;
    for (const auto &r : regions) {
        if (r.domain == 0 || r.domain >= domains ||
            reachable.count(r.domain) || !flagged.insert(r.domain).second)
            continue;
        report.add(Severity::Warning, "domain-unreachable", r.domain,
                   r.base,
                   "domain owns code ('" + r.name +
                       "') but no gate chain from domain-0 reaches it");
    }
}

void
Verifier::lintLeastPrivilege(const std::vector<RegionScan> &scans,
                             VerifyReport &report) const
{
    const DomainId domains = policy.numDomains();

    std::set<InstTypeId> baseline;
    for (InstTypeId t : isa.baselineInstTypes())
        baseline.insert(t);

    std::map<DomainId, RegionScan> merged;
    for (const auto &s : scans) {
        if (!s.region)
            continue;
        RegionScan &m = merged[s.region->domain];
        m.usedTypes.insert(s.usedTypes.begin(), s.usedTypes.end());
        m.usedReads.insert(s.usedReads.begin(), s.usedReads.end());
        m.usedWrites.insert(s.usedWrites.begin(), s.usedWrites.end());
    }

    auto append = [](std::string &list, const std::string &item) {
        if (!list.empty())
            list += ", ";
        list += item;
    };

    for (const auto &[d, m] : merged) {
        if (d == 0 || d >= domains)
            continue;
        std::string types;
        for (InstTypeId t = 0; t < isa.numInstTypes(); ++t) {
            if (baseline.count(t) || !policy.inst(d, t).allowed() ||
                m.usedTypes.count(t))
                continue;
            append(types, isa.instTypeName(t));
        }
        if (!types.empty()) {
            report.add(Severity::Lint, "unused-inst-grant", d, 0,
                       "granted but never executed: " + types);
        }
        std::string csrs;
        const auto &csr_addrs = isa.controlledCsrAddrs();
        for (CsrIndex i = 0; i < csr_addrs.size(); ++i) {
            bool r = policy.csrRead(d, i).allowed() &&
                     !m.usedReads.count(i);
            bool w = policy.csrWrite(d, i, isa.csrMaskIndex(csr_addrs[i]))
                         .allowed() &&
                     !m.usedWrites.count(i);
            if (r || w) {
                append(csrs, "index " + std::to_string(i) + " (" +
                                 (r && w ? "rw" : r ? "r" : "w") + ")");
            }
        }
        if (!csrs.empty()) {
            report.add(Severity::Lint, "unused-csr-grant", d, 0,
                       "CSR bits granted but never exercised: " + csrs);
        }
    }
}

VerifyReport
Verifier::run()
{
    VerifyReport report;
    report.max_findings = options.max_findings;

    checkStructure(report);

    std::vector<RegionScan> scans(regions.size());
    for (std::size_t i = 0; i < regions.size(); ++i)
        scanRegion(regions[i], scans[i], report);
    if (options.scan_misaligned) {
        for (std::size_t i = 0; i < regions.size(); ++i)
            scanMisaligned(regions[i], scans[i], report);
    }

    checkGateTargets(scans, report);
    checkTransitionGraph(report);
    if (options.lint)
        lintLeastPrivilege(scans, report);

    if (options.superset) {
        XscanOptions xopt;
        xopt.max_findings = options.max_findings;
        XscanReport xscan = scanSuperset(isa, mem, snap, regions,
                                         options.entries, xopt);
        for (const XscanFinding &f : xscan.findings()) {
            std::string message = f.message;
            if (f.expect != FaultType::None) {
                message += " (expect " + std::string(faultName(f.expect)) +
                           ")";
            }
            report.add(f.severity, f.check, f.domain, f.addr, message);
        }
    }

    return report;
}

} // namespace isagrid
