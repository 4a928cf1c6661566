#include "verify/minimize.hh"

#include <algorithm>

#include "isagrid/hpt.hh"
#include "isagrid/pcu.hh"

namespace isagrid {

namespace {

std::string
csrLabel(const IsaModel &isa, CsrIndex index)
{
    const auto &addrs = isa.controlledCsrAddrs();
    if (index < addrs.size())
        return "csr " + hexAddr(addrs[index]);
    return "csr index " + std::to_string(index);
}

} // namespace

MinimizeResult
minimizePolicy(const IsaModel &isa, const PhysMem &mem,
               const PolicySnapshot &snapshot,
               PrivilegeInference &inference)
{
    inference.run();
    PolicyView view(isa, mem, snapshot);
    const DomainId num_domains = view.numDomains();
    const std::uint32_t num_types = isa.numInstTypes();
    const auto &csr_addrs = isa.controlledCsrAddrs();

    std::vector<bool> baseline(num_types, false);
    for (InstTypeId t : isa.baselineInstTypes())
        if (t < num_types)
            baseline[t] = true;

    static const DomainNeed no_need;
    MinimizeResult res;
    res.domains.resize(num_domains);
    auto addFinding = [&](Severity sev, std::string check, DomainId d,
                          Addr addr, std::string msg) {
        res.findings.push_back(
            {sev, std::move(check), d, addr, std::move(msg)});
    };

    // The table bases are guest-writable grid registers. A table
    // outside physical memory reads as deny-all here and faults every
    // PCU walk at run time; applyMinimizedPolicy() cannot rewrite it.
    const HptLayout layout(isa.numInstTypes(), isa.numControlledCsrs(),
                           isa.numMaskableCsrs());
    const struct
    {
        const char *name;
        Addr base;
        std::uint64_t bytes;
    } tables[] = {
        {"instruction bitmaps", snapshot.reg(GridReg::InstCap),
         layout.instStride() * num_domains},
        {"register bitmaps", snapshot.reg(GridReg::CsrCap),
         layout.regStride() * num_domains},
        {"bit-mask arrays", snapshot.reg(GridReg::CsrBitMask),
         layout.maskStride() * num_domains},
    };
    for (const auto &t : tables) {
        if (num_domains > 1 &&
            (t.base >= mem.size() || mem.size() - t.base < t.bytes)) {
            addFinding(Severity::Violation, "table-outside-memory", 0,
                       t.base,
                       std::string(t.name) + " [" + hexAddr(t.base) +
                           ", " + hexAddr(t.base + t.bytes) +
                           ") not contained in physical memory");
        }
    }

    for (DomainId d = 1; d < num_domains; ++d) {
        auto it = inference.needs().find(d);
        const DomainNeed &need =
            it == inference.needs().end() ? no_need : it->second;
        DomainPolicy &pol = res.domains[d];
        pol.inst.assign(num_types, false);
        pol.csr_read.assign(csr_addrs.size(), false);
        pol.csr_write.assign(csr_addrs.size(), false);
        pol.masks.assign(isa.numMaskableCsrs(), 0);

        for (InstTypeId t = 0; t < num_types; ++t) {
            bool cfg = view.instAllowed(d, t);
            bool needed = baseline[t] || need.inst_types.count(t);
            pol.inst[t] = cfg && needed;
            if (cfg && !needed) {
                ++res.overgrants;
                addFinding(
                    Severity::Lint, "overgrant-inst", d, 0,
                    std::string("instruction type ") +
                        isa.instTypeName(t) +
                        " is granted but no reachable instruction of "
                        "this type exists from any entry gate of "
                        "domain " + std::to_string(d) +
                        "; suggest clearing bit " + std::to_string(t));
            } else if (cfg && needed && !baseline[t]) {
                ++res.kept_grants;
            }
        }

        for (CsrIndex i = 0; i < csr_addrs.size(); ++i) {
            std::uint32_t addr = csr_addrs[i];
            CsrIndex mi = isa.csrMaskIndex(addr);
            bool cfg_r = view.csrReadAllowed(d, i);
            bool cfg_w = view.csrWriteAllowed(d, i);
            RegVal cfg_mask =
                mi == invalidCsrIndex ? 0 : view.mask(d, mi);

            bool need_r =
                need.csr_reads.count(i) || need.unresolved_dynamic_read;
            pol.csr_read[i] = cfg_r && need_r;
            if (cfg_r && !need_r) {
                ++res.overgrants;
                addFinding(Severity::Lint, "overgrant-csr-read", d, 0,
                           csrLabel(isa, i) +
                               " read is granted but no reachable "
                               "instruction reads it from any entry "
                               "gate of domain " + std::to_string(d));
            } else if (cfg_r && need_r) {
                ++res.kept_grants;
            }

            bool need_w = need.csr_writes.count(i);
            RegVal changed = 0;
            if (mi != invalidCsrIndex) {
                auto wb = need.written_bits.find(mi);
                if (wb != need.written_bits.end())
                    changed = wb->second;
            }
            if (need.unresolved_dynamic_write) {
                // An unresolvable wrmsr-style index may target any
                // CSR: keep the configured write grants untouched.
                pol.csr_write[i] = cfg_w;
                if (mi != invalidCsrIndex)
                    pol.masks[mi] = cfg_mask;
                if (cfg_w || cfg_mask)
                    ++res.kept_grants;
                continue;
            }
            if (!need_w) {
                if (cfg_w) {
                    ++res.overgrants;
                    addFinding(
                        Severity::Lint, "overgrant-csr-write", d, 0,
                        csrLabel(isa, i) +
                            " write is granted but no reachable "
                            "instruction writes it from any entry "
                            "gate of domain " + std::to_string(d));
                }
                if (mi != invalidCsrIndex && cfg_mask != 0) {
                    ++res.overgrants;
                    addFinding(
                        Severity::Lint, "overgrant-mask-bits", d, 0,
                        csrLabel(isa, i) + " has write mask " +
                            hexAddr(cfg_mask) +
                            " but no reachable write; suggest mask 0");
                }
                continue;
            }
            Addr witness = need.csr_writes.at(i);
            bool mask_suffices =
                mi != invalidCsrIndex && changed != ~RegVal{0} &&
                (cfg_w || (changed & ~cfg_mask) == 0);
            if (mask_suffices) {
                pol.masks[mi] = changed;
                ++res.kept_grants;
                if (cfg_w) {
                    ++res.overgrants;
                    addFinding(
                        Severity::Lint, "overgrant-csr-write", d,
                        witness,
                        csrLabel(isa, i) +
                            " has full write privilege but every "
                            "reachable write only changes bits " +
                            hexAddr(changed) +
                            "; suggest mask-only grant");
                } else if (cfg_mask & ~changed) {
                    ++res.overgrants;
                    addFinding(
                        Severity::Lint, "overgrant-mask-bits", d,
                        witness,
                        csrLabel(isa, i) + " write mask " +
                            hexAddr(cfg_mask) +
                            " is wider than the bits reachable "
                            "writes change; suggest " +
                            hexAddr(changed));
                }
            } else if (cfg_w) {
                pol.csr_write[i] = true;
                ++res.kept_grants;
            } else if (mi != invalidCsrIndex &&
                       (changed & ~cfg_mask) == 0) {
                // Unbounded analysis result but the configured mask
                // happens to cover it (changed == ~0, mask == ~0).
                pol.masks[mi] = cfg_mask;
                ++res.kept_grants;
            } else {
                // The configured policy does not obviously cover a
                // write the analysis thinks is reachable: keep the
                // configured grants and flag it rather than guessing.
                pol.csr_write[i] = cfg_w;
                if (mi != invalidCsrIndex)
                    pol.masks[mi] = cfg_mask;
                addFinding(
                    Severity::Warning, "minpriv-unprovable", d,
                    witness,
                    csrLabel(isa, i) +
                        " has a reachable write at " +
                        hexAddr(witness) +
                        " the configured grants do not obviously "
                        "permit; keeping them unchanged");
            }
        }

        // Semantic subset check: every grant we synthesized must have
        // been permitted by the configured policy.
        for (InstTypeId t = 0; t < num_types; ++t)
            if (pol.inst[t] && !view.instAllowed(d, t))
                res.subset = false;
        for (CsrIndex i = 0; i < csr_addrs.size(); ++i) {
            if (pol.csr_read[i] && !view.csrReadAllowed(d, i))
                res.subset = false;
            if (pol.csr_write[i] && !view.csrWriteAllowed(d, i))
                res.subset = false;
            CsrIndex mi = isa.csrMaskIndex(csr_addrs[i]);
            if (mi != invalidCsrIndex && pol.masks[mi] &&
                !view.csrWriteAllowed(d, i) &&
                (pol.masks[mi] & ~view.mask(d, mi)))
                res.subset = false;
        }
    }
    return res;
}

void
applyMinimizedPolicy(const IsaModel &isa, PhysMem &mem,
                     const PolicySnapshot &snapshot,
                     const MinimizeResult &result, PrivilegeCheckUnit *pcu)
{
    HptLayout layout(isa.numInstTypes(), isa.numControlledCsrs(),
                     isa.numMaskableCsrs());
    Addr inst_base = snapshot.reg(GridReg::InstCap);
    Addr reg_base = snapshot.reg(GridReg::CsrCap);
    Addr mask_base = snapshot.reg(GridReg::CsrBitMask);
    // Words off the bus stay unwritten (minimizePolicy reported them
    // as table-outside-memory).
    auto put = [&mem](Addr addr, RegVal word) {
        if (addr < mem.size() && mem.size() - addr >= 8)
            mem.write64(addr, word);
    };

    for (DomainId d = 1; d < result.domains.size(); ++d) {
        const DomainPolicy &pol = result.domains[d];
        for (std::uint32_t g = 0; g < layout.numInstGroups(); ++g) {
            RegVal word = 0;
            for (std::uint32_t b = 0; b < HptLayout::wordBits; ++b) {
                InstTypeId t = g * HptLayout::wordBits + b;
                if (t < pol.inst.size() && pol.inst[t])
                    word |= RegVal{1} << b;
            }
            put(layout.instWordAddr(inst_base, d, g), word);
        }
        for (std::uint32_t g = 0; g < layout.numRegGroups(); ++g) {
            RegVal word = 0;
            for (std::uint32_t c = 0; c < HptLayout::csrsPerWord; ++c) {
                CsrIndex i = g * HptLayout::csrsPerWord + c;
                if (i >= pol.csr_read.size())
                    break;
                if (pol.csr_read[i])
                    word |= RegVal{1} << HptLayout::regReadBit(i);
                if (pol.csr_write[i])
                    word |= RegVal{1} << HptLayout::regWriteBit(i);
            }
            put(layout.regWordAddr(reg_base, d, g), word);
        }
        for (CsrIndex mi = 0; mi < pol.masks.size(); ++mi)
            put(layout.maskAddr(mask_base, d, mi), pol.masks[mi]);
    }
    if (pcu)
        pcu->flushBuffers(PcuBuffer::All);
}

std::string
MinimizeResult::text() const
{
    std::string out;
    out += "minimized policy for " +
           std::to_string(domains.empty() ? 0 : domains.size() - 1) +
           " domain(s): " + std::to_string(overgrants) +
           " over-grant(s) removed or narrowed, " +
           std::to_string(kept_grants) + " grant(s) kept";
    out += subset ? " (subset of configured policy)\n"
                  : " (NOT a subset of configured policy!)\n";
    for (const Finding &f : findings) {
        out += "  [";
        out += severityName(f.severity);
        out += "] " + f.check + " domain " + std::to_string(f.domain);
        if (f.addr)
            out += " @ " + hexAddr(f.addr);
        out += ": " + f.message + "\n";
    }
    return out;
}

std::string
MinimizeResult::json() const
{
    std::string out = "{";
    out += "\"overgrants\":" + std::to_string(overgrants);
    out += ",\"kept_grants\":" + std::to_string(kept_grants);
    out += ",\"subset\":";
    out += subset ? "true" : "false";
    out += ",\"domains\":[";
    for (DomainId d = 1; d < domains.size(); ++d) {
        const DomainPolicy &pol = domains[d];
        if (d > 1)
            out += ",";
        out += "{\"domain\":" + std::to_string(d);
        out += ",\"inst\":[";
        bool first = true;
        for (InstTypeId t = 0; t < pol.inst.size(); ++t)
            if (pol.inst[t]) {
                if (!first)
                    out += ",";
                first = false;
                out += std::to_string(t);
            }
        out += "],\"csr_read\":[";
        first = true;
        for (CsrIndex i = 0; i < pol.csr_read.size(); ++i)
            if (pol.csr_read[i]) {
                if (!first)
                    out += ",";
                first = false;
                out += std::to_string(i);
            }
        out += "],\"csr_write\":[";
        first = true;
        for (CsrIndex i = 0; i < pol.csr_write.size(); ++i)
            if (pol.csr_write[i]) {
                if (!first)
                    out += ",";
                first = false;
                out += std::to_string(i);
            }
        out += "],\"masks\":[";
        for (CsrIndex mi = 0; mi < pol.masks.size(); ++mi) {
            if (mi)
                out += ",";
            out += "\"" + hexAddr(pol.masks[mi]) + "\"";
        }
        out += "]}";
    }
    out += "],\"findings\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        if (i)
            out += ",";
        out += "{\"severity\":\"";
        out += severityName(f.severity);
        out += "\",\"check\":\"" + f.check + "\"";
        out += ",\"domain\":" + std::to_string(f.domain);
        out += ",\"addr\":\"" + hexAddr(f.addr) + "\"";
        out += ",\"message\":\"";
        jsonEscape(out, f.message);
        out += "\"}";
    }
    out += "]}";
    return out;
}

} // namespace isagrid
