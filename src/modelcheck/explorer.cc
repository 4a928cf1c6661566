#include "modelcheck/explorer.hh"

#include "isa/disasm.hh"

namespace isagrid {

Explorer::Explorer(const IsaModel &isa, const PhysMem &mem,
                   const PolicySnapshot &snap,
                   const std::vector<CodeRegion> &regions,
                   std::size_t max_states, unsigned depth_bound)
    : policy_(isa, mem, snap), maxStates_(max_states),
      depthBound_(depth_bound),
      visited_(0, StateHash{this}, StateEqual{this})
{
    GateId n = policy_.numGates();
    if (n > 4096)
        n = 4096; // a corrupt gatenr: the structure checks flag it
    for (GateId id = 0; id < n; ++id) {
        SgtEntry entry = policy_.gate(id);
        DecodedInst inst = decodeAt(isa, mem, entry.gate_addr);
        const bool extended = inst.cls == InstClass::GateCallS;
        // An entry off the bus faults every call through it.
        const bool usable = policy_.gateOnBus(id) && inst.valid &&
                            (extended || inst.cls == InstClass::GateCall);
        gates_.push_back(
            {entry, usable, extended, inst.type, inst.rs1, inst.length});
    }

    for (const CodeRegion &region : regions) {
        const DomainId d = region.domain;
        walkRegion(isa, mem, region, [&](const ScanStep &step) {
            const InstTypeId type = step.inst->type;
            if (step.inst->cls == InstClass::GateRet &&
                (type == invalidInstType || policy_.instAllowed(d, type)))
                retSites_.emplace(d, step.pc); // keeps the first
        });
    }

    RegVal base = snap.reg(GridReg::Hcsb);
    RegVal limit = snap.reg(GridReg::Hcsl);
    stackCapacity_ = limit > base ? (limit - base) / 16 : 0;
}

const Addr *
Explorer::retSite(DomainId d) const
{
    auto it = retSites_.find(d);
    return it != retSites_.end() ? &it->second : nullptr;
}

std::vector<TraceStep>
Explorer::pathTo(std::uint32_t node) const
{
    std::vector<TraceStep> steps;
    for (std::uint32_t i = node; nodes_[i].parent != none;
         i = nodes_[i].parent)
        steps.push_back(edges_[i]);
    return {steps.rbegin(), steps.rend()};
}

TraceStep
Explorer::gateStep(GateId gid, DomainId from, DomainId to) const
{
    const GateInfo &g = gates_[gid];
    TraceStep step;
    step.kind = g.extended ? TraceStep::Kind::GateCallS
                           : TraceStep::Kind::GateCall;
    step.pc = g.entry.gate_addr;
    step.in_image = true;
    step.gate = gid;
    step.seed.emplace_back(g.rs1, gid);
    step.domain_before = from;
    step.domain_after = to;
    return step;
}

std::size_t
Explorer::StateHash::operator()(std::span<const RegVal> words) const
{
    std::uint64_t h = words.size();
    for (RegVal w : words) {
        h = (h ^ w) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 29;
    }
    return h;
}

} // namespace isagrid
