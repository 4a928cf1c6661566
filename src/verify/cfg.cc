#include "verify/cfg.hh"

#include <algorithm>
#include <deque>

namespace isagrid {

namespace {

/** One decoded instruction with its statically resolved operands. */
struct Site
{
    Addr pc = 0;
    DecodedInst inst;
    CtrlFlow cf = CtrlFlow::None;
    std::optional<Addr> target;
    std::optional<RegVal> gateId;
};

bool
endsBlock(const Site &site)
{
    if (site.cf != CtrlFlow::None)
        return true;
    switch (site.inst.cls) {
      case InstClass::Syscall:
      case InstClass::TrapRet:
      case InstClass::GateCall:
      case InstClass::GateCallS:
      case InstClass::GateRet:
      case InstClass::Halt:
        return true;
      default:
        return false;
    }
}

} // namespace

const char *
edgeKindName(EdgeKind kind)
{
    switch (kind) {
      case EdgeKind::Fallthrough: return "fallthrough";
      case EdgeKind::Branch: return "branch";
      case EdgeKind::Jump: return "jump";
      case EdgeKind::Call: return "call";
      case EdgeKind::Return: return "return";
      case EdgeKind::Gate: return "gate";
    }
    return "?";
}

Cfg
Cfg::build(const IsaModel &isa, const PhysMem &mem,
           const PolicySnapshot &snapshot, std::vector<CodeRegion> regions,
           const std::vector<Addr> &extra_leaders)
{
    Cfg cfg;
    cfg.regions_ = std::move(regions);

    PolicyView view(isa, mem, snapshot);
    for (GateId g = 0; g < view.numGates(); ++g)
        cfg.gates_.push_back(view.gate(g).entry);

    // Pass 1: decode every region, resolving targets and gate ids
    // through the constant window walkRegion maintains.
    std::vector<std::vector<Site>> sites(cfg.regions_.size());
    for (std::size_t ri = 0; ri < cfg.regions_.size(); ++ri) {
        walkRegion(isa, mem, cfg.regions_[ri],
                   [&](const ScanStep &step) {
                       Site s;
                       s.pc = step.pc;
                       s.inst = *step.inst;
                       s.cf = isa.controlFlow(s.inst);
                       s.target = isa.controlTarget(
                           s.inst, s.pc,
                           step.consts->value(s.inst.rs1));
                       if (isGateClass(s.inst.cls))
                           s.gateId = step.consts->value(s.inst.rs1);
                       sites[ri].push_back(s);
                   });
    }

    // Pass 2: every transfer target and every gate destination is a
    // block leader, so edges always land on block starts.
    std::unordered_map<Addr, bool> leaders;
    for (const auto &rs : sites)
        for (const Site &s : rs)
            if (s.target)
                leaders[*s.target] = true;
    for (const SgtEntry &g : cfg.gates_)
        leaders[g.dest_addr] = true;
    for (Addr a : extra_leaders)
        leaders[a] = true;

    // Pass 3: split each region's instruction stream into blocks at
    // leaders, after terminators, and across undecodable gaps. Each
    // block remembers its final Site for edge construction below.
    std::vector<const Site *> lastSite;
    for (std::size_t ri = 0; ri < cfg.regions_.size(); ++ri) {
        bool open = false;
        Addr expect = 0;
        for (const Site &s : sites[ri]) {
            if (!open || s.pc != expect || leaders.count(s.pc)) {
                cfg.blocks_.push_back({});
                BasicBlock &nb = cfg.blocks_.back();
                nb.id = static_cast<std::uint32_t>(cfg.blocks_.size() - 1);
                nb.start = s.pc;
                nb.region = static_cast<std::uint32_t>(ri);
                nb.domain = cfg.regions_[ri].domain;
                lastSite.push_back(nullptr);
                open = true;
            }
            BasicBlock &bb = cfg.blocks_.back();
            bb.insts.push_back({s.pc, s.inst});
            bb.end = s.pc + s.inst.length;
            expect = bb.end;
            lastSite.back() = &s;
            if (endsBlock(s))
                open = false;
        }
    }
    for (const BasicBlock &bb : cfg.blocks_)
        cfg.startIndex_.emplace(bb.start, bb.id);

    // Pass 4: wire successor edges off each block's final instruction.
    for (BasicBlock &bb : cfg.blocks_) {
        const Site *s = lastSite[bb.id];
        auto linkTo = [&](EdgeKind kind, Addr addr, GateId gate = 0,
                          DomainId dest = 0) {
            auto it = cfg.startIndex_.find(addr);
            if (it != cfg.startIndex_.end())
                bb.succs.push_back({kind, it->second, gate, dest});
        };
        Addr next = bb.end;
        switch (s->cf) {
          case CtrlFlow::None:
            break;
          case CtrlFlow::Branch:
            if (s->target)
                linkTo(EdgeKind::Branch, *s->target);
            linkTo(EdgeKind::Fallthrough, next);
            continue;
          case CtrlFlow::Jump:
          case CtrlFlow::IndirectJump:
            if (s->target)
                linkTo(EdgeKind::Jump, *s->target);
            else
                cfg.unresolved_.push_back({s->pc, bb.id, false});
            continue;
          case CtrlFlow::Call:
          case CtrlFlow::IndirectCall:
            if (s->target)
                linkTo(EdgeKind::Call, *s->target);
            else
                cfg.unresolved_.push_back({s->pc, bb.id, true});
            // The matching ret resumes at the call's fall-through.
            linkTo(EdgeKind::Return, next);
            continue;
          case CtrlFlow::Return:
            continue;
        }
        switch (s->inst.cls) {
          case InstClass::GateCall:
          case InstClass::GateCallS: {
            GateSite site{s->pc, bb.id,
                          s->inst.cls == InstClass::GateCallS, false, 0};
            if (s->gateId && *s->gateId < cfg.gates_.size()) {
                site.resolved = true;
                site.gate = static_cast<GateId>(*s->gateId);
                const SgtEntry &g = cfg.gates_[site.gate];
                linkTo(EdgeKind::Gate, g.dest_addr, site.gate,
                       static_cast<DomainId>(g.dest_domain));
            }
            cfg.gateSites_.push_back(site);
            // hcrets lands back on the hccalls fall-through.
            if (s->inst.cls == InstClass::GateCallS)
                linkTo(EdgeKind::Return, next);
            break;
          }
          case InstClass::Syscall:
            // The trap handler eventually trap-returns here; the
            // handler itself is a dataflow entry seed, not an edge.
            linkTo(EdgeKind::Fallthrough, next);
            break;
          case InstClass::TrapRet:
          case InstClass::GateRet:
          case InstClass::Halt:
            break;
          default:
            linkTo(EdgeKind::Fallthrough, next);
            break;
        }
    }
    return cfg;
}

const BasicBlock *
Cfg::blockStarting(Addr addr) const
{
    auto it = startIndex_.find(addr);
    return it == startIndex_.end() ? nullptr : &blocks_[it->second];
}

const BasicBlock *
Cfg::blockContaining(Addr addr) const
{
    for (const BasicBlock &bb : blocks_)
        if (addr >= bb.start && addr < bb.end)
            return &bb;
    return nullptr;
}

std::vector<bool>
Cfg::reachableFrom(const std::vector<Addr> &entries) const
{
    std::vector<bool> seen(blocks_.size(), false);
    std::deque<std::uint32_t> work;
    auto push = [&](std::uint32_t id) {
        if (!seen[id]) {
            seen[id] = true;
            work.push_back(id);
        }
    };
    for (Addr a : entries)
        if (const BasicBlock *bb = blockStarting(a))
            push(bb->id);

    std::vector<bool> hasUnresolved(blocks_.size(), false);
    for (const IndirectSite &s : unresolved_)
        hasUnresolved[s.block] = true;

    while (!work.empty()) {
        std::uint32_t id = work.front();
        work.pop_front();
        for (const CfgEdge &e : blocks_[id].succs)
            push(e.to);
        if (hasUnresolved[id])
            for (const BasicBlock &bb : blocks_)
                if (bb.domain == blocks_[id].domain)
                    push(bb.id);
    }
    return seen;
}

} // namespace isagrid
