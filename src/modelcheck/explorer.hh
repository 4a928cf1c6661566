/**
 * @file
 * The domain-switch state space, walked by both the model checker and
 * the contract checker's relational check (src/contract/relcheck).
 *
 * ISA-Grid switches domains one way only (Section 4.2): hccall and
 * hccalls pass through an SGT entry, hccalls pushes a (return pc,
 * source domain) frame on the trusted stack, and hcrets pops it. The
 * Explorer holds that semantics once — the SGT gates decoded from the
 * image, the hcrets site of each domain, the stack capacity — with the
 * breadth-first search over it: visited set, state cap, depth bound,
 * and the parent links counterexample traces are read back from.
 *
 * A state is a flat run of words, which is also its identity:
 *
 *   [the analysis's abstraction words, domain,
 *    (return_pc, src) per trusted-stack frame, bottom to top]
 *
 * An analysis passes itself to run() and supplies, resolved at
 * compile time:
 *
 *   void discovered(std::uint32_t node);           // a new state
 *   void gateFault(std::uint32_t from, GateId g);  // SGT entry names a
 *       // domain outside [0, domain-nr): the PCU gate-faults; the edge
 *       // counts as a transition and has no successor
 *   void gateEntered(std::uint32_t from, GateId g, DomainId dest);
 *       // a gate edge is taken (before its target is looked up)
 *   void expand(std::uint32_t node);  // its own successors, built with
 *       // successor() and follow()
 *
 * Successors come in a fixed order — gates by id, then hcrets, then
 * the analysis's — and the state cap keeps the first states reached,
 * so the order decides what a capped run explores.
 */

#ifndef ISAGRID_MODELCHECK_EXPLORER_HH_
#define ISAGRID_MODELCHECK_EXPLORER_HH_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <unordered_set>
#include <vector>

#include "modelcheck/modelcheck.hh"
#include "verify/image_scan.hh"

namespace isagrid {

/** One SGT entry with the instruction decoded at its gate address. */
struct GateInfo
{
    SgtEntry entry;
    bool usable = false; //!< on the bus, decodes to hccall/hccalls
    bool extended = false; //!< hccalls
    InstTypeId type = invalidInstType;
    std::uint8_t rs1 = 0;
    std::uint8_t length = 0;
};

/** Breadth-first walk of the domain-switch state space. */
class Explorer
{
  public:
    /** Returned by follow() when the state cap stops a new state. */
    static constexpr std::uint32_t none = ~0u;

    Explorer(const IsaModel &isa, const PhysMem &mem,
             const PolicySnapshot &snap,
             const std::vector<CodeRegion> &regions,
             std::size_t max_states, unsigned depth_bound);
    Explorer(const Explorer &) = delete; // the visited set points here
    Explorer &operator=(const Explorer &) = delete;

    const std::vector<GateInfo> &gates() const { return gates_; }

    /** Domain @p d's first hcrets site it is granted, or nullptr. */
    const Addr *retSite(DomainId d) const;

    /** The abstraction words of @p node, valid until the next follow(). */
    const RegVal *abstraction(std::uint32_t node) const
    {
        return words_.data() + nodes_[node].offset;
    }
    DomainId domain(std::uint32_t node) const
    {
        return abstraction(node)[absWords_];
    }
    std::size_t frames(std::uint32_t node) const
    {
        return (nodes_[node].size - absWords_ - 1) / 2;
    }

    /** The counterexample prefix leading to @p node. */
    std::vector<TraceStep> pathTo(std::uint32_t node) const;

    /** The step of gate @p gid taken from domain @p from to @p to. */
    TraceStep gateStep(GateId gid, DomainId from, DomainId to) const;

    /**
     * Start a successor of @p from with the same domain and stack and
     * return its abstraction words, for the caller to change before
     * follow().
     */
    RegVal *
    successor(std::uint32_t from)
    {
        std::span<const RegVal> w = wordsOf(from);
        scratch_.assign(w.begin(), w.end());
        return scratch_.data();
    }

    /**
     * Take the edge from @p from to the state built in successor():
     * count a transition and return the target's node — discovered,
     * with the edge @p make_step() builds, when new — or none when the
     * state cap stops it.
     */
    template <class Analysis, class MakeStep>
    std::uint32_t
    follow(Analysis &analysis, std::uint32_t from, MakeStep &&make_step)
    {
        ++stats_.transitions;
        return enter(analysis, from, make_step);
    }

    /** Explore from (@p abstraction, @p initial, empty stack). */
    template <class Analysis>
    ExplorerStats
    run(Analysis &analysis, DomainId initial,
        std::span<const RegVal> abstraction)
    {
        absWords_ = abstraction.size();
        scratch_.assign(abstraction.begin(), abstraction.end());
        scratch_.push_back(initial);
        enter(analysis, none, [] { return TraceStep{}; });
        // Nodes are numbered in discovery order, so the FIFO frontier
        // is exactly the nodes not yet expanded.
        for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
            stats_.peak_frontier =
                std::max(stats_.peak_frontier, nodes_.size() - id);
            if (nodes_[id].depth < depthBound_)
                expand(analysis, id);
        }
        stats_.states = nodes_.size();
        return stats_;
    }

  private:
    struct Node
    {
        std::size_t offset = 0; //!< first word in words_
        std::uint32_t size = 0; //!< number of words
        std::uint32_t parent = none;
        unsigned depth = 0;
    };

    /** Hash and equality of a state's words, a node's or scratch_'s. */
    struct StateHash
    {
        using is_transparent = void;
        const Explorer *ex;
        std::size_t operator()(std::uint32_t node) const
        {
            return (*this)(ex->wordsOf(node));
        }
        std::size_t operator()(std::span<const RegVal> words) const;
    };
    struct StateEqual
    {
        using is_transparent = void;
        const Explorer *ex;
        auto get(std::uint32_t node) const { return ex->wordsOf(node); }
        auto get(std::span<const RegVal> words) const { return words; }
        bool operator()(const auto &a, const auto &b) const
        {
            return std::ranges::equal(get(a), get(b));
        }
    };

    std::span<const RegVal> wordsOf(std::uint32_t node) const
    {
        return {abstraction(node), nodes_[node].size};
    }

    /** Add scratch_ as a node if new; none when the state cap stops it. */
    template <class Analysis, class MakeStep>
    std::uint32_t
    enter(Analysis &analysis, std::uint32_t parent, MakeStep &&make_step)
    {
        auto it = visited_.find(std::span<const RegVal>(scratch_));
        if (it != visited_.end())
            return *it;
        if (nodes_.size() >= maxStates_) {
            stats_.state_cap_hit = true;
            return none;
        }
        const std::uint32_t id = std::uint32_t(nodes_.size());
        const unsigned depth = parent == none ? 0 : nodes_[parent].depth + 1;
        stats_.depth_reached = std::max(stats_.depth_reached, depth);
        nodes_.push_back({words_.size(), std::uint32_t(scratch_.size()),
                          parent, depth});
        edges_.push_back(make_step());
        words_.insert(words_.end(), scratch_.begin(), scratch_.end());
        visited_.insert(id);
        analysis.discovered(id);
        return id;
    }

    template <class Analysis>
    void
    expand(Analysis &analysis, std::uint32_t id)
    {
        const DomainId d = domain(id);
        const DomainId domains = policy_.numDomains();

        // Gate calls, from every domain granted the gate instruction
        // (the SGT, not the caller, names the destination).
        for (GateId gid = 0; gid < gates_.size(); ++gid) {
            const GateInfo &g = gates_[gid];
            if (!g.usable || (d != 0 && g.type != invalidInstType &&
                              !policy_.instAllowed(d, g.type)))
                continue;
            ++stats_.transitions;
            if (domains != 0 && g.entry.dest_domain >= domains) {
                analysis.gateFault(id, gid);
                continue;
            }
            if (g.extended && frames(id) >= stackCapacity_)
                continue; // overflow: the PCU trusted-stack-faults
            const DomainId dest = g.entry.dest_domain;
            successor(id);
            scratch_[absWords_] = dest;
            if (g.extended)
                scratch_.insert(scratch_.end(),
                                {g.entry.gate_addr + g.length, d});
            analysis.gateEntered(id, gid, dest);
            enter(analysis, id, [&] { return gateStep(gid, d, dest); });
        }

        // hcrets: pops the top frame when the domain may execute one
        // of its hcrets sites and the frame names a configured,
        // non-zero source domain.
        const Addr *ret_pc = frames(id) != 0 ? retSite(d) : nullptr;
        const DomainId src = wordsOf(id).back();
        if (ret_pc != nullptr && src != 0 && (domains == 0 || src < domains)) {
            ++stats_.transitions;
            successor(id);
            scratch_.resize(scratch_.size() - 2);
            scratch_[absWords_] = src;
            enter(analysis, id, [&] {
                TraceStep step;
                step.kind = TraceStep::Kind::GateRet;
                step.pc = *ret_pc;
                step.in_image = true;
                step.domain_before = d;
                step.domain_after = src;
                return step;
            });
        }

        analysis.expand(id);
    }

    PolicyView policy_;
    std::vector<GateInfo> gates_;
    std::map<DomainId, Addr> retSites_;
    std::size_t stackCapacity_ = 0; //!< (hcsl - hcsb) / 16 frames
    std::size_t maxStates_;
    unsigned depthBound_;

    std::size_t absWords_ = 0;
    std::vector<RegVal> words_;   //!< every state's words, in node order
    std::vector<RegVal> scratch_; //!< the state being looked up
    std::vector<Node> nodes_;
    std::deque<TraceStep> edges_; //!< the step into each node
    std::unordered_set<std::uint32_t, StateHash, StateEqual> visited_;
    ExplorerStats stats_;
};

} // namespace isagrid

#endif // ISAGRID_MODELCHECK_EXPLORER_HH_
