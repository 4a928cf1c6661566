/**
 * @file
 * Bounded model checking of the domain-switching state space
 * (isagrid-mc).
 *
 * The static verifier (src/verify) checks one domain configuration a
 * property at a time; this module asks the *reachability* questions
 * that single-configuration checks cannot answer: what can a chain of
 * individually-legal domain switches and CSR writes compose to?
 *
 * The checker abstracts a loaded guest image into an explicit-state
 * transition system:
 *
 *   state      = (current domain,
 *                 trusted-stack contents as (return_pc, src) frames,
 *                 per-bit must/may abstraction of each bit-maskable
 *                 CSR: `known` bits still guaranteed to equal their
 *                 boot value, `dirty` bits possibly flipped through
 *                 bit-mask writes)
 *   transitions = the domain switches — every SGT-registered
 *                 hccall/hccalls edge and the hcrets pops — walked
 *                 breadth-first by the explorer (modelcheck/explorer.hh)
 *                 the contract checker shares, plus every write to a
 *                 bit-maskable CSR the domain's double-bitmap or
 *                 bit-mask permits (a masked write clears `known` and
 *                 sets `dirty` over the mask bits; an authorized full
 *                 write clears `known` only).
 *
 * Properties checked over the reachable states:
 *
 *  - write-composition escalation (mc-mask-composition): a chain of
 *    masked writes by different domains flips a set of bits no single
 *    participating mask covers;
 *  - trusted-stack unforgeability (mc-ret-underflow, mc-stack-forge):
 *    an hcrets site reachable with an empty trusted stack, and stack
 *    storage a non-zero domain can overwrite directly;
 *  - domain-0 escalation (mc-domain0-entry, mc-gate-dest-domain):
 *    multi-hop gate chains reaching domain-0 privileges from an
 *    unprivileged domain, including SGT entries whose raw dest_domain
 *    word lies outside [0, domain-nr).
 *
 * Additionally, at the first state reaching each domain, the domain's
 * code regions are scanned (via the shared src/verify walk) for sites
 * the PCU would reject in that state — denied instruction types,
 * denied CSR accesses, forged gates, control transfers into hidden or
 * injected instructions, stores into trusted memory. Each finding
 * carries the *first* fault stepOne() would raise, in check order.
 *
 * Every violation carries a concrete counterexample trace;
 * modelcheck/replay.hh assembles and executes it on the Machine
 * simulator, asserting the PCU's actual per-step outcomes.
 */

#ifndef ISAGRID_MODELCHECK_MODELCHECK_HH_
#define ISAGRID_MODELCHECK_MODELCHECK_HH_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "isa/isa_model.hh"
#include "mem/phys_mem.hh"
#include "sim/types.hh"
#include "verify/image_scan.hh"
#include "verify/verify.hh"

namespace isagrid {

/** Model-checker knobs. */
struct McOptions
{
    /** BFS depth bound (gate hops + modelled CSR writes). */
    unsigned depth_bound = 8;
    /** Stop exploring after this many distinct states. */
    std::size_t max_states = 1 << 16;
    /** Report gates into domain-0 as Violation instead of Warning. */
    bool domain0_entry_violation = false;
    /** Stop recording after this many findings (counters keep going). */
    std::size_t max_violations = 64;
};

/** One step of a counterexample trace. */
struct TraceStep
{
    enum class Kind : std::uint8_t
    {
        GateCall,  //!< hccall at a concrete gate site
        GateCallS, //!< hccalls (pushes the trusted stack)
        GateRet,   //!< hcrets at a concrete site
        CsrWrite,  //!< synthesized CSR write (value = old ^ flip)
        Inst,      //!< execute the image instruction at pc
        Store,     //!< execute an image store site (code injection)
    };

    Kind kind = Kind::Inst;
    Addr pc = 0;       //!< where the step executes (0: assembled stub)
    bool in_image = false; //!< pc addresses existing guest bytes
    GateId gate = 0;
    std::uint32_t csr_addr = ~0u;
    RegVal flip = 0;    //!< XOR applied to the live CSR value
    bool masked = false; //!< permitted through the bit-mask equation
    Addr store_addr = 0;   //!< assembled Store: destination address
    RegVal store_value = 0; //!< assembled Store: 64-bit value written
    /** The PCU outcome this step must produce (None: must succeed). */
    FaultType expect = FaultType::None;
    DomainId domain_before = 0;
    DomainId domain_after = 0;
    /** Register values the replay seeds before executing the step. */
    std::vector<std::pair<unsigned, RegVal>> seed;
    std::string note;
};

/** One property violation (or warning) with its counterexample. */
struct McViolation
{
    Severity severity = Severity::Violation;
    std::string check;
    DomainId domain = 0;
    Addr addr = 0;
    std::string message;
    std::vector<TraceStep> trace;
};

/** Counters of the domain-switch explorer (explorer.hh). */
struct ExplorerStats
{
    std::size_t states = 0;       //!< distinct states discovered
    std::size_t transitions = 0;  //!< edges taken (incl. revisits)
    std::size_t peak_frontier = 0;
    unsigned depth_reached = 0;
    bool state_cap_hit = false;
};

/** Exploration statistics (also the bench_mc_statespace payload). */
struct McStats : ExplorerStats
{
    std::size_t domains_scanned = 0; //!< domains whose code was scanned
};

/** The result of one model-checking run. */
struct McResult
{
    std::vector<McViolation> findings;
    McStats stats;

    std::size_t violations() const;
    std::size_t warnings() const;
    bool clean() const { return violations() == 0; }

    /** Human-readable report: findings, traces and statistics. */
    std::string text() const;

    /** Structured JSON rendering of the same report. */
    std::string json() const;
};

/** The bounded model checker (see file comment). */
class ModelChecker
{
  public:
    /**
     * @param isa            ISA model (decode + Section 4.1 mappings)
     * @param mem            guest memory holding image and tables
     * @param snapshot       the Table 2 register values
     * @param regions        per-domain code map of the image
     * @param initial_domain domain of the initial state (0: reset)
     */
    ModelChecker(const IsaModel &isa, const PhysMem &mem,
                 const PolicySnapshot &snapshot,
                 std::vector<CodeRegion> regions,
                 DomainId initial_domain = 0,
                 const McOptions &options = {});
    ~ModelChecker();

    /** Explore the state space and return findings + statistics. */
    McResult run();

  private:
    struct Impl;
    Impl *impl;
};

} // namespace isagrid

#endif // ISAGRID_MODELCHECK_MODELCHECK_HH_
