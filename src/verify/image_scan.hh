/**
 * @file
 * Shared image-scanning infrastructure for the static analyses.
 *
 * Both the per-image policy verifier (src/verify) and the bounded
 * model checker (src/modelcheck) need the same primitives: forward
 * constant propagation over straight-line code and a linear decode
 * walk of a code region (the policy itself they read through
 * isagrid/policy_view.hh). Keeping them in one internal target
 * guarantees the two analyses stay in lockstep — a decoder change
 * cannot silently diverge them.
 */

#ifndef ISAGRID_VERIFY_IMAGE_SCAN_HH_
#define ISAGRID_VERIFY_IMAGE_SCAN_HH_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "isa/isa_model.hh"
#include "isagrid/policy_view.hh"
#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace isagrid {

/**
 * One contiguous range of guest code owned by a single domain. The
 * kernel builder records these while emitting; hand-built images list
 * their own.
 */
struct CodeRegion
{
    Addr base = 0;   //!< first code byte
    Addr limit = 0;  //!< one past the last code byte
    DomainId domain = 0;
    std::string name;

    bool contains(Addr addr) const { return addr >= base && addr < limit; }
};

/** "%#x" rendering shared by the analysis reports. */
std::string hexAddr(std::uint64_t value);

/** Append @p s to @p out with JSON string escaping. */
void jsonEscape(std::string &out, const std::string &s);

/**
 * Forward constant propagation over one code region. The builders
 * materialise gate ids, MSR numbers and indirect-jump targets with
 * li / movabs sequences immediately before use, so tracking only the
 * immediate-forming instructions resolves almost every value-dependent
 * check statically. Anything else (loads, CSR reads, unmodelled ALU
 * ops) kills the destination, and any control transfer kills the whole
 * window — constants never survive a join point, keeping the analysis
 * trivially sound.
 */
class ConstTracker
{
  public:
    ConstTracker(unsigned num_regs, bool zero_hardwired);

    std::optional<RegVal> value(unsigned reg) const;

    /** Update the window with the effects of @p inst at @p pc. */
    void step(const DecodedInst &inst, Addr pc);

    void clear();

  private:
    void set(unsigned reg, RegVal value);
    void propagate(unsigned reg, std::optional<RegVal> value);
    void kill(unsigned reg);

    std::vector<bool> known;
    std::vector<RegVal> vals;
    bool zeroHardwired;
};

/** One instruction visited by walkRegion. */
struct ScanStep
{
    Addr pc = 0;
    const DecodedInst *inst = nullptr;
    /** Constant window *before* the instruction executes. */
    const ConstTracker *consts = nullptr;
};

/**
 * Linear decode walk of one code region with constant tracking:
 * invokes @p visit once per decoded instruction in address order.
 * Undecodable bytes invoke @p undecodable (when set), clear the
 * constant window and advance by the ISA's minimum encoding step.
 * Returns false (without visiting anything) when the region is empty
 * or outside physical memory.
 */
bool walkRegion(const IsaModel &isa, const PhysMem &mem,
                const CodeRegion &region,
                const std::function<void(const ScanStep &)> &visit,
                const std::function<void(Addr)> &undecodable = {});

} // namespace isagrid

#endif // ISAGRID_VERIFY_IMAGE_SCAN_HH_
