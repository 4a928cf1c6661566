/**
 * @file
 * Shared image-scanning infrastructure for the static analyses.
 *
 * Both the per-image policy verifier (src/verify) and the bounded
 * model checker (src/modelcheck) need the same primitives: a snapshot
 * of the Table 2 registers, a PCU's-eye view of the HPT/SGT tables in
 * guest memory, forward constant propagation over straight-line code,
 * and a linear decode walk of a code region. Keeping them in one
 * internal target guarantees the two analyses stay in lockstep — a
 * decoder or table-layout change cannot silently diverge them.
 */

#ifndef ISAGRID_VERIFY_IMAGE_SCAN_HH_
#define ISAGRID_VERIFY_IMAGE_SCAN_HH_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "isa/grid_regs.hh"
#include "isa/isa_model.hh"
#include "isagrid/hpt.hh"
#include "isagrid/sgt.hh"
#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace isagrid {

class PrivilegeCheckUnit;

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

/**
 * The domain configuration under analysis: the Table 2 register
 * values. Everything else (HPT words, SGT entries) is read from guest
 * memory through these bases, exactly as the PCU would on a cache miss.
 */
struct PolicySnapshot
{
    std::array<RegVal, numGridRegs> regs{};

    RegVal reg(GridReg r) const
    {
        return regs[static_cast<std::size_t>(r)];
    }

    /** Capture the live register values of a configured PCU. */
    static PolicySnapshot fromPcu(const PrivilegeCheckUnit &pcu);
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

/**
 * Reads the HPT and SGT from guest memory through the snapshot's base
 * registers, exactly as the PCU would on a privilege-cache miss. The
 * PCU raises MemoryFault for a walk that leaves physical memory
 * (docs/isa_extension.md §6): the *OnBus queries say whether a check's
 * walk stays on the bus, and the verdict queries read a walk off the
 * bus as deny. The structural checks report the broken base register
 * separately.
 */
class PolicyView
{
  public:
    PolicyView(const IsaModel &isa, const PhysMem &mem,
               const PolicySnapshot &snap)
        : mem(mem), snap(snap),
          hpt(isa.numInstTypes(), isa.numControlledCsrs(),
              isa.numMaskableCsrs())
    {
    }

    DomainId numDomains() const { return snap.reg(GridReg::DomainNr); }
    GateId numGates() const { return snap.reg(GridReg::GateNr); }

    bool instAllowed(DomainId domain, InstTypeId type) const;
    bool csrReadAllowed(DomainId domain, CsrIndex index) const;
    bool csrWriteAllowed(DomainId domain, CsrIndex index) const;

    /** Bit-mask word of @p domain for maskable CSR @p mask_index. */
    RegVal mask(DomainId domain, CsrIndex mask_index) const;

    SgtEntry gate(GateId id) const;

    /**
     * The instruction checks' walk lies in memory: the domain's whole
     * instruction-bitmap row, which the PCU's bypass register (on by
     * default) refills from. Without the bypass the PCU reads only the
     * checked word; the two differ only for a row of more than one
     * word, and both ISA models fit their types in one.
     */
    bool instOnBus(DomainId domain) const;
    /** The CSR checks' register-bitmap word lies in memory. */
    bool csrOnBus(DomainId domain, CsrIndex index) const;
    /** The bit-mask word lies in memory. */
    bool maskOnBus(DomainId domain, CsrIndex mask_index) const;
    /** SGT entry @p id lies in memory. */
    bool gateOnBus(GateId id) const;

    const HptLayout &layout() const { return hpt; }

  private:
    bool onBus(Addr addr, std::uint64_t size = 8) const
    {
        return addr < mem.size() && mem.size() - addr >= size;
    }
    RegVal word(Addr addr) const;

    const PhysMem &mem;
    const PolicySnapshot &snap;
    HptLayout hpt;
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
