/**
 * @file
 * Static privilege-policy verification of guest images (isagrid-verify).
 *
 * The runtime PCU enforces the paper's invariants one executed
 * instruction at a time, so a misconfigured domain layout is only
 * discovered on the paths a workload happens to execute. This library
 * checks a *loaded* guest image plus its domain configuration (HPT
 * bitmaps, bit-mask arrays, SGT and trusted-memory bounds, exactly as
 * domain-0 software wrote them to guest memory) with no simulation:
 *
 *  1. gate table sanity (Section 4.2 property i): every SGT entry's
 *     gate_addr decodes to a real hccall/hccalls and dest_addr lands on
 *     an instruction boundary inside the destination domain's code;
 *  2. an ERIM-style scan of each domain's code — linear plus, on the
 *     variable-length x86 ISA, every misaligned byte offset — for
 *     reachable gate or CSR-write encodings not covered by the SGT and
 *     bitmaps (RISC-V gets the 2-byte-aligned variant);
 *  3. structural checks of properties (i)-(iv) and Section 4.5: the
 *     HPT, SGT and trusted stack lie inside trusted memory, and no
 *     domain other than domain-0 holds write privilege over the
 *     ISA-Grid table/base registers;
 *  4. a least-privilege lint: instruction types and CSR bits granted in
 *     a domain's bitmaps but never used by its code;
 *  5. the domain-transition graph (nodes = domains, edges = SGT
 *     entries), flagging unreachable domains and escalation paths into
 *     domain-0.
 *
 * Severities: a Violation is a hole the PCU would (or could not) catch
 * only at runtime and must never appear in a correct configuration; a
 * Warning is suspicious but has legitimate uses (e.g. the per-thread
 * trusted-stack kernel deliberately gates into domain-0); a Lint is a
 * least-privilege improvement opportunity.
 */

#ifndef ISAGRID_VERIFY_VERIFY_HH_
#define ISAGRID_VERIFY_VERIFY_HH_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/grid_regs.hh"
#include "isa/isa_model.hh"
#include "mem/phys_mem.hh"
#include "sim/types.hh"
#include "verify/image_scan.hh"

namespace isagrid {

/** Severity of one verifier finding (see file comment). */
enum class Severity : std::uint8_t
{
    Violation,
    Warning,
    Lint,
};

/** Human-readable severity name ("violation" / "warning" / "lint"). */
const char *severityName(Severity severity);

/** One verifier finding. */
struct Finding
{
    Severity severity = Severity::Violation;
    std::string check;  //!< rule identifier, e.g. "gate-decode"
    DomainId domain = 0;
    Addr addr = 0;      //!< code or table address the finding anchors to
    std::string message;
};

/** Verifier knobs. */
struct VerifyOptions
{
    /** Emit least-privilege Lint findings (check 4). */
    bool lint = false;
    /** Run the ERIM-style misaligned-offset scan (check 2). */
    bool scan_misaligned = true;
    /**
     * Also run the superset-disassembly reachability audit
     * (verify/superset.hh) and merge its findings (the ui-priv-escape /
     * ui-gate-forge family) into the report. Off by default: the
     * occurrence-level scan (check 2) already covers the image, and
     * the audit needs the entry points below to prune well.
     */
    bool superset = false;
    /** Explicit entry points for the superset audit (boot pc, trap). */
    std::vector<Addr> entries;
    /** Stop recording after this many findings (the count keeps going). */
    std::size_t max_findings = 256;
};

/** The result of one verification run. */
class VerifyReport
{
  public:
    void add(Severity severity, std::string check, DomainId domain,
             Addr addr, std::string message);

    const std::vector<Finding> &findings() const { return findings_; }
    std::size_t violations() const { return counts[0]; }
    std::size_t warnings() const { return counts[1]; }
    std::size_t lints() const { return counts[2]; }
    bool clean() const { return violations() == 0; }

    /** Human-readable multi-line report (one line per finding). */
    std::string text() const;

    /** Structured JSON rendering of the same report. */
    std::string json() const;

  private:
    friend class Verifier;
    std::vector<Finding> findings_;
    std::array<std::size_t, 3> counts{};
    std::size_t max_findings = ~std::size_t{0};
};

/** The static policy verifier (see file comment). */
class Verifier
{
  public:
    /**
     * @param isa      ISA model used for decoding and the Section 4.1
     *                 index mappings
     * @param mem      guest memory holding the image and the tables
     * @param snapshot the Table 2 register values
     * @param regions  the per-domain code map of the image
     */
    Verifier(const IsaModel &isa, const PhysMem &mem,
             const PolicySnapshot &snapshot,
             std::vector<CodeRegion> regions,
             const VerifyOptions &options = {});

    /** Run every check and return the findings. */
    VerifyReport run();

  private:
    struct RegionScan;

    void checkStructure(VerifyReport &report) const;
    void scanRegion(const CodeRegion &region, RegionScan &scan,
                    VerifyReport &report) const;
    void scanMisaligned(const CodeRegion &region, const RegionScan &scan,
                        VerifyReport &report) const;
    void checkGateTargets(const std::vector<RegionScan> &scans,
                          VerifyReport &report) const;
    void checkTransitionGraph(VerifyReport &report) const;
    void lintLeastPrivilege(const std::vector<RegionScan> &scans,
                            VerifyReport &report) const;

    const CodeRegion *regionOf(Addr addr) const;

    const IsaModel &isa;
    const PhysMem &mem;
    PolicySnapshot snap;
    PolicyView policy;
    std::vector<CodeRegion> regions;
    VerifyOptions options;
};

} // namespace isagrid

#endif // ISAGRID_VERIFY_VERIFY_HH_
