/**
 * @file
 * Per-instruction observation hook: the contract checkers' taint
 * tracker and the text trace (cpu/text_trace.hh).
 *
 * The self-composition oracle (src/contract) needs to watch every
 * retired instruction of a run: which instruction executed, what the
 * execution engine did with memory and CSRs, and whether a fault was
 * delivered. The hook follows the ISAGRID_TRACE_EVENT discipline: a
 * single null-pointer compare on the hot step path when detached, so
 * uninstrumented runs pay (almost) nothing — bench_contract_overhead
 * holds the disabled-path cost under 2%. An attached hook runs the
 * core on the interpreter, which observes every step.
 */

#ifndef ISAGRID_CPU_STEP_HOOK_HH_
#define ISAGRID_CPU_STEP_HOOK_HH_

#include <cstdint>

#include "isa/isa_model.hh"
#include "sim/types.hh"

namespace isagrid {

/** Everything the hook may inspect about one architectural step. */
struct StepObservation
{
    /** Outcome of the ISA-Grid instruction check. */
    enum class Check : std::uint8_t
    {
        NotRun,  //!< fetch/decode faulted, or the classical check did
        Allowed,
        Denied,
    };

    Addr pc = 0;
    /** Decoded instruction; null when fetch/decode itself faulted. */
    const DecodedInst *inst = nullptr;
    /**
     * Execution result; null on the gate / prefetch / cache-flush
     * paths and on faults raised before execute ran.
     */
    const ExecResult *exec = nullptr;
    /** Fault delivered this step (None for a clean step). */
    FaultType fault = FaultType::None;
    /** Where the fault was taken (a system call resumes past it). */
    Addr fault_pc = 0;
    /** Cycle count when the step began (after any timer delivery). */
    Cycle cycle = 0;
    /** Domain the instruction was checked in (before any gate). */
    DomainId domain = 0;
    Check check = Check::NotRun;
    /** Privilege-cache fill stall of the instruction check. */
    Cycle check_stall = 0;
};

/** Observer of retired instructions (see file comment). */
class StepHook
{
  public:
    virtual ~StepHook() = default;

    /**
     * Called once per architectural step, after the step's state
     * changes are committed (and after fault delivery, when the step
     * faulted). @p state is the post-step architectural state.
     */
    virtual void onStep(const ArchState &state,
                        const StepObservation &obs) = 0;
};

} // namespace isagrid

#endif // ISAGRID_CPU_STEP_HOOK_HH_
