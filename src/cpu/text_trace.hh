/**
 * @file
 * The text execution trace: a StepHook that writes one line per
 * architectural step.
 *
 * Each instruction line carries the cycle the step began at, the
 * domain the instruction was checked in (for a gate, the domain
 * before the switch), the ISA-Grid instruction-check outcome ('+'
 * allowed, '!' denied, '-' rejected by the classical privilege check
 * before the ISA-Grid check ran), pc and disassembly, plus
 * `; pcu-stall N` when the check waited on a privilege-cache fill. A
 * delivered fault adds a `>>> <fault> at <pc>` line; a fetch or decode
 * fault prints only that line. The core_trace_<isa> and
 * sim_trace_<isa> goldens in tests/data lock the format byte for byte.
 */

#ifndef ISAGRID_CPU_TEXT_TRACE_HH_
#define ISAGRID_CPU_TEXT_TRACE_HH_

#include <cstdio>
#include <ostream>

#include "cpu/step_hook.hh"
#include "isa/disasm.hh"

namespace isagrid {

/** Text trace of every step to a stream (see file comment). */
class TextTrace : public StepHook
{
  public:
    /** @p os must outlive the hook's attachment to a core. */
    explicit TextTrace(std::ostream &os) : os_(os) {}

    void
    onStep(const ArchState &, const StepObservation &obs) override
    {
        if (obs.inst) {
            char outcome = obs.check == StepObservation::Check::Allowed
                               ? '+'
                           : obs.check == StepObservation::Check::Denied
                               ? '!'
                               : '-';
            char head[64];
            std::snprintf(head, sizeof head, "%10llu d%-3llu %c %#10llx: ",
                          (unsigned long long)obs.cycle,
                          (unsigned long long)obs.domain, outcome,
                          (unsigned long long)obs.pc);
            os_ << head << disassemble(*obs.inst);
            if (obs.check_stall)
                os_ << "  ; pcu-stall " << (unsigned long long)obs.check_stall;
            os_ << "\n";
        }
        if (obs.fault != FaultType::None) {
            os_ << "           >>> " << faultName(obs.fault) << " at "
                << std::hex << obs.fault_pc << std::dec << "\n";
        }
    }

  private:
    std::ostream &os_;
};

} // namespace isagrid

#endif // ISAGRID_CPU_TEXT_TRACE_HH_
