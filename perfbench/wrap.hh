/**
 * @file
 * Counts taken by the call wrappers in wrap.cc. They are collected in
 * every run (a few increments per call), but only the traced run
 * reports them.
 */

#ifndef PERFBENCH_WRAP_HH_
#define PERFBENCH_WRAP_HH_

#include <cstdint>

namespace perfbench {

struct WrapCounters
{
    std::uint64_t constructs = 0;    //!< Machine::rocket / gem5x86 calls
    std::uint64_t insts = 0;         //!< retired by CoreBase::run calls
    std::uint64_t mc_states = 0;     //!< McResult::stats.states, summed
    std::uint64_t contract_runs = 0; //!< checkContract calls
    std::uint64_t oracle_calls = 0;  //!< runOracles calls (operation ids)
};

extern WrapCounters wrapCounters;

} // namespace perfbench

#endif // PERFBENCH_WRAP_HH_
