/**
 * @file
 * Spans around library calls the benchmark cannot reach directly:
 * runFuzz() and runOracles() construct machines and call every
 * analyzer internally. Each wrapper is linked with GNU ld's
 * `--wrap=<symbol>`, so every call to the symbol from another object
 * file goes through the wrapper, which opens a span and calls the
 * original.
 *
 * A wrapper is compiled only when CMakeLists.txt found that it still
 * matches the library's declaration (PERFBENCH_WRAP_<NAME> defined),
 * and the static_assert below is what it checks. A library whose
 * signature changed therefore still builds and runs; only that
 * layer's spans go missing, and its per-layer metrics read 0.
 */

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "cpu/machine.hh"
#include "fuzz/artifact.hh"
#include "fuzz/mutate.hh"
#include "fuzz/oracles.hh"
#include "contract/contract.hh"
#include "kernel/kernel_builder.hh"
#include "modelcheck/modelcheck.hh"
#include "modelcheck/replay.hh"
#include "verify/minimize.hh"
#include "verify/superset.hh"
#include "verify/verify.hh"

#include "trace.hh"
#include "wrap.hh"

using namespace isagrid;

namespace perfbench {
WrapCounters wrapCounters;
} // namespace perfbench

using perfbench::Scope;
using perfbench::wrapCounters;

#define PERFBENCH_SIGNATURE(expr, type)                                  \
    static_assert(std::is_same_v<decltype(expr), type>, #expr)

// Member functions are declared as free functions taking the object
// pointer first: the Itanium C++ ABI passes `this` exactly like that.

#ifdef PERFBENCH_WRAP_MACHINE_ROCKET
PERFBENCH_SIGNATURE(&Machine::rocket,
                    std::unique_ptr<Machine> (*)(MachineConfig));
std::unique_ptr<Machine> realRocket(MachineConfig) asm(
    "__real__ZN7isagrid7Machine6rocketENS_13MachineConfigE");
std::unique_ptr<Machine> wrapRocket(MachineConfig) asm(
    "__wrap__ZN7isagrid7Machine6rocketENS_13MachineConfigE");
std::unique_ptr<Machine>
wrapRocket(MachineConfig config)
{
    Scope s("cpu.machine.construct");
    ++wrapCounters.constructs;
    return realRocket(std::move(config));
}
#endif

#ifdef PERFBENCH_WRAP_MACHINE_GEM5X86
PERFBENCH_SIGNATURE(&Machine::gem5x86,
                    std::unique_ptr<Machine> (*)(MachineConfig));
std::unique_ptr<Machine> realGem5x86(MachineConfig) asm(
    "__real__ZN7isagrid7Machine7gem5x86ENS_13MachineConfigE");
std::unique_ptr<Machine> wrapGem5x86(MachineConfig) asm(
    "__wrap__ZN7isagrid7Machine7gem5x86ENS_13MachineConfigE");
std::unique_ptr<Machine>
wrapGem5x86(MachineConfig config)
{
    Scope s("cpu.machine.construct");
    ++wrapCounters.constructs;
    return realGem5x86(std::move(config));
}
#endif

#ifdef PERFBENCH_WRAP_ARTIFACT_RESTORE
PERFBENCH_SIGNATURE(&FuzzArtifact::restore,
                    std::unique_ptr<Machine> (FuzzArtifact::*)(bool)
                        const);
std::unique_ptr<Machine> realRestore(const FuzzArtifact *, bool) asm(
    "__real__ZNK7isagrid12FuzzArtifact7restoreEb");
std::unique_ptr<Machine> wrapRestore(const FuzzArtifact *, bool) asm(
    "__wrap__ZNK7isagrid12FuzzArtifact7restoreEb");
std::unique_ptr<Machine>
wrapRestore(const FuzzArtifact *self, bool block_engine)
{
    // Same layer as the factory it calls: restore's own work (writing
    // the image, installing registers) is machine construction too.
    Scope s("cpu.machine.construct");
    return realRestore(self, block_engine);
}
#endif

#ifdef PERFBENCH_WRAP_CORE_RUN
PERFBENCH_SIGNATURE(&CoreBase::run, RunResult (CoreBase::*)(std::uint64_t));
RunResult realCoreRun(CoreBase *, std::uint64_t) asm(
    "__real__ZN7isagrid8CoreBase3runEm");
RunResult wrapCoreRun(CoreBase *, std::uint64_t) asm(
    "__wrap__ZN7isagrid8CoreBase3runEm");
RunResult
wrapCoreRun(CoreBase *self, std::uint64_t max_insts)
{
    Scope s("cpu.run");
    RunResult r = realCoreRun(self, max_insts);
    wrapCounters.insts += r.instructions;
    return r;
}
#endif

#ifdef PERFBENCH_WRAP_RUN_ORACLES
PERFBENCH_SIGNATURE(&runOracles,
                    OracleOutcome (*)(const FuzzArtifact &,
                                      const OracleOptions &));
OracleOutcome realRunOracles(const FuzzArtifact &,
                             const OracleOptions &) asm(
    "__real__ZN7isagrid10runOraclesERKNS_12FuzzArtifactERKNS_"
    "13OracleOptionsE");
OracleOutcome wrapRunOracles(const FuzzArtifact &,
                             const OracleOptions &) asm(
    "__wrap__ZN7isagrid10runOraclesERKNS_12FuzzArtifactERKNS_"
    "13OracleOptionsE");
OracleOutcome
wrapRunOracles(const FuzzArtifact &artifact, const OracleOptions &options)
{
    if (perfbench::Tracer::active)
        perfbench::Tracer::active->setOp(++wrapCounters.oracle_calls);
    Scope s("fuzz.oracles");
    return realRunOracles(artifact, options);
}
#endif

#ifdef PERFBENCH_WRAP_GENERATE_MUTATION
PERFBENCH_SIGNATURE(&generateMutation,
                    Mutation (*)(SplitMix64 &, const FuzzArtifact &,
                                 const IsaModel &));
Mutation realGenerateMutation(SplitMix64 &, const FuzzArtifact &,
                              const IsaModel &) asm(
    "__real__ZN7isagrid16generateMutationERNS_10SplitMix64ERKNS_"
    "12FuzzArtifactERKNS_8IsaModelE");
Mutation wrapGenerateMutation(SplitMix64 &, const FuzzArtifact &,
                              const IsaModel &) asm(
    "__wrap__ZN7isagrid16generateMutationERNS_10SplitMix64ERKNS_"
    "12FuzzArtifactERKNS_8IsaModelE");
Mutation
wrapGenerateMutation(SplitMix64 &rng, const FuzzArtifact &artifact,
                     const IsaModel &isa)
{
    Scope s("fuzz.mutate");
    return realGenerateMutation(rng, artifact, isa);
}
#endif

#ifdef PERFBENCH_WRAP_MUTATION_APPLY
PERFBENCH_SIGNATURE(&Mutation::apply,
                    void (Mutation::*)(FuzzArtifact &) const);
void realMutationApply(const Mutation *, FuzzArtifact &) asm(
    "__real__ZNK7isagrid8Mutation5applyERNS_12FuzzArtifactE");
void wrapMutationApply(const Mutation *, FuzzArtifact &) asm(
    "__wrap__ZNK7isagrid8Mutation5applyERNS_12FuzzArtifactE");
void
wrapMutationApply(const Mutation *self, FuzzArtifact &artifact)
{
    Scope s("fuzz.mutate");
    realMutationApply(self, artifact);
}
#endif

#ifdef PERFBENCH_WRAP_APPLY_MUTATIONS
PERFBENCH_SIGNATURE(&applyMutations,
                    void (*)(FuzzArtifact &,
                             const std::vector<Mutation> &));
void realApplyMutations(FuzzArtifact &, const std::vector<Mutation> &) asm(
    "__real__ZN7isagrid14applyMutationsERNS_12FuzzArtifactERKSt6vectorINS_"
    "8MutationESaIS3_EE");
void wrapApplyMutations(FuzzArtifact &, const std::vector<Mutation> &) asm(
    "__wrap__ZN7isagrid14applyMutationsERNS_12FuzzArtifactERKSt6vectorINS_"
    "8MutationESaIS3_EE");
void
wrapApplyMutations(FuzzArtifact &artifact,
                   const std::vector<Mutation> &mutations)
{
    Scope s("fuzz.mutate");
    realApplyMutations(artifact, mutations);
}
#endif

#ifdef PERFBENCH_WRAP_VERIFIER_RUN
PERFBENCH_SIGNATURE(&Verifier::run, VerifyReport (Verifier::*)());
VerifyReport realVerifierRun(Verifier *) asm(
    "__real__ZN7isagrid8Verifier3runEv");
VerifyReport wrapVerifierRun(Verifier *) asm(
    "__wrap__ZN7isagrid8Verifier3runEv");
VerifyReport
wrapVerifierRun(Verifier *self)
{
    Scope s("verify");
    return realVerifierRun(self);
}
#endif

#ifdef PERFBENCH_WRAP_RUN_XSCAN
PERFBENCH_SIGNATURE(&runXscan,
                    XscanReport (*)(const XscanScenario &,
                                    const XscanOptions &));
XscanReport realRunXscan(const XscanScenario &, const XscanOptions &) asm(
    "__real__ZN7isagrid8runXscanERKNS_13XscanScenarioERKNS_"
    "12XscanOptionsE");
XscanReport wrapRunXscan(const XscanScenario &, const XscanOptions &) asm(
    "__wrap__ZN7isagrid8runXscanERKNS_13XscanScenarioERKNS_"
    "12XscanOptionsE");
XscanReport
wrapRunXscan(const XscanScenario &scenario, const XscanOptions &options)
{
    Scope s("verify.xscan");
    return realRunXscan(scenario, options);
}
#endif

#ifdef PERFBENCH_WRAP_MC_RUN
PERFBENCH_SIGNATURE(&ModelChecker::run, McResult (ModelChecker::*)());
McResult realMcRun(ModelChecker *) asm(
    "__real__ZN7isagrid12ModelChecker3runEv");
McResult wrapMcRun(ModelChecker *) asm(
    "__wrap__ZN7isagrid12ModelChecker3runEv");
McResult
wrapMcRun(ModelChecker *self)
{
    Scope s("modelcheck");
    McResult r = realMcRun(self);
    wrapCounters.mc_states += r.stats.states;
    return r;
}
#endif

#ifdef PERFBENCH_WRAP_REPLAY_TRACE
PERFBENCH_SIGNATURE(&replayTrace,
                    ReplayResult (*)(Machine &,
                                     const std::vector<TraceStep> &,
                                     const PolicySnapshot &, DomainId,
                                     Addr));
ReplayResult realReplayTrace(Machine &, const std::vector<TraceStep> &,
                             const PolicySnapshot &, DomainId,
                             Addr) asm(
    "__real__ZN7isagrid11replayTraceERNS_7MachineERKSt6vectorINS_"
    "9TraceStepESaIS3_EERKNS_14PolicySnapshotEmm");
ReplayResult wrapReplayTrace(Machine &, const std::vector<TraceStep> &,
                             const PolicySnapshot &, DomainId,
                             Addr) asm(
    "__wrap__ZN7isagrid11replayTraceERNS_7MachineERKSt6vectorINS_"
    "9TraceStepESaIS3_EERKNS_14PolicySnapshotEmm");
ReplayResult
wrapReplayTrace(Machine &machine, const std::vector<TraceStep> &trace,
                const PolicySnapshot &snap, DomainId domain, Addr scratch)
{
    Scope s("modelcheck.replay");
    return realReplayTrace(machine, trace, snap, domain, scratch);
}
#endif

#ifdef PERFBENCH_WRAP_MINIMIZE_POLICY
PERFBENCH_SIGNATURE(&minimizePolicy,
                    MinimizeResult (*)(const IsaModel &, const PhysMem &,
                                       const PolicySnapshot &,
                                       PrivilegeInference &));
MinimizeResult realMinimizePolicy(const IsaModel &, const PhysMem &,
                                  const PolicySnapshot &,
                                  PrivilegeInference &) asm(
    "__real__ZN7isagrid14minimizePolicyERKNS_8IsaModelERKNS_7PhysMemERKNS_"
    "14PolicySnapshotERNS_18PrivilegeInferenceE");
MinimizeResult wrapMinimizePolicy(const IsaModel &, const PhysMem &,
                                  const PolicySnapshot &,
                                  PrivilegeInference &) asm(
    "__wrap__ZN7isagrid14minimizePolicyERKNS_8IsaModelERKNS_7PhysMemERKNS_"
    "14PolicySnapshotERNS_18PrivilegeInferenceE");
MinimizeResult
wrapMinimizePolicy(const IsaModel &isa, const PhysMem &mem,
                   const PolicySnapshot &snap, PrivilegeInference &inference)
{
    Scope s("verify.minpriv");
    return realMinimizePolicy(isa, mem, snap, inference);
}
#endif

#ifdef PERFBENCH_WRAP_APPLY_MINIMIZED
PERFBENCH_SIGNATURE(&applyMinimizedPolicy,
                    void (*)(const IsaModel &, PhysMem &,
                             const PolicySnapshot &,
                             const MinimizeResult &, PrivilegeCheckUnit *));
void realApplyMinimized(const IsaModel &, PhysMem &, const PolicySnapshot &,
                        const MinimizeResult &, PrivilegeCheckUnit *) asm(
    "__real__ZN7isagrid20applyMinimizedPolicyERKNS_8IsaModelERNS_7PhysMemE"
    "RKNS_14PolicySnapshotERKNS_14MinimizeResultEPNS_18PrivilegeCheckUnitE");
void wrapApplyMinimized(const IsaModel &, PhysMem &, const PolicySnapshot &,
                        const MinimizeResult &, PrivilegeCheckUnit *) asm(
    "__wrap__ZN7isagrid20applyMinimizedPolicyERKNS_8IsaModelERNS_7PhysMemE"
    "RKNS_14PolicySnapshotERKNS_14MinimizeResultEPNS_18PrivilegeCheckUnitE");
void
wrapApplyMinimized(const IsaModel &isa, PhysMem &mem,
                   const PolicySnapshot &snap, const MinimizeResult &result,
                   PrivilegeCheckUnit *pcu)
{
    Scope s("verify.minpriv");
    realApplyMinimized(isa, mem, snap, result, pcu);
}
#endif

#ifdef PERFBENCH_WRAP_CHECK_CONTRACT
PERFBENCH_SIGNATURE(&checkContract,
                    ContractReport (*)(const ContractScenario &,
                                       const ContractOptions &));
ContractReport realCheckContract(const ContractScenario &,
                                 const ContractOptions &) asm(
    "__real__ZN7isagrid13checkContractERKNS_16ContractScenarioERKNS_"
    "15ContractOptionsE");
ContractReport wrapCheckContract(const ContractScenario &,
                                 const ContractOptions &) asm(
    "__wrap__ZN7isagrid13checkContractERKNS_16ContractScenarioERKNS_"
    "15ContractOptionsE");
ContractReport
wrapCheckContract(const ContractScenario &scenario,
                  const ContractOptions &options)
{
    Scope s("contract");
    ++wrapCounters.contract_runs;
    return realCheckContract(scenario, options);
}
#endif

#ifdef PERFBENCH_WRAP_KERNEL_BUILD
PERFBENCH_SIGNATURE(&KernelBuilder::build,
                    KernelImage (KernelBuilder::*)(Addr));
KernelImage realKernelBuild(KernelBuilder *, Addr) asm(
    "__real__ZN7isagrid13KernelBuilder5buildEm");
KernelImage wrapKernelBuild(KernelBuilder *, Addr) asm(
    "__wrap__ZN7isagrid13KernelBuilder5buildEm");
KernelImage
wrapKernelBuild(KernelBuilder *self, Addr user_entry)
{
    Scope s("kernel.build");
    return realKernelBuild(self, user_entry);
}
#endif
