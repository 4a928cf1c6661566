#include "workloads/apps.hh"

#include <algorithm>

#include "kernel/asm_iface.hh"
#include "kernel/layout.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace isagrid {

AppProfile
AppProfile::sqlite()
{
    AppProfile p;
    p.name = "sqlite";
    p.alu_per_block = 10;
    p.mul_per_block = 1;
    p.mem_per_block = 6;
    p.working_set = 512 * 1024;
    p.blocks_per_syscall = 4; // database engines enter the kernel often
    p.syscall_mix = {Sys::Read, Sys::Write, Sys::Stat, Sys::MmapTouch,
                     Sys::Open, Sys::Close, Sys::Write, Sys::CtxSwitch};
    p.total_blocks = 24000;
    return p;
}

AppProfile
AppProfile::mbedtls()
{
    AppProfile p;
    p.name = "mbedtls";
    p.alu_per_block = 14;
    p.mul_per_block = 4; // bignum arithmetic
    p.mem_per_block = 2;
    p.working_set = 64 * 1024;
    p.blocks_per_syscall = 64; // the benchmark tool barely syscalls
    p.syscall_mix = {Sys::Getpid, Sys::Write, Sys::Getpid,
                     Sys::CtxSwitch};  // scheduler tick
    p.total_blocks = 24000;
    return p;
}

AppProfile
AppProfile::gzip()
{
    AppProfile p;
    p.name = "gzip";
    p.alu_per_block = 8;
    p.mul_per_block = 0;
    p.mem_per_block = 8; // streaming window accesses
    p.working_set = 256 * 1024;
    p.blocks_per_syscall = 16;
    p.syscall_mix = {Sys::Read, Sys::Write, Sys::Read,
                     Sys::CtxSwitch};
    p.total_blocks = 24000;
    return p;
}

AppProfile
AppProfile::tar()
{
    AppProfile p;
    p.name = "tar";
    p.alu_per_block = 6;
    p.mul_per_block = 0;
    p.mem_per_block = 8;
    p.working_set = 256 * 1024;
    p.blocks_per_syscall = 6; // metadata + copy loops
    p.syscall_mix = {Sys::Read, Sys::Write, Sys::Stat, Sys::MmapTouch,
                     Sys::Open, Sys::Close, Sys::Read, Sys::CtxSwitch};
    p.total_blocks = 24000;
    return p;
}

std::vector<AppProfile>
AppProfile::all()
{
    return {sqlite(), mbedtls(), gzip(), tar()};
}

Addr
buildApp(Machine &machine, const AppProfile &profile)
{
    ISAGRID_ASSERT((profile.working_set &
                    (profile.working_set - 1)) == 0,
                   "working set must be a power of two");
    std::unique_ptr<AsmIface> ap =
        machine.isa().name() == "x86"
            ? makeX86Asm(layout::userCodeBase)
            : makeRiscvAsm(layout::userCodeBase);
    AsmIface &a = *ap;
    SplitMix64 rng(profile.seed);

    const unsigned arg0 = a.regArg(0), arg1 = a.regArg(1),
                   arg2 = a.regArg(2);
    const unsigned u0 = a.regUser(0); //!< outer block counter
    const unsigned u1 = a.regUser(1); //!< pointer-walk state
    const unsigned u2 = a.regUser(2); //!< data register
    const unsigned u3 = a.regUser(3); //!< accumulator

    a.li(a.regSp(), layout::userStackTop);
    a.li(u1, 0);
    a.li(u2, 0x9e3779b9);
    a.li(u3, 0);

    a.li(arg2, 1);
    a.simmark(arg2); // ROI start

    // The loop body unrolls eight blocks; syscall sites are placed
    // every blocks_per_syscall blocks (or gated on the outer counter
    // when the density is below one per unroll). Each site's syscall
    // is drawn from the profile's mix at build time, so a run
    // exercises the whole mix deterministically.
    constexpr unsigned unroll = 8;
    const unsigned bps = profile.blocks_per_syscall;
    unsigned mix_cursor = 0;

    auto emit_block = [&]() {
        unsigned alu_left = profile.alu_per_block;
        unsigned mul_left = profile.mul_per_block;
        unsigned mem_left = profile.mem_per_block;
        while (alu_left + mul_left + mem_left > 0) {
            std::uint64_t pick =
                rng.below(alu_left + mul_left + mem_left);
            if (pick < alu_left) {
                switch (rng.below(4)) {
                  case 0: a.add(u3, u2); break;
                  case 1: a.xor_(u2, u3); break;
                  case 2: a.addi(u3, int(rng.below(64)) - 32); break;
                  case 3: a.shli(u2, 1); break;
                }
                --alu_left;
            } else if (pick < alu_left + mul_left) {
                a.mul(u3, u2);
                --mul_left;
            } else {
                // Pointer walk over the working set: u1 advances by a
                // build-time-random stride, wrapped and 8-aligned.
                a.li(arg1, (rng.next() | 1) &
                               (profile.working_set - 1) & ~7ull);
                a.add(u1, arg1);
                a.li(arg1, profile.working_set - 1);
                a.and_(u1, arg1);
                a.li(arg1, layout::userDataBase);
                a.add(arg1, u1);
                if (rng.below(3) == 0)
                    a.store64(u2, arg1, 0);
                else
                    a.load64(u2, arg1, 0);
                --mem_left;
            }
        }
    };

    const unsigned t0 = a.regTmp(0), t1 = a.regTmp(1);

    auto emit_plain_syscall = [&](Sys s) {
        switch (s) {
          case Sys::Read:
          case Sys::Write:
            a.li(arg1, layout::userDataBase);
            a.li(arg2, 8);
            break;
          case Sys::Open:
            a.li(arg1, 0x5eed);
            break;
          case Sys::Close:
            a.li(arg1, 3);
            break;
          case Sys::MmapTouch:
            a.li(arg1, 7);
            break;
          default:
            break;
        }
        a.li(arg0, static_cast<std::uint64_t>(s));
        a.syscallInst();
    };

    auto emit_one_syscall = [&](Sys s) {
        if (s != Sys::CtxSwitch && s != Sys::MmapTouch) {
            emit_plain_syscall(s);
            return;
        }
        // Context switches and mapping changes are orders of magnitude
        // rarer than file I/O in real applications (timer-driven);
        // take this arm's heavyweight path on ~1/64 of its
        // invocations and a null syscall otherwise. The gating bits
        // (5..10) are disjoint from the arm-select bits (3..4).
        a.mov(t0, u0);
        a.shri(t0, 5);
        a.li(t1, 63);
        a.and_(t0, t1);
        auto common = a.newLabel();
        auto join = a.newLabel();
        a.bnez(t0, common);
        emit_plain_syscall(s);
        a.jmp(join);
        a.bind(common);
        emit_plain_syscall(Sys::Getpid);
        a.bind(join);
    };

    // One syscall site selects among four mix entries at *runtime*
    // (keyed by the outer block counter), so every run exercises the
    // whole mix even though sites are emitted statically. The kernel
    // preserves the regTmp set across syscalls, so t0/t1 are safe
    // selector scratch here.
    auto emit_syscall_site = [&]() {
        Sys arms[4];
        for (auto &arm : arms) {
            arm = profile.syscall_mix[mix_cursor++ %
                                      profile.syscall_mix.size()];
        }
        a.mov(t0, u0);
        a.shri(t0, 3);
        a.li(t1, 3);
        a.and_(t0, t1);
        auto join = a.newLabel();
        for (unsigned k = 0; k < 3; ++k) {
            auto next = a.newLabel();
            a.li(t1, k);
            a.bne(t0, t1, next);
            emit_one_syscall(arms[k]);
            a.jmp(join);
            a.bind(next);
        }
        emit_one_syscall(arms[3]);
        a.bind(join);
    };

    // At least one pass: a zero count would make loopDec wrap.
    a.li(u0, std::max(1u, profile.total_blocks / unroll));
    auto outer = a.newLabel();
    a.bind(outer);
    for (unsigned copy = 0; copy < unroll; ++copy) {
        emit_block();
        if (bps <= unroll) {
            if (copy % bps == 0)
                emit_syscall_site();
        } else if (copy == 0) {
            // Low density: gate the single site on the outer counter.
            auto no_sys = a.newLabel();
            a.mov(arg1, u0);
            a.li(arg2, bps / unroll - 1);
            a.and_(arg1, arg2);
            a.bnez(arg1, no_sys);
            emit_syscall_site();
            a.bind(no_sys);
        }
    }
    a.loopDec(u0, outer);

    a.li(arg2, 2);
    a.simmark(arg2); // ROI end
    a.li(arg0, 0);
    a.halt(arg0);
    a.loadInto(machine.mem());
    return layout::userCodeBase;
}

Cycle
appRoiCycles(const CoreBase &core)
{
    const SimMark *start = nullptr, *end = nullptr;
    for (const auto &m : core.marks()) {
        if (m.value == 1 && !start)
            start = &m;
        if (m.value == 2)
            end = &m;
    }
    ISAGRID_ASSERT(start && end, "ROI marks missing%s", "");
    return end->cycle - start->cycle;
}

std::uint64_t
appRoiInstructions(const CoreBase &core)
{
    const SimMark *start = nullptr, *end = nullptr;
    for (const auto &m : core.marks()) {
        if (m.value == 1 && !start)
            start = &m;
        if (m.value == 2)
            end = &m;
    }
    ISAGRID_ASSERT(start && end, "ROI marks missing%s", "");
    return end->instructions - start->instructions;
}

} // namespace isagrid
