/**
 * @file
 * Application workload profiles (Figures 6, 7 and 8).
 *
 * The paper evaluates SQLite's speed benchmark, the Mbedtls benchmark
 * tool and gzip/tar compression jobs. What decomposition overhead
 * depends on is the *kernel-entry density and kernel path mix* of each
 * application together with its user-side compute/memory character, so
 * each profile reproduces those: an unrolled compute/memory block of
 * the right flavour, a working-set-sized pointer walk, and a syscall
 * of the right mix every N instructions. Block sequences are generated
 * from a fixed seed, so runs are bit-reproducible.
 */

#ifndef ISAGRID_WORKLOADS_APPS_HH_
#define ISAGRID_WORKLOADS_APPS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "kernel/syscalls.hh"

namespace isagrid {

/** Workload character of one application. */
struct AppProfile
{
    std::string name;
    unsigned alu_per_block = 12;  //!< ALU ops per unrolled block
    unsigned mul_per_block = 0;   //!< multiplies per block
    unsigned mem_per_block = 4;   //!< loads/stores per block
    std::uint64_t working_set = 256 * 1024; //!< bytes (power of two)
    unsigned blocks_per_syscall = 8; //!< kernel-entry density
    std::vector<Sys> syscall_mix;    //!< rotated round-robin
    unsigned total_blocks = 20000;   //!< run length (rounded down to
                                     //!< a multiple of 8, at least 8)
    std::uint64_t seed = 0x5eed;

    /** Database engine: frequent read/write/stat, mixed compute. */
    static AppProfile sqlite();
    /** Crypto library bench: multiply-heavy, rare kernel entries. */
    static AppProfile mbedtls();
    /** Stream compressor: memory streaming, periodic read/write. */
    static AppProfile gzip();
    /** Archiver: file-metadata heavy, read/write/open/stat. */
    static AppProfile tar();

    /** All four, in the order the paper's figures list them. */
    static std::vector<AppProfile> all();
};

/**
 * Emit the profile's user program at layout::userCodeBase with the ROI
 * bracketed by simmarks 1 and 2. Returns the user entry address.
 */
Addr buildApp(Machine &machine, const AppProfile &profile);

/** ROI cycles of a finished run (between simmarks 1 and 2). */
Cycle appRoiCycles(const CoreBase &core);

/** ROI instructions of a finished run. */
std::uint64_t appRoiInstructions(const CoreBase &core);

} // namespace isagrid

#endif // ISAGRID_WORKLOADS_APPS_HH_
