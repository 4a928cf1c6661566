/**
 * @file
 * Command-line parsing shared by the isagrid-* tools: `--key=value`
 * matching and checked decimal counts. Each tool prints its own usage
 * text; a malformed number is a usage error (exit 2), never an abort
 * or a silent wrap-around.
 */

#ifndef ISAGRID_TOOLS_CLI_HH_
#define ISAGRID_TOOLS_CLI_HH_

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

namespace isagrid {

/**
 * Match a `--key=value` argument: true, with the value stored, when
 * @p arg is @p key immediately followed by '='.
 */
inline bool
eatOption(const char *arg, const char *key, std::string &value)
{
    std::size_t len = std::strlen(key);
    if (std::strncmp(arg, key, len) == 0 && arg[len] == '=') {
        value = arg + len + 1;
        return true;
    }
    return false;
}

/** A tool's usage printer (it exits with status 2). */
using UsageFn = void (*)(const char *argv0);

/**
 * A decimal count in [lo, hi]. Anything else (empty, signed,
 * non-numeric, trailing junk, out of range) is a usage error.
 */
inline std::uint64_t
count(const char *argv0, const std::string &v, UsageFn usage,
      std::uint64_t lo = 0,
      std::uint64_t hi = std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t n = 0;
    const char *end = v.data() + v.size();
    auto [ptr, ec] = std::from_chars(v.data(), end, n);
    if (ec != std::errc{} || ptr != end || n < lo || n > hi) {
        usage(argv0);
        std::exit(2);
    }
    return n;
}

/** count() for an unsigned option (depths, job and report counts). */
inline unsigned
countUnsigned(const char *argv0, const std::string &v, UsageFn usage,
              unsigned lo = 0)
{
    return unsigned(
        count(argv0, v, usage, lo, std::numeric_limits<unsigned>::max()));
}

} // namespace isagrid

#endif // ISAGRID_TOOLS_CLI_HH_
