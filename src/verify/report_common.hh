/**
 * @file
 * Report plumbing shared by the static-analysis tools.
 *
 * isagrid-verify, isagrid-mc, isagrid-contract and isagrid-xscan all
 * speak the same report dialect: a `--fail-on=SEVERITY` exit
 * threshold and a JSON "summary"
 * object whose field order downstream consumers (and the golden-file
 * tests) depend on. Each tool used to carry its own copy; this header
 * is the single definition, so the dialects cannot drift apart.
 */

#ifndef ISAGRID_VERIFY_REPORT_COMMON_HH_
#define ISAGRID_VERIFY_REPORT_COMMON_HH_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

namespace isagrid {

enum class Severity : std::uint8_t;

/**
 * Parse a `--fail-on=` severity threshold. Accepts "violation" and
 * "warning" always, plus "lint" when @p allow_lint is set (only the
 * verifier computes lint findings). Returns false on anything else;
 * the caller prints usage.
 */
bool parseFailOn(const std::string &value, bool allow_lint,
                 Severity &out);

/**
 * The shared exit-code rule: how many findings reach @p fail_on.
 * Violations always count; warnings count at the warning threshold or
 * below; lints only at the lint threshold.
 */
std::size_t failingCount(std::size_t violations, std::size_t warnings,
                         std::size_t lints, Severity fail_on);

/**
 * Append `"summary":{"name":count,...}` to @p out, preserving the
 * given field order exactly — the golden-file tests lock the byte
 * sequence, so every report renders its summary through this one
 * function.
 */
void appendSummaryObject(
    std::string &out,
    std::initializer_list<std::pair<const char *, std::size_t>> fields);

} // namespace isagrid

#endif // ISAGRID_VERIFY_REPORT_COMMON_HH_
