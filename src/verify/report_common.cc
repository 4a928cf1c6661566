#include "verify/report_common.hh"

#include "verify/verify.hh"

namespace isagrid {

bool
parseFailOn(const std::string &value, bool allow_lint, Severity &out)
{
    if (value == "violation") {
        out = Severity::Violation;
        return true;
    }
    if (value == "warning") {
        out = Severity::Warning;
        return true;
    }
    if (allow_lint && value == "lint") {
        out = Severity::Lint;
        return true;
    }
    return false;
}

std::size_t
failingCount(std::size_t violations, std::size_t warnings,
             std::size_t lints, Severity fail_on)
{
    std::size_t failing = violations;
    if (fail_on == Severity::Warning || fail_on == Severity::Lint)
        failing += warnings;
    if (fail_on == Severity::Lint)
        failing += lints;
    return failing;
}

void
appendSummaryObject(
    std::string &out,
    std::initializer_list<std::pair<const char *, std::size_t>> fields)
{
    out += "\"summary\":{";
    bool first = true;
    for (const auto &[name, count] : fields) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":" + std::to_string(count);
    }
    out += "}";
}

} // namespace isagrid
