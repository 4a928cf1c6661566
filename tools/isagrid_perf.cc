/**
 * @file
 * isagrid-perf — analyzer for `--metrics-out` JSON documents.
 *
 * Consumes the epoch-sampled metrics + profile JSON written by
 * isagrid-sim / isagrid_bench (see sim/metrics.hh) and renders:
 *
 *   isagrid-perf [options] METRICS.json
 *     --top=N             rows per hot table            [10]
 *     --flamegraph=FILE   re-emit collapsed stacks (FlameGraph
 *                         input; '-' for stdout)
 *     --prom=FILE         re-emit final totals, Prometheus
 *                         exposition ('-' for stdout)
 *     --validate          structural checks only (exit 1 on failure)
 *
 * The default report differences adjacent epochs into interval rates:
 * host MIPS (instructions per wall second), simulated IPC, the
 * decode-cache and block-engine chain/memo hit rates, per-domain
 * privilege-cache hit rates, gate and domain-switch rates and SMC
 * invalidations — the run's shape over time, not just its totals.
 *
 * --validate enforces the series' structural contract: a version-1
 * document, strictly increasing epoch instruction counts, a
 * non-decreasing wall clock, totals that match the last epoch, every
 * profile breakdown table summing back to the sample count, and
 * `samples * interval` covering the retired-instruction total to
 * within one sampling interval.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"

namespace {

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON reader (objects keep field order).
// ---------------------------------------------------------------------

struct Json
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> fields;

    const Json *
    find(const std::string &key) const
    {
        for (const auto &[name, value] : fields)
            if (name == key)
                return &value;
        return nullptr;
    }

    double
    num(const std::string &key, double fallback = 0) const
    {
        const Json *v = find(key);
        return v && v->kind == Kind::Number ? v->number : fallback;
    }

    std::string
    text(const std::string &key) const
    {
        const Json *v = find(key);
        return v && v->kind == Kind::String ? v->str : "";
    }
};

class JsonParser
{
  public:
    JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(Json &out, std::string &error)
    {
        bool ok = value(out);
        skipSpace();
        if (ok && pos_ != text_.size()) {
            fail("trailing data");
            ok = false;
        }
        if (!ok)
            error = error_;
        return ok;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    fail(const char *what)
    {
        if (error_.empty()) {
            error_ = std::string(what) + " at offset " +
                     std::to_string(pos_);
        }
        return false;
    }

    bool
    literal(const char *word, Json &out, Json::Kind kind, bool b)
    {
        std::size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return fail("bad literal");
        pos_ += len;
        out.kind = kind;
        out.boolean = b;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("bad escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (pos_ + 4 > text_.size())
                      return fail("bad \\u escape");
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      char h = text_[pos_++];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= unsigned(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= unsigned(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code |= unsigned(h - 'A' + 10);
                      else
                          return fail("bad \\u escape");
                  }
                  // The documents we read are ASCII; keep non-ASCII
                  // escapes as replacement bytes rather than UTF-8.
                  out += code < 0x80 ? char(code) : '?';
                  break;
              }
              default:
                return fail("bad escape");
            }
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        ++pos_; // closing quote
        return true;
    }

    bool
    value(Json &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end");
        char c = text_[pos_];
        if (c == 'n')
            return literal("null", out, Json::Kind::Null, false);
        if (c == 't')
            return literal("true", out, Json::Kind::Bool, true);
        if (c == 'f')
            return literal("false", out, Json::Kind::Bool, false);
        if (c == '"') {
            out.kind = Json::Kind::String;
            return string(out.str);
        }
        if (c == '[') {
            ++pos_;
            out.kind = Json::Kind::Array;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                Json item;
                if (!value(item))
                    return false;
                out.items.push_back(std::move(item));
                skipSpace();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '{') {
            ++pos_;
            out.kind = Json::Kind::Object;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipSpace();
                std::string key;
                if (!string(key))
                    return false;
                skipSpace();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':'");
                ++pos_;
                Json item;
                if (!value(item))
                    return false;
                out.fields.emplace_back(std::move(key),
                                        std::move(item));
                skipSpace();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        // Number.
        std::size_t start = pos_;
        if (text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("unexpected character");
        try {
            out.number = std::stod(text_.substr(start, pos_ - start));
        } catch (...) {
            return fail("bad number");
        }
        out.kind = Json::Kind::Number;
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::string error_;
};

// ---------------------------------------------------------------------
// Document model
// ---------------------------------------------------------------------

struct Options
{
    std::string input;
    std::string flamegraph_file;
    std::string prom_file;
    bool validate = false;
    unsigned top = 10;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--top=N] [--flamegraph=FILE] "
                 "[--prom=FILE] [--validate] METRICS.json\n",
                 argv0);
    std::exit(2);
}

/** An epoch's numeric values as a flat map (nulls skipped). */
std::map<std::string, double>
valuesOf(const Json &obj)
{
    std::map<std::string, double> out;
    for (const auto &[name, value] : obj.fields)
        if (value.kind == Json::Kind::Number)
            out[name] = value.number;
    return out;
}

double
lookup(const std::map<std::string, double> &values,
       const std::string &key)
{
    auto it = values.find(key);
    return it == values.end() ? 0.0 : it->second;
}

/** hits / (hits + misses) over the interval delta of two keys. */
double
intervalRate(const std::map<std::string, double> &cur,
             const std::map<std::string, double> &prev,
             const std::string &hit_key, const std::string &miss_key)
{
    double hits = lookup(cur, hit_key) - lookup(prev, hit_key);
    double misses = lookup(cur, miss_key) - lookup(prev, miss_key);
    double total = hits + misses;
    return total <= 0 ? 0.0 : hits / total;
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

void
printHotTable(const Json &profile, const char *array_key,
              const char *label_key, const char *title, unsigned top)
{
    const Json *rows = profile.find(array_key);
    if (!rows || rows->items.empty())
        return;
    std::vector<const Json *> sorted;
    for (const Json &row : rows->items)
        sorted.push_back(&row);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Json *a, const Json *b) {
                         return a->num("samples") > b->num("samples");
                     });
    double total = 0;
    for (const Json *row : sorted)
        total += row->num("samples");
    std::printf("\n%s:\n", title);
    for (unsigned i = 0; i < sorted.size() && i < top; ++i) {
        const Json *row = sorted[i];
        std::string label = row->text(label_key);
        if (label.empty()) {
            // Numeric key (the domains table).
            label = std::to_string(
                (long long)row->num(label_key));
        }
        std::string extra = row->text("region");
        std::printf("  %-28s %10lld samples (%5.2f%%)%s%s\n",
                    label.c_str(), (long long)row->num("samples"),
                    total ? 100.0 * row->num("samples") / total : 0.0,
                    extra.empty() ? "" : "  ", extra.c_str());
    }
}

void
report(const Json &doc, const Options &opt)
{
    const Json *epochs = doc.find("epochs");
    const Json *totals = doc.find("totals");
    const Json *profile = doc.find("profile");
    std::map<std::string, double> total_values =
        totals ? valuesOf(*totals) : std::map<std::string, double>{};

    std::printf("metrics interval : %lld instructions\n",
                (long long)doc.num("metrics_interval"));
    std::printf("profile interval : %lld instructions\n",
                (long long)doc.num("profile_interval"));
    std::printf("epochs           : %zu\n",
                epochs ? epochs->items.size() : 0);
    std::printf("instructions     : %.0f\n",
                lookup(total_values, "core.instructions"));
    std::printf("cycles           : %.0f\n",
                lookup(total_values, "core.cycles"));

    if (epochs && !epochs->items.empty()) {
        std::printf("\nepoch series (interval rates):\n");
        std::printf("  %5s %12s %8s %6s %6s %6s %6s %6s %8s\n", "ep",
                    "insts", "MIPS", "IPC", "dcach", "chain", "memo",
                    "pcu", "sw/ki");
        std::map<std::string, double> prev;
        double prev_insts = 0, prev_cycles = 0, prev_wall = 0;
        for (const Json &e : epochs->items) {
            const Json *vobj = e.find("values");
            std::map<std::string, double> values =
                vobj ? valuesOf(*vobj)
                     : std::map<std::string, double>{};
            double insts = e.num("instructions");
            double cycles = e.num("cycles");
            double wall = e.num("wall_seconds");
            double d_insts = insts - prev_insts;
            double d_cycles = cycles - prev_cycles;
            double d_wall = wall - prev_wall;
            double switches = lookup(values, "pcu.switches") -
                              lookup(prev, "pcu.switches");
            std::printf(
                "  %5lld %12.0f %8.2f %6.3f %6.3f %6.3f %6.3f "
                "%6.3f %8.2f\n",
                (long long)e.num("index"), insts,
                d_wall > 0 ? d_insts / d_wall / 1e6 : 0.0,
                d_cycles > 0 ? d_insts / d_cycles : 0.0,
                intervalRate(values, prev, "host.decode_cache.hits",
                             "host.decode_cache.misses"),
                intervalRate(values, prev, "host.block.chain_hits",
                             "host.block.chain_misses"),
                intervalRate(values, prev, "host.block.memo_hits",
                             "host.block.memo_fills"),
                intervalRate(values, prev, "pcu.inst_cache.hits",
                             "pcu.inst_cache.misses"),
                d_insts > 0 ? 1000.0 * switches / d_insts : 0.0);
            prev = std::move(values);
            prev_insts = insts;
            prev_cycles = cycles;
            prev_wall = wall;
        }
    }

    // Per-domain privilege-cache totals (dynamic key set).
    bool domain_header = false;
    for (const auto &[name, value] : total_values) {
        const std::string prefix = "pcu.domain.";
        if (name.rfind(prefix, 0) != 0 ||
            name.find(".cache_hit_rate") == std::string::npos)
            continue;
        if (!domain_header) {
            std::printf("\nper-domain privilege-cache hit rates:\n");
            domain_header = true;
        }
        std::string id = name.substr(
            prefix.size(), name.find('.', prefix.size()) -
                               prefix.size());
        std::printf("  domain %-6s %6.3f  (%.0f hits, %.0f misses)\n",
                    id.c_str(), value,
                    lookup(total_values,
                           prefix + id + ".cache_hits"),
                    lookup(total_values,
                           prefix + id + ".cache_misses"));
    }

    if (profile) {
        std::printf("\nprofile samples  : %lld (1 per %lld insts)\n",
                    (long long)profile->num("samples"),
                    (long long)profile->num("interval"));
        printHotTable(*profile, "regions", "region", "hot regions",
                      opt.top);
        printHotTable(*profile, "hot_pcs", "pc", "hot pcs", opt.top);
        printHotTable(*profile, "hot_blocks", "start",
                      "hot translated blocks", opt.top);
        printHotTable(*profile, "domains", "domain",
                      "samples by domain", opt.top);
    }
}

// ---------------------------------------------------------------------
// Re-exporters
// ---------------------------------------------------------------------

/** @p path as a writable stream; "-" selects stdout (like isagrid-trace). */
std::ostream *
openOut(const std::string &path, std::ofstream &file)
{
    if (path == "-")
        return &std::cout;
    file.open(path);
    if (!file) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return nullptr;
    }
    return &file;
}

int
writeFlamegraph(const Json &doc, const std::string &path)
{
    const Json *profile = doc.find("profile");
    const Json *stacks = profile ? profile->find("stacks") : nullptr;
    std::ofstream file;
    std::ostream *osp = openOut(path, file);
    if (!osp)
        return 2;
    std::ostream &os = *osp;
    if (stacks) {
        for (const Json &row : stacks->items) {
            os << row.text("stack") << ' '
               << (long long)row.num("samples") << '\n';
        }
    }
    return 0;
}

std::string
promName(const std::string &name)
{
    std::string out = "isagrid_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

/** Split a ".domain.<id>." key; same convention as sim/metrics.cc. */
bool
splitDomainKey(const std::string &name, std::string &base,
               std::string &id)
{
    const std::string marker = ".domain.";
    std::size_t at = name.find(marker);
    if (at == std::string::npos)
        return false;
    std::size_t digits = at + marker.size();
    std::size_t end = digits;
    while (end < name.size() && name[end] >= '0' && name[end] <= '9')
        ++end;
    if (end == digits || end >= name.size() || name[end] != '.')
        return false;
    base = name.substr(0, at) + name.substr(end);
    id = name.substr(digits, end - digits);
    return true;
}

int
writePrometheus(const Json &doc, const std::string &path)
{
    const Json *totals = doc.find("totals");
    std::ofstream file;
    std::ostream *osp = openOut(path, file);
    if (!osp)
        return 2;
    std::ostream &os = *osp;
    std::map<std::string,
             std::vector<std::pair<std::string, double>>>
        families;
    std::map<std::string, std::string> familySource;
    if (totals) {
        for (const auto &[name, value] : valuesOf(*totals)) {
            std::string base, id;
            if (splitDomainKey(name, base, id)) {
                families[promName(base)].emplace_back(id, value);
                familySource.emplace(promName(base), base);
            } else {
                families[promName(name)].emplace_back("", value);
                familySource.emplace(promName(name), name);
            }
        }
    }
    for (const auto &[family, series] : families) {
        const std::string &source = familySource[family];
        bool gauge = source.find("rate") != std::string::npos;
        os << "# HELP " << family << ' ' << source << '\n';
        os << "# TYPE " << family << ' '
           << (gauge ? "gauge" : "counter") << '\n';
        for (const auto &[label, value] : series) {
            os << family;
            if (!label.empty())
                os << "{domain=\"" << label << "\"}";
            char buf[40];
            if (value == std::floor(value) &&
                std::fabs(value) < 9.0e15)
                std::snprintf(buf, sizeof buf, " %lld",
                              (long long)value);
            else
                std::snprintf(buf, sizeof buf, " %.10g", value);
            os << buf << '\n';
        }
    }
    const Json *profile = doc.find("profile");
    const Json *domains = profile ? profile->find("domains") : nullptr;
    os << "# HELP isagrid_profile_samples guest pc samples taken\n"
          "# TYPE isagrid_profile_samples counter\n";
    if (domains && !domains->items.empty()) {
        for (const Json &row : domains->items) {
            os << "isagrid_profile_samples{domain=\""
               << (long long)row.num("domain") << "\"} "
               << (long long)row.num("samples") << '\n';
        }
    } else {
        os << "isagrid_profile_samples "
           << (profile ? (long long)profile->num("samples") : 0)
           << '\n';
    }
    return 0;
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

int
validate(const Json &doc)
{
    std::vector<std::string> problems;
    auto check = [&](bool ok, const std::string &what) {
        if (!ok)
            problems.push_back(what);
    };

    check(doc.num("version") == 1, "unknown document version");
    const Json *epochs = doc.find("epochs");
    check(epochs && epochs->kind == Json::Kind::Array,
          "missing epochs array");
    double last_insts = -1, last_wall = -1;
    if (epochs) {
        for (const Json &e : epochs->items) {
            double insts = e.num("instructions");
            double wall = e.num("wall_seconds");
            check(insts > last_insts,
                  "epoch instruction counts not strictly increasing");
            check(wall >= last_wall, "wall clock went backwards");
            check(e.find("values") != nullptr,
                  "epoch without values");
            last_insts = insts;
            last_wall = wall;
        }
    }

    const Json *totals = doc.find("totals");
    check(totals != nullptr, "missing totals");
    double retired = 0;
    if (totals) {
        retired = totals->num("core.instructions");
        if (epochs && !epochs->items.empty()) {
            check(retired == last_insts,
                  "totals do not match the last epoch");
        }
    }

    const Json *profile = doc.find("profile");
    check(profile != nullptr, "missing profile");
    if (profile) {
        double samples = profile->num("samples");
        double interval = profile->num("interval");
        auto table_sum = [&](const char *key) {
            const Json *rows = profile->find(key);
            double sum = 0;
            if (rows)
                for (const Json &row : rows->items)
                    sum += row.num("samples");
            return sum;
        };
        check(table_sum("hot_pcs") == samples,
              "hot_pcs do not sum to the sample count");
        check(table_sum("domains") == samples,
              "domains do not sum to the sample count");
        check(table_sum("stacks") == samples,
              "stacks do not sum to the sample count");
        check(table_sum("regions") == samples,
              "regions do not sum to the sample count");
        if (interval > 0 && retired > 0) {
            // Each sample stands for `interval` retired instructions.
            double attributed = samples * interval;
            check(attributed <= retired &&
                      retired - attributed <= interval,
                  "samples * interval misses the retired total by "
                  "more than one interval");
        }
    }

    if (problems.empty()) {
        std::printf("metrics document OK\n");
        return 0;
    }
    for (const std::string &p : problems)
        std::fprintf(stderr, "INVALID: %s\n", p.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string v;
        if (isagrid::eatOption(arg, "--top", v)) {
            opt.top = isagrid::countUnsigned(argv[0], v, usage);
        } else if (isagrid::eatOption(arg, "--flamegraph", v)) {
            opt.flamegraph_file = v;
        } else if (isagrid::eatOption(arg, "--prom", v)) {
            opt.prom_file = v;
        } else if (std::strcmp(arg, "--validate") == 0) {
            opt.validate = true;
        } else if (arg[0] == '-') {
            usage(argv[0]);
        } else if (opt.input.empty()) {
            opt.input = arg;
        } else {
            usage(argv[0]);
        }
    }
    if (opt.input.empty())
        usage(argv[0]);

    std::ifstream in(opt.input);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", opt.input.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    Json doc;
    std::string error;
    if (!JsonParser(text).parse(doc, error) ||
        doc.kind != Json::Kind::Object) {
        std::fprintf(stderr, "%s: not a metrics document (%s)\n",
                     opt.input.c_str(),
                     error.empty() ? "not an object" : error.c_str());
        return 2;
    }

    if (opt.validate)
        return validate(doc);

    int rc = 0;
    if (!opt.flamegraph_file.empty())
        rc = writeFlamegraph(doc, opt.flamegraph_file);
    if (rc == 0 && !opt.prom_file.empty())
        rc = writePrometheus(doc, opt.prom_file);
    if (rc == 0 && opt.flamegraph_file.empty() && opt.prom_file.empty())
        report(doc, opt);
    return rc;
}
