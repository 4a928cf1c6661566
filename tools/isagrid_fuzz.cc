/**
 * @file
 * isagrid-fuzz — deterministic coverage-guided differential fuzzing
 * of the five-tool trust stack.
 *
 * Seeds the corpus from the stock mini-kernels and the attack
 * scenarios, mutates guest images and privilege tables with
 * structure-aware mutators, and runs every artifact through the
 * simulator (both execution engines), isagrid-verify, isagrid-xscan,
 * isagrid-mc (+ counterexample replay), isagrid-minpriv and
 * isagrid-contract, asserting the cross-tool agreement invariants
 * (docs/fuzzing.md). Any disagreement is, by construction, a bug in
 * one of the tools.
 *
 *   isagrid-fuzz [options]
 *     --arch=riscv|x86|both     target prototype(s)     [riscv]
 *     --seed=N                  campaign RNG seed       [1]
 *     --max-iters=N             mutated cases to run    [100]
 *     --max-seconds=N           wall-clock budget, 0 = none;
 *                               trades away byte-determinism
 *     --jobs=N                  worker threads          [1]
 *     --filter=SUBSTR           restrict seed names
 *     --corpus=DIR              load extra seed artifacts (*.art)
 *     --save=DIR                write corpus + finding artifacts
 *     --contract-stride=N       contract oracle every Nth case,
 *                               0 = never               [16]
 *     --seeds-only              validate seeds, no mutation
 *     --list-seeds              print seed names and exit
 *     --replay=FILE             run all oracles on one artifact
 *     --json                    machine-readable report
 *
 * Exit status: 0 when every oracle agreed on every case, 1 when at
 * least one cross-tool disagreement was found, 2 on usage errors.
 *
 * Examples:
 *   isagrid-fuzz --arch=both --seed=7 --max-iters=500 --jobs=4
 *   isagrid-fuzz --replay=tests/data/fuzz_corpus/mask_compose.art
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli.hh"
#include "fuzz/fuzz.hh"
#include "sim/logging.hh"
#include "verify/report_common.hh"

using namespace isagrid;

namespace {

struct Options
{
    bool riscv = true;
    bool x86 = false;
    FuzzOptions fuzz;
    bool list_seeds = false;
    bool json = false;
    std::string save_dir;
    std::string replay;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--arch=riscv|x86|both] [--seed=N]\n"
                 "  [--max-iters=N] [--max-seconds=N] [--jobs=N]\n"
                 "  [--filter=SUBSTR] [--corpus=DIR] [--save=DIR]\n"
                 "  [--contract-stride=N] [--seeds-only] "
                 "[--list-seeds]\n"
                 "  [--replay=FILE] [--json]\n",
                 argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (eatOption(argv[i], "--arch", v)) {
            if (v == "riscv") {
                opt.riscv = true;
                opt.x86 = false;
            } else if (v == "x86") {
                opt.riscv = false;
                opt.x86 = true;
            } else if (v == "both") {
                opt.riscv = true;
                opt.x86 = true;
            } else {
                usage(argv[0]);
            }
        } else if (eatOption(argv[i], "--seed", v)) {
            opt.fuzz.seed = count(argv[0], v, usage);
        } else if (eatOption(argv[i], "--max-iters", v)) {
            opt.fuzz.max_iters = count(argv[0], v, usage);
        } else if (eatOption(argv[i], "--max-seconds", v)) {
            opt.fuzz.max_seconds = count(argv[0], v, usage);
        } else if (eatOption(argv[i], "--jobs", v)) {
            opt.fuzz.jobs = countUnsigned(argv[0], v, usage, 1);
        } else if (eatOption(argv[i], "--filter", v)) {
            opt.fuzz.filter = v;
        } else if (eatOption(argv[i], "--corpus", v)) {
            opt.fuzz.corpus_dir = v;
        } else if (eatOption(argv[i], "--save", v)) {
            opt.save_dir = v;
        } else if (eatOption(argv[i], "--contract-stride", v)) {
            opt.fuzz.contract_stride = count(argv[0], v, usage);
        } else if (std::strcmp(argv[i], "--seeds-only") == 0) {
            opt.fuzz.seeds_only = true;
        } else if (std::strcmp(argv[i], "--list-seeds") == 0) {
            opt.list_seeds = true;
        } else if (eatOption(argv[i], "--replay", v)) {
            opt.replay = v;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            opt.json = true;
        } else {
            usage(argv[0]);
        }
    }
    return opt;
}

std::string
sanitize(const std::string &name)
{
    std::string out;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

void
saveArtifacts(const FuzzResult &result, const std::string &dir)
{
    std::filesystem::create_directories(dir);
    char buf[64];
    for (std::size_t i = 0; i < result.corpus.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "corpus-%04zu-", i);
        std::string path = dir + "/" + buf +
                           sanitize(result.corpus[i].name) + ".art";
        std::ofstream out(path);
        if (!out)
            fatal("cannot write %s", path.c_str());
        out << result.corpus[i].serialize();
    }
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "finding-%02zu-", i);
        std::string path =
            dir + "/" + buf +
            sanitize(result.findings[i].invariant) + ".art";
        std::ofstream out(path);
        if (!out)
            fatal("cannot write %s", path.c_str());
        out << result.findings[i].artifact.serialize();
    }
}

/** Run every oracle (contract included) over one saved artifact. */
int
replayArtifact(const Options &opt)
{
    std::ifstream in(opt.replay);
    if (!in)
        fatal("cannot read %s", opt.replay.c_str());
    std::stringstream buf;
    buf << in.rdbuf();
    FuzzArtifact artifact;
    std::string error;
    if (!FuzzArtifact::parse(buf.str(), artifact, error))
        fatal("%s: %s", opt.replay.c_str(), error.c_str());

    OracleOptions oracle = opt.fuzz.oracle;
    oracle.run_contract = true;
    OracleOutcome outcome = runOracles(artifact, oracle);
    if (opt.json) {
        std::string out = "{\"tool\":\"isagrid-fuzz\",\"replay\":\"";
        jsonEscape(out, artifact.name);
        out += "\",\"coverage\":\"";
        jsonEscape(out, outcome.coverageKey());
        out += "\",";
        appendSummaryObject(
            out, {{"disagreements", outcome.disagreements.size()}});
        out += ",\"disagreements\":[";
        bool first = true;
        for (const Disagreement &d : outcome.disagreements) {
            if (!first)
                out += ',';
            first = false;
            out += "{\"invariant\":\"";
            jsonEscape(out, d.invariant);
            out += "\",\"detail\":\"";
            jsonEscape(out, d.detail);
            out += "\"}";
        }
        out += "]}";
        std::printf("%s\n", out.c_str());
    } else {
        for (const Disagreement &d : outcome.disagreements) {
            std::printf("DISAGREEMENT %s: %s\n", d.invariant.c_str(),
                        d.detail.c_str());
        }
        std::printf("replay '%s': %zu disagreements, coverage %s\n",
                    artifact.name.c_str(),
                    outcome.disagreements.size(),
                    outcome.coverageKey().c_str());
    }
    return outcome.agree() ? 0 : 1;
}

int
runArch(const Options &opt, bool x86)
{
    FuzzOptions fuzz = opt.fuzz;
    fuzz.x86 = x86;
    FuzzResult result = runFuzz(fuzz);
    if (opt.json)
        std::printf("%s\n", result.json().c_str());
    else
        std::printf("%s", result.text().c_str());
    if (!opt.save_dir.empty()) {
        saveArtifacts(result,
                      opt.save_dir + (x86 ? "/x86" : "/riscv"));
    }
    return result.clean() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);

    if (opt.list_seeds) {
        if (opt.riscv) {
            for (const FuzzArtifact &a : builtinSeeds(false))
                std::printf("riscv/%s\n", a.name.c_str());
        }
        if (opt.x86) {
            for (const FuzzArtifact &a : builtinSeeds(true))
                std::printf("x86/%s\n", a.name.c_str());
        }
        return 0;
    }

    if (!opt.replay.empty())
        return replayArtifact(opt);

    int status = 0;
    if (opt.riscv)
        status |= runArch(opt, false);
    if (opt.x86)
        status |= runArch(opt, true);
    return status;
}
