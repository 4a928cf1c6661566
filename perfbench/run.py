#!/usr/bin/env python3
"""The repository benchmark (BENCHMARK.json; see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (Release, into
$CARGO_TARGET_DIR/perfbench or .bench_build/perfbench), runs one workload
in one process, checks its observables against perfbench/spec.json and
prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics. A line before it carries the
same metrics with their sample counts, the host fingerprint and the
per-round observables. Exits non-zero, without a result line, when the
build or the run fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary."""
    out = build_dir()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no isagrid sources next to perfbench/")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def fingerprint(build_type, compiler):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        # Identify the sources by content instead.
        digest = hashlib.sha256()
        for top in ("src", "perfbench"):
            for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
                dirnames.sort()
                for name in sorted(filenames):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
        rev = "src-sha256:" + digest.hexdigest()[:16]
    return {"cpu": cpu, "nproc": os.cpu_count(), "build_type": build_type,
            "compiler": compiler, "revision": rev}


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_recorded(workload, seed, rounds, spec):
    """Failures for rounds whose observables differ from spec.json."""
    expected = dict(spec["expected"].get(workload, {}).get("any", {}))
    expected.update(spec["expected"].get(workload, {})
                    .get("seeds", {}).get(str(seed), {}))
    failures = []
    bad = 0
    for i, obs in enumerate(rounds):
        diff = [f"{k}={obs.get(k)} (recorded {v})"
                for k, v in sorted(expected.items()) if obs.get(k) != v]
        if diff:
            bad += 1
            failures.append(f"round {i}: " + ", ".join(diff))
    return bad, failures


def run(args):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise RuntimeError(f"unknown workload {args.workload}; one of {names}")
    binary = build()
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        spans = os.path.join(build_dir(), "spans",
                             f"{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--trace", f"--spans={spans}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=True)
    detail = json.loads(proc.stdout.strip().splitlines()[-1])

    if detail["build_type"] != "Release":
        log("!" * 60)
        log(f"WARNING: {detail['build_type']} build, not Release: "
            "host timings are not comparable")
        log("!" * 60)

    bad, failures = check_recorded(args.workload, args.seed,
                                   detail["rounds"], spec)
    failed = detail["failed"] + bad
    failures = detail["failures"] + failures
    for f in failures:
        log("FAILED " + f)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = detail["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                raise RuntimeError(f"metric {m['name']} was not measured")
            # A layer this workload never enters.
            got = {"value": 0, "unit": m["unit"], "samples": 0}
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} in {got['unit']}, "
                               f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "held_out_seed": spec["held_out_seed"],
        "host": fingerprint(detail["build_type"], detail["compiler"]),
        "wraps": detail["wraps"], "failures": failures,
        "rounds": detail["rounds"], "metrics": metrics}))
    print(json.dumps({
        "correct": failed == 0, "attempted": detail["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()}}))


def selftest():
    """Run every workload briefly, traced and untraced, and check that
    every metric of BENCHMARK.json is emitted with unit and samples,
    that the traced self times account for the rounds' wall time, and
    that spec.json maps every per-layer metric."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    problems = []
    for m in bench["per_layer"]:
        if m["name"] not in spec["moves"]:
            problems.append(f"spec.json moves: no entry for {m['name']}")
    for w in bench["workloads"]:
        for trace in (0, 1):
            before = len(problems)
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   w["name"], "--seed", str(spec["held_out_seed"]),
                   "--seconds", "2", "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{w['name']} trace={trace}: exit "
                                f"{proc.returncode}")
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            if not result["correct"]:
                problems.append(f"{w['name']} trace={trace}: "
                                f"{detail['failures']}")
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            for m in wanted:
                got = detail["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or "samples" not in got:
                    problems.append(f"{w['name']}: {m['name']} missing "
                                    "unit or sample count")
            if trace:
                share = detail["metrics"]["trace.self_share"]["value"]
                if abs(share - 1.0) > 0.03:
                    problems.append(f"{w['name']}: span self times cover "
                                    f"{share:.3f} of wall_s")
            ok = len(problems) == before
            log(f"selftest {w['name']} trace={trace}: "
                + ("ok" if ok else "FAILED"))
    for p in problems:
        log("SELFTEST " + p)
    print(json.dumps({"selftest": "fail" if problems else "ok",
                      "problems": problems}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    os.chdir(ROOT)
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            parser.error("--workload is required")
        run(args)
        return 0
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        log(f"error: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
