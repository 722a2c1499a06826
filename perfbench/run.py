#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The binary is configured and built with CMake under $CARGO_TARGET_DIR
(default .bench_build) on first use; later runs only re-check it. The run's
report is printed as is, and its last line is one JSON object with the keys
correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json for --trace 0, its per_layer metrics for --trace 1. This
script checks that the metric names and units are exactly those
BENCHMARK.json declares. It exits non-zero, without a result line, when the
build or the run fails, and non-zero after the result line when an answer
was wrong.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build_1m", "serve_hot", "churn_20k")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{cmd[0]} failed: {err}")
        return False
    return proc.returncode == 0


def build():
    """Configure (once) and build the binary; returns its path or None."""
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            log("cmake configure failed")
            return None
    jobs = str(os.cpu_count() or 1)
    if not run_quiet(["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs],
                     BUILD_TIMEOUT_S):
        log("build failed")
        return None
    binary = bdir / "perfbench"
    return binary if binary.exists() else None


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30, check=False)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE / "src"):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-" + h.hexdigest()[:12]


def declared_metrics():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def check_result(line, expected):
    """Problems with the result line against the declared metrics."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as err:
        return [f"the last line is not JSON: {err}"]
    problems = []
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return ["the result must have exactly correct, attempted, failed and metrics"]
    if not isinstance(res["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or res[key] < 0:
            problems.append(f"{key} is not a non-negative integer")
    if isinstance(res["attempted"], int) and res["attempted"] < 1:
        problems.append("nothing was attempted")
    metrics = res["metrics"]
    if set(metrics) != set(expected):
        problems.append("metric names differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        value = m.get("value") if isinstance(m, dict) else None
        if not isinstance(m, dict) or set(m) != {"value", "unit"} \
                or not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"metric {name} must be {{value: finite number, unit}}")
        elif name in expected and m["unit"] != expected[name]:
            problems.append(f"metric {name} has unit {m['unit']}, declared {expected[name]}")
    return problems


def self_test(binary):
    """The binary's own self-tests, plus BENCHMARK.json against its catalogue."""
    ok = subprocess.run([str(binary), "--self-test"], timeout=RUN_TIMEOUT_S,
                        check=False).returncode == 0
    listed = {"end_to_end": {}, "per_layer": {}}
    out = subprocess.run([str(binary), "--list-metrics"], capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S, check=False).stdout
    for row in out.splitlines():
        kind, name, unit = row.split()
        listed[kind][name] = unit
    declared = declared_metrics()
    same = listed == declared
    print(("ok   " if same else "FAIL ") +
          "BENCHMARK.json declares exactly the binary's metrics, with the same units")
    names = [n for kind in declared.values() for n in kind]
    valid = all(NAME_RE.match(n) for n in names) and len(names) == len(set(names))
    print(("ok   " if valid else "FAIL ") + "BENCHMARK.json metric names are valid and unique")
    return 0 if ok and same and valid else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "BENCHMARK.json").exists():
        log("BENCHMARK.json is missing from the checkout root")
        return 2

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        trace_file = build_dir() / f"trace-{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"the run did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"the run failed (exit {proc.returncode}) without a result")
        return 1
    kind = "per_layer" if args.trace else "end_to_end"
    problems = check_result(lines[-1], declared_metrics()[kind])
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problems:
        for p in problems:
            log(p)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
