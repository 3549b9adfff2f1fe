#!/usr/bin/env python3
"""Builds and runs Loom's end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload investigate --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
benchmark binary, loom_bench (perfbench/CMakeLists.txt), into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset. Engine data goes to .bench_data/ and is removed by loom_bench;
traced runs leave their spans in .bench_out/. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the metric names and units are checked against BENCHMARK.json
before it is printed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target", "loom_bench"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the result.
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if proc.returncode != 0:
            fail("build failed: %s exited %d" % (cmd[:2], proc.returncode))
    return os.path.join(build_dir, "loom_bench")


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("loom_bench's last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(result))
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s extra %s unit %s"
             % (missing, extra, wrong))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["capture", "investigate", "history"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=None,
                    help="stream size as a fraction of the paper's rates (default 0.05)")
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(ROOT, ".bench_data"), "--out", os.path.join(ROOT, ".bench_out")]
    if args.scale is not None:
        cmd += ["--scale", repr(args.scale)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("loom_bench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1]:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
        fail("loom_bench exited %d" % proc.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
