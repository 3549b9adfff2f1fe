#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json briefly on a small stream (scale
0.01, 2 s), untraced and traced. For each run it asserts three things:
every declared metric appears with its declared unit, the output checks
passed (`correct`, zero `failed`), and every end-to-end metric is a
positive number. Exits 1 on the first failure. Takes about a minute after
the first build.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--scale", "0.01"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError("%s trace=%d exited %d" % (workload, trace, proc.returncode))
    lines = proc.stdout.strip().split("\n")
    conditions = json.loads(lines[-2])["conditions"]
    return conditions, json.loads(lines[-1]), proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            declared = spec["per_layer" if trace else "end_to_end"]
            try:
                cond, result, err = run(w["name"], trace)
                assert cond["workload"] == w["name"] and cond["seed"] == 3, cond
                metrics = result["metrics"]
                for m in declared:
                    assert m["name"] in metrics, "missing metric " + m["name"]
                    assert metrics[m["name"]]["unit"] == m["unit"], "unit of " + m["name"]
                assert len(metrics) == len(declared), "undeclared metrics"
                assert result["correct"] is True and result["failed"] == 0, err[-2000:]
                assert result["attempted"] > 0
                if not trace:
                    for m in declared:
                        assert metrics[m["name"]]["value"] > 0, m["name"] + " is not positive"
                print("ok   %-11s trace=%d attempted=%d" % (w["name"], trace, result["attempted"]))
            except (AssertionError, ValueError, KeyError, IndexError) as e:
                failures += 1
                print("FAIL %-11s trace=%d: %s" % (w["name"], trace, e))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
