#!/usr/bin/env python3
"""Self-test of the ladder benchmark.

    python3 ladderbench/selftest.py

Run from the root of a checkout. At a tiny input size it checks that:
  * every workload's untraced run prints each end-to-end metric of
    BENCHMARK.json with its unit, and its traced run each per-layer
    metric, with correct == true and no failed op;
  * two untraced runs with the same seed print identical non-timing
    lines (sizes, digests of each client's op-stream prefix, verdict);
  * the oracles reject a corrupted gathered value, aggregate, projected
    value and ingest round trip (ladderbench --oracle-selftest);
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TINY = ["--seconds", "1", "--shrink", "32"]

failures = []


def check(condition, what):
    print(("ok     " if condition else "FAILED ") + what)
    if not condition:
        failures.append(what)


def run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def nontiming(stdout):
    return [line for line in stdout.splitlines()
            if line.startswith("nontiming ")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in [w["name"] for w in spec["workloads"]]:
        outputs = []
        for trace in (0, 0, 1):
            code, out = run(["--workload", workload, "--seed", "7",
                             "--trace", str(trace)] + TINY)
            label = "%s trace=%d" % (workload, trace)
            check(code == 0, label + ": exit 0")
            result = result_of(out) if code == 0 else None
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, label + ": result keys")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, label + ": every op verified")
            metrics = result["metrics"]
            check(set(metrics) == set(expected[trace]),
                  label + ": exactly the metrics named in BENCHMARK.json")
            check(all(metrics[n]["unit"] == u and
                      isinstance(metrics[n]["value"], (int, float))
                      for n, u in expected[trace].items() if n in metrics),
                  label + ": every metric has its unit and a number")
            if trace == 0:
                check(all(metrics[n]["value"] > 0 for n in metrics),
                      label + ": end-to-end metrics are positive")
                outputs.append(nontiming(out))
            elif workload == "point_hot":
                check(metrics["cache.hit_rate"]["value"] == 1.0,
                      label + ": every block stays resident")
        if len(outputs) == 2:
            check(outputs[0] == outputs[1] and len(outputs[0]) >= 3,
                  workload + ": same seed, identical non-timing output")

    code, out = run(["--oracle-selftest"])
    print(out.strip())
    check(code == 0, "oracles reject corrupted results")

    build_root = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare_", dir=build_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        done = subprocess.run(
            [sys.executable, os.path.join(bare, spec["command"][1]),
             "--workload", "ingest", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        printed = [line for line in done.stdout.splitlines()
                   if line.startswith("{")]
        check(done.returncode != 0 and not printed,
              "without the program's sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selftest %s" % ("passed" if not failures else
                           "FAILED: " + "; ".join(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
