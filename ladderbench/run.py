#!/usr/bin/env python3
"""Builds the ladder benchmark from this checkout and runs one workload.

    python3 ladderbench/run.py --workload <ingest|point_hot|scan_cold> \
        --seed <n> --seconds <s> --trace <0|1> [--shrink <n>]

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/ladderbench (default .bench_build/ladderbench), CORF
scratch files to a per-process directory under it (removed when the run
ends) and traced runs' spans to .../traces/<workload>.spans.jsonl. The
last line of standard output is the run's JSON result; build output goes
to standard error. Exits non-zero, printing no result, when the program
cannot be built or set up.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ladderbench",
                  "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(os.path.dirname(build_dir), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            return False
    return True


def main():
    root = build_root()
    build_dir = os.path.join(root, "ladderbench")
    if not build(build_dir):
        print("ladderbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "ladderbench")
    workdir = os.path.join(root, "ladder_work", str(os.getpid()))
    trace_dir = os.path.join(root, "traces")
    done = subprocess.run([binary] + sys.argv[1:] +
                          ["--workdir", workdir, "--trace-dir", trace_dir])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
