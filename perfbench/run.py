#!/usr/bin/env python3
"""Entry point of the rperf-rs benchmark.

Builds the benchmark crate next to this file -- and, for `--trace 1`, a
second time with the simulator's dispatch profiler (`--features trace`) --
and runs one workload:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

`--trace 0` runs the untraced build and prints the end-to-end metrics.
`--trace 1` spends half the time in the untraced build (for its wall time
and outcome digest) and half in the traced one, and prints every per-layer
metric, including the tracing overhead; the two runs' outcome digests must
match. Either way the last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.

Run it from the repository root. Build output goes to `$CARGO_TARGET_DIR`
(default `.bench_build`), one sub-directory per build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# The simulator crates the benchmark builds against.
REQUIRED = os.path.join(HERE, os.pardir, "crates", "core", "Cargo.toml")
# Keeps freed memory in the benchmark process. Every operation builds and
# drops a fabric of a few MiB; with glibc's default trim and mmap
# thresholds that memory goes back to the kernel and is faulted in again
# by the next operation. On line_rate_bulk and clos_scale that was about
# 1.1 M page faults and 15-18% system time per 10 s, and page-fault cost
# follows the host's memory load rather than the simulator's code. 32 MiB
# is the largest mmap threshold glibc accepts.
MALLOC_TUNABLES = ("glibc.malloc.trim_threshold=1073741824:"
                   "glibc.malloc.mmap_threshold=33554432")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_root, traced):
    target = os.path.join(target_root, "traced" if traced else "untraced")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target]
    if traced:
        cmd += ["--features", "trace"]
    # Cargo's progress and diagnostics go to stderr; stdout stays ours.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run(binary, args):
    """Runs the benchmark binary, echoing its report; returns its result."""
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{os.path.basename(binary)} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not os.path.isfile(REQUIRED):
        fail("the simulator sources (crates/) are not next to perfbench/")
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    untraced = build(target_root, traced=False)

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if not a.trace:
        res = run(untraced, common + ["--seconds", str(a.seconds)])
        result = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        if a.workload == "all":
            fail("--trace 1 runs one workload at a time")
        traced = build(target_root, traced=True)
        half = str(a.seconds / 2)
        base = run(untraced, common + ["--seconds", half])
        res = run(traced, common + [
            "--seconds", half, "--trace",
            "--untraced-wall-s", repr(base["metrics"]["wall_s"]["value"]),
            "--expect-digest", base["digests"][a.workload],
        ])
        attempted = base["attempted"] + res["attempted"]
        failed = base["failed"] + res["failed"]
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": res["metrics"]}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
