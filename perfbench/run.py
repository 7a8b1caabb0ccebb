#!/usr/bin/env python3
"""Benchmark entry point: build rcbench from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The harness and the simulator libraries are
built (Release, -O3) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs reuse the
build. The workload then runs in a child process of its own, so its peak RSS
is its own. The last line of stdout is the result JSON; build output goes to
stderr. Exit status is nonzero when the build fails, the run fails or
outputs are wrong.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fabric_16x16_light", "fabric_8x8_saturated",
             "cmp_8x8_canneal_baseline")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build rcbench; returns its path or None."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "rcbench", "-j", jobs]):
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return None
        if rc != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return os.path.join(out, "rcbench")


def clean_env():
    # RC_* knobs (RC_CHECK, RC_TELEMETRY, RC_SHARDS, RC_TICK_ALWAYS, ...)
    # change what the simulator does; the benchmark measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("RC_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = p.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: harness printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    if p.returncode != 0 or not result.get("correct"):
        return p.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
