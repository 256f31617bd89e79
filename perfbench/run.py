#!/usr/bin/env python3
"""Build and run the RADAR benchmark.

    python3 perfbench/run.py --workload serve|verify|campaign \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run configures and builds the
library and the benchmark program (Release) into $CARGO_TARGET_DIR, or
.bench_build when unset; after the first run both steps are incremental.
The program's report goes to stdout and its last line is the JSON result:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
when the build fails, a correctness gate fails or no result is produced.
"""
import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(src_dir, build_dir):
    """Configure and build (both incremental); output goes to stderr."""
    steps = [["cmake", "-S", src_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", "4"]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def manifest_problems(root, result, trace):
    """Where the result's metrics differ from BENCHMARK.json's rows for
    this kind of run (end-to-end untraced, per-layer traced)."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    rows = manifest["per_layer" if trace else "end_to_end"]
    want = {row["name"]: row["unit"] for row in rows}
    got = result["metrics"]
    problems = ["missing %s" % name for name in want if name not in got]
    problems += ["not in BENCHMARK.json: %s" % name for name in got if name not in want]
    problems += ["%s: unit %r, BENCHMARK.json says %r"
                 % (name, got[name].get("unit"), want[name])
                 for name in want if name in got and got[name].get("unit") != want[name]]
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "verify", "campaign"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src_dir = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(src_dir, build_dir):
        return 1

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    # The library reads RADAR_* knobs (chaos fault points, SIMD level,
    # fast mode); the benchmark runs with none of them set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RADAR_")}
    env["RADAR_CACHE_DIR"] = os.path.join(build_dir, "cache")
    cmd = [os.path.join(build_dir, "radar_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S, check=False,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1

    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(done.stdout)
        print("perfbench: radar_perfbench exited %d without a result"
              % done.returncode, file=sys.stderr)
        return 1
    problems = manifest_problems(root, result, args.trace)
    for problem in problems:
        print("perfbench: result does not match BENCHMARK.json: " + problem,
              file=sys.stderr)
    if problems:
        result["correct"] = False
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.stdout.flush()
    return 1 if problems else done.returncode


if __name__ == "__main__":
    sys.exit(main())
