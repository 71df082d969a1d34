#!/usr/bin/env python3
"""Builds and runs the join-service benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload triangle_sharded --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --compare OLD.json NEW.json

The first run configures perfbench/ (which compiles ../src into the
tetris_core library) in the RelWithDebInfo configuration and builds the
benchmark program under $CARGO_TARGET_DIR/perfbench, or under
.bench_build/perfbench when the variable is unset; later runs reuse that
build. The program's report goes to stdout and ends with the one-line JSON result. Each run's stamp
(nproc, build type, compiler, commit, workload, seed, seconds) and result
are also saved under <build>/perfbench-results/, and a traced run's spans
under <build>/perfbench-traces/.

--compare prints two saved results side by side and refuses (exit 3) when
their stamps differ in anything but the commit.

Seeds: 1 is the default seed; 7919 is the hold-out seed, kept for
re-checking a claim on inputs it was not tuned on.
"""
import argparse
import json
import os
import subprocess
import sys

DEFAULT_SEED = 1
WORKLOADS = ("triangle_sharded", "batch_mixed", "serve_rw")
# Stamp fields two results must share before they may be compared.
CONFIG_STAMP = ("nproc", "build_type", "compiler", "workload", "seed", "seconds")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no source tree next to {HERE}; run from a full checkout")
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "perfbench")


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run(args):
    top = build_root()
    binary = build(os.path.join(top, "perfbench"))
    if binary is None:
        return 2
    traces = os.path.join(top, "perfbench-traces")
    results = os.path.join(top, "perfbench-results")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", traces, "--commit", commit()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stdout.write(done.stdout)
        log(f"{args.workload} exited with status {done.returncode}")
        return done.returncode or 1
    stamp = json.loads(lines[-2])["stamp"]
    result = json.loads(lines[-1])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


def compare(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    differ = [k for k in CONFIG_STAMP if old["stamp"].get(k) != new["stamp"].get(k)]
    if differ:
        for k in differ:
            log(f"stamps differ in {k}: {old['stamp'].get(k)!r} vs "
                f"{new['stamp'].get(k)!r}; not comparing")
        return 3
    print(f"commit {old['stamp']['commit']} -> {new['stamp']['commit']}")
    for name, m in old["result"]["metrics"].items():
        after = new["result"]["metrics"].get(name, {}).get("value")
        before = m["value"]
        ratio = f"{after / before:.3f}" if after is not None and before else "-"
        print(f"  {name:40s} {before:>14.6g} {after!s:>14} {m['unit']:>6} x{ratio}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be within 1..60")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
