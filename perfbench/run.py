#!/usr/bin/env python3
"""Build the benchmark from source and run one workload (or all).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flow-sweep --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles the
simulator libraries from src/) under .bench_build/perfbench, or under
$CARGO_TARGET_DIR/perfbench when that is set; later calls only relink
if a source changed. The last stdout line is the result JSON:
{"correct", "attempted", "failed", "metrics"}. With --workload all the
four workloads run one after another, each in its own process (so
peak RSS stays per workload), and the last line aggregates them with
metric names prefixed by the workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["flow-sweep", "flit-saturated", "flit-latency-lossy",
             "dnn-train"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_id():
    """Short digest of every source file the benchmark binary is built
    from: names the code under test where no git commit is available."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".hh", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def run_one(binary, workload, args, sid):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", sid]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), f"trace-{workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} printed no result line")
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    sid = source_id()
    if args.workload != "all":
        lines, _ = run_one(binary, args.workload, args, sid)
        print("\n".join(lines), flush=True)
        return

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines, result = run_one(binary, w, args, sid)
        print("\n".join(lines), flush=True)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
    print(json.dumps(total))


if __name__ == "__main__":
    main()
