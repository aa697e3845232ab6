#!/usr/bin/env python3
"""Run independent sets of benchmark runs of the same code and compare.

Usage, from the root of a checkout:

    python3 perfbench/compare.py --sets 2 --runs 10
    python3 perfbench/compare.py --sets 1 --runs 5 --workload flit-saturated

Each run calls perfbench/run.py with its own seed (set s, run r uses
seed 1 + 100*s + r). For every workload and end-to-end metric the
table gives each set's median, first and third quartile
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median against the
metric's bound from BENCHMARK.json, and, with two or more sets, how far
each later set's median moved in the worse direction against the bound.
It also checks that every set fails the same share of operations. Raw
result lines are appended to --out when given. Exit code 1 when a
spread (setup_s excepted) or a median shift exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="append raw result lines here")
    args = ap.parse_args()
    if args.runs < 4:
        sys.exit("--runs must be at least 4 for quartiles")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for r in range(args.runs):
                seed = 1 + 100 * s + r
                res = run(w, seed, args.seconds)
                results.append(res)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps({"workload": w, "set": s,
                                            "seed": seed,
                                            "result": res}) + "\n")
            sets.append(results)
        print(f"\n{w}")
        shares = []
        for results in sets:
            att = sum(r["attempted"] for r in results)
            fail = sum(r["failed"] for r in results)
            shares.append(fail / att)
            if not all(r["correct"] for r in results):
                print("  some run reported correct=false")
                ok = False
        print(f"  failed share per set: "
              + ", ".join(f"{x:.6f}" for x in shares))
        if len(set(shares)) > 1:
            ok = False
        for name, m in bounds.items():
            meds = []
            for s, results in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                verdict = ("steady" if spread <= m["bound"] / 3 else
                           "within bound" if spread <= m["bound"] else
                           "TOO WIDE")
                if name == "setup_s":
                    verdict += " (spread not gated)"
                elif spread > m["bound"]:
                    ok = False
                print(f"  {name:13s} set {s}: median {med:.6g} "
                      f"[{q1:.6g}, {q3:.6g}] {m['unit']}, spread "
                      f"{spread:.4f} vs bound {m['bound']} -> {verdict}")
            for s in range(1, len(meds)):
                worse = (meds[s] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = "ok" if worse <= m["bound"] else "REGRESSED"
                if worse > m["bound"]:
                    ok = False
                print(f"  {name:13s} set {s} vs set 0: median moved "
                      f"{worse:+.4f} (worse is +) vs bound "
                      f"{m['bound']} -> {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
