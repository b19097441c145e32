#!/usr/bin/env python3
"""Measures the benchmark's own steadiness.

    python3 perfbench/steadiness.py [--runs 10]

Runs every workload in BENCHMARK.json --runs times on seeds 1, 2, ..., each
run as long as its run_seconds, alternating between workloads so a slow
spell of the machine falls on all of them. For each end-to-end metric it
prints the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the bound in BENCHMARK.json, and flags a
spread above a third of the bound. It then repeats seed 1 of every workload
and compares the exact counts of the two runs: any difference is a
determinism fault. Exits non-zero on a failed run, a determinism fault or a
spread above its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, None
    exact = [l for l in lines if l.startswith("exact ")]
    return json.loads(lines[-1]), exact


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    first_exact = {}
    ok = True
    for i in range(args.runs):
        seed = 1 + i
        for w in workloads:
            result, exact = run_once(w, seed, seconds)
            if result is None or not result["correct"]:
                print(f"{w} seed {seed}: run FAILED")
                ok = False
                continue
            if i == 0:
                first_exact[w] = exact
            shares[w].add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)

    print()
    print(f"{'workload':14} {'metric':22} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    for w in workloads:
        fails = {f / a for f, a in shares[w]}
        print(f"{w}: failed share {sorted(fails)}")
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            flag = ""
            if spread > bound:
                flag = "  ABOVE BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "  above a third of the bound"
            print(f"{w:14} {name:22} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.4f} {bound:6.3f}{flag}")

    print()
    for w in workloads:
        if w not in first_exact:
            continue
        _, again = run_once(w, 1, seconds)
        same = again == first_exact[w]
        print(f"{w}: exact counts on seed 1 "
              f"{'repeat' if same else 'DIFFER (determinism fault)'}")
        if not same:
            ok = False
            for a, b in zip(first_exact[w], again or []):
                if a != b:
                    print(f"  {a}  vs  {b}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
