#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, measured the way the
benchmark's gate measures it: N runs per workload, each with another
--seed, through the command in BENCHMARK.json; spread = (Q3 - Q1) / median
by statistics.quantiles(values, n=4). Run from the repository root:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Prints one row per (workload, metric) with its bound and whether the
spread is within the bound and within a third of it. Exit code 1 if any
spread except that of setup_s exceeds its bound or a run is incorrect.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads}
    bad = []
    # Seed-major order, as a gate interleaving workloads would run them.
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"] or result["failed"]:
                bad.append(f"{w} seed {seed}: exit {proc.returncode}, result {result}")
                continue
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"seed {seed} {w}: {time.time() - t0:.1f} s", file=sys.stderr)

    print(f"{'workload':<20} {'metric':<12} {'median':>12} {'spread':>8} {'bound':>6}  verdict  (over {args.runs} runs)")
    for w in workloads:
        for m in bench["end_to_end"]:
            v = values[w][m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            verdict = "steady" if spread <= m["bound"] / 3 else "within bound" if spread <= m["bound"] else "OVER"
            if verdict == "OVER" and m["name"] != "setup_s":
                bad.append(f"{w} {m['name']}: spread {spread:.3f} over bound {m['bound']}")
            print(f"{w:<20} {m['name']:<12} {med:>12.5f} {spread * 100:>7.2f}% {m['bound'] * 100:>5.0f}%  {verdict}"
                  f"  q1 {q1:.5g} q3 {q3:.5g} min {min(v):.5g} max {max(v):.5g}")
    for b in bad:
        print("FAILED:", b)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
