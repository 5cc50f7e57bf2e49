#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the command in BENCHMARK.json once per seed for each workload and
prints, per metric, the median over the runs and the spread: the distance
between the first and third quartiles as a share of the median. Run it
from the repository root:

    python3 e2ebench/spread.py --seeds 1-10 [--workloads solo-cold,...] [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    declared = bench["per_layer" if args.trace == "1" else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in declared}

    for workload in args.workloads.split(","):
        values, walls, failures = {}, [], 0
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            start = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                failures += 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                failures += 1
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            reported = {n: m["unit"] for n, m in result["metrics"].items()}
            if reported != declared:
                print(f"{workload} seed {seed}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(reported.items()) ^ set(declared.items()))}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {len(walls)} runs, {failures} failed, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "  ok" if spread <= bound / 3 else ("  WITHIN BOUND" if spread <= bound else "  OVER BOUND")
                flag += f" (bound {bound})"
            print(f"  {name:32s} median {med:<14.6g} spread {spread:.3f}{flag}")
            if args.values:
                print("      " + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
