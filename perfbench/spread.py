#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads serve-hot,crash-sweep \
        --seeds 1-10 [--seconds 10] [--trace 0]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Raw results go to .bench_out/spread-<workload>.json.
Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)

    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True).stdout
            result = json.loads(out.rstrip("\n").split("\n")[-1])
            if not result["correct"] or result["failed"]:
                sys.exit("%s seed %d: incorrect or failed" % (workload, seed))
            runs.append(result)
        path = os.path.join(ROOT, ".bench_out", "spread-%s.json" % workload)
        with open(path, "w") as raw:
            json.dump(runs, raw)
        print("%s (%d runs of %d s)" % (workload, len(runs), seconds))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print("  %-30s median %14.6g  spread %6.3f  bound %s"
                  % (name, med, spread, bound if bound else "-"))


if __name__ == "__main__":
    main()
