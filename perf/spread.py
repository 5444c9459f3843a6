#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the benchmark contract measures it.

Runs BENCHMARK.json's command ten times per workload, each with another
--seed, and prints for every end-to-end metric the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound. The benchmark is steady enough when
every spread is below a third of its bound (setup_s excepted). Run it from
the repository root; it is how the noise floors in README.md were observed.

    python3 perf/spread.py [--seeds 10] [--first-seed 100] [--only WORKLOAD]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--only")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"] if args.only in (None, w["name"])]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        took = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t = time.time()
            out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
            took.append(time.time() - t)
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} checks failed")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"{workload:<20} {m['name']:<13} median {med:<12.6g} {m['unit']:<4} "
                  f"iqr/median {spread * 100:6.2f}%  bound {m['bound'] * 100:4.0f}%  "
                  f"min {min(v):.6g} max {max(v):.6g}", flush=True)
        print(f"{workload:<20} run time       median {statistics.median(took):.1f} s  max {max(took):.1f} s", flush=True)
    print(f"worst spread/bound (setup_s excepted): {worst:.2f} (steady when below 0.33)")


if __name__ == "__main__":
    main()
