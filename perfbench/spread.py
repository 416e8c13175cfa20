#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread: the distance between the first and third quartile of
its values, as a share of their median (statistics.quantiles(values, n=4)).

Run from the repository root:

    python3 perfbench/spread.py --workloads scan,join,served,requery --seeds 1-10
    python3 perfbench/spread.py --workloads scan,join,served,requery --seeds 1

Each run measures BENCHMARK.json's run_seconds with --trace 0. With one
seed it runs every workload once and prints every metric with its unit. A
metric is steady when its spread is below a third of its bound in
BENCHMARK.json (setup_s is exempt). Exits 1 as soon as a run fails (an
oracle mismatch included), 2 when a spread is wide.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values, units = {}, {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
            if run.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stdout}\n{run.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(last)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"== {workload}: {len(seeds(args.seeds))} seeds, {seconds} s each")
        for name, vs in values.items():
            med = statistics.median(vs)
            line = f"  {name:32s} median {med:14.4f} {units[name]:6s}"
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                bound = bounds.get(name)
                line += f"  spread {spread:7.4f}  bound {bound}"
                if bound is not None and name != "setup_s":
                    ok = spread < bound / 3
                    steady &= ok
                    line += "  ok" if ok else "  WIDE"
            print(line, flush=True)
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
