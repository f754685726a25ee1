#!/usr/bin/env python3
"""Run one workload of the benchmark once per seed and report, for each
end-to-end metric, the median and the interquartile spread as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,...] [--seconds S]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=int, default=None)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in a.seeds.split(","):
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", a.workload, "--seed", seed,
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %s: exit %d\n%s" % (seed, out.returncode, out.stderr[-2000:]))
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %s: incorrect result %s" % (seed, lines[-1]))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %s: %s" % (seed, " ".join(
            "%s=%.4f" % (n, result["metrics"][n]["value"]) for n in bounds)), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        print("%-14s median %.4f  spread %.3f  bound %.3f" % (name, med, (q3 - q1) / med,
                                                              bounds[name]))


if __name__ == "__main__":
    main()
