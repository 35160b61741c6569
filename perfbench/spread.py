"""Run one or more workloads under several seeds and report, for every
end-to-end metric, the median and the quartile spread as a share of the
median -- the steadiness test the benchmark's bounds are checked with.

    python3 perfbench/spread.py [--seeds N] [--first S] [--workload W ...]

Each run is `bash perfbench/run.sh --workload W --seed S --seconds
<run_seconds> --trace 0`; runs are made one after another.
"""
import argparse
import json
import statistics
import subprocess
import sys

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

ap = argparse.ArgumentParser()
ap.add_argument("--seeds", type=int, default=10)
ap.add_argument("--first", type=int, default=1)
ap.add_argument("--workload", action="append")
args = ap.parse_args()
workloads = args.workload or [w["name"] for w in bench["workloads"]]

worst = 0.0
for w in workloads:
    values = {}
    for seed in range(args.first, args.first + args.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        calib = next((l for l in lines if l.startswith("calibration:")), "")
        if not result["correct"] or result["failed"]:
            sys.exit(f"{w} seed {seed}: incorrect result {result}")
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"{w} seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            + f" [{calib}]", flush=True)
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        share = spread / bounds[k]
        worst = max(worst, share)
        print(f"  {w:13s} {k:12s} median {med:.6g} spread {spread:.4f} "
              f"bound {bounds[k]} ({share:.2f} of bound)", flush=True)
print(f"largest spread: {worst:.2f} of its bound")
