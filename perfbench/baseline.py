"""Measure every workload over several seeds and write a baseline file.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Runs ``run.py`` once per (seed, workload) untraced, cycling through the
workloads so slow phases of a shared host spread over all of them, then
one traced run per workload.  For each end-to-end metric it records every
value, the median and the quartile spread (Q3 - Q1) / median, and prints
the spread against the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace) -> tuple:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect result\n{out.stderr}")
    return env, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in names}
    envs = {}
    for seed in range(1, args.seeds + 1):
        for workload in names:
            envs[workload], result = run_once(workload, seed, seconds, 0)
            for metric, entry in result["metrics"].items():
                values[workload].setdefault(metric, []).append(entry["value"])
            print(f"{workload} seed {seed} done", flush=True)

    report = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in names:
        summary = {}
        for metric, vals in values[workload].items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[metric] = {"median": median, "spread": spread, "values": vals}
            print(f"{workload:8s} {metric:16s} median {median:.6g} spread {spread:.4f} bound {bounds[metric]}")
        _, traced = run_once(workload, 1, seconds, 1)
        report["workloads"][workload] = {
            "environment": envs[workload],
            "end_to_end": summary,
            "traced_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
