"""Run every workload over ten seeds plus one traced run, and record the results.

Run from the repository root:  python3 perfbench/baseline.py

It runs seeds 1-10 on every workload of BENCHMARK.json.  For each workload
it prints, per end-to-end metric, the median of the runs and their spread:
the distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median.  It writes
perfbench/baseline.json afresh: BENCHMARK.json's run settings, and per
workload the result line of every run, in the form run.py prints it, with the
medians and spreads and the result line of one traced run (seed 1).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed ({proc.returncode}):\n"
                 f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"run_seconds": spec["run_seconds"], "seeds": [SEEDS[0], SEEDS[-1]], "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = [run_once(spec, name, seed, 0) for seed in SEEDS]
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            summary[metric["name"]] = {"median": statistics.median(values),
                                       "spread": spread(values), "bound": metric["bound"]}
            print(f"{name:13s} {metric['name']:15s} median {summary[metric['name']]['median']:12.5g}"
                  f"  spread {summary[metric['name']]['spread']:.4f}  bound {metric['bound']}")
        traced = run_once(spec, name, SEEDS[0], 1)
        out["workloads"][name] = {"runs": runs, "summary": summary, "traced": traced}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
