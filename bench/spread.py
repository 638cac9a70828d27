"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 bench/spread.py --workloads verify_dense,sweep_small --seeds 1-10 --seconds 20

For every workload and end-to-end metric it prints the median, the first
and third quartile (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json, and
exits non-zero if a spread exceeds its bound.  With ``--trajectory LABEL``
it appends the medians and quartiles, with the commit and machine, to
bench/trajectory.json.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def trajectory_point(label: str, report: dict, seconds: float, seeds: str) -> dict:
    from run import git_commit

    return {
        "label": label,
        "commit": git_commit(),
        "machine": f"{platform.machine()}, nproc={os.cpu_count()}, "
                   f"{platform.python_implementation()} {platform.python_version()}",
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {
            workload: {
                name: {k: round(v, 6) for k, v in fig.items() if k in ("median", "q1", "q3")}
                for name, fig in metrics.items()
            }
            for workload, metrics in report.items()
        },
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trajectory", metavar="LABEL", help="append a point to bench/trajectory.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds_from(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        report[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- spread >= bound/3"
            if spread > bounds[name]:
                ok = False
                flag = "  <-- spread > bound"
            print(f"  {workload:14s} {name:12s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} bound={bounds[name]}{flag}")
            report[workload][name] = {"median": med, "q1": q1, "q3": q3}
    if args.trajectory:
        path = ROOT / "bench" / "trajectory.json"
        points = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        points.append(trajectory_point(args.trajectory, report, args.seconds, args.seeds))
        path.write_text(json.dumps(points, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
