"""scpkit benchmark: four workloads, end-to-end metrics, traced per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload verify_dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs in its own worker process (bench/worker.py); set-up is
timed in SETUP_SAMPLES fresh processes and reported as the median.  Only
one child process runs at a time.  Times are reported in reference
seconds: each set-up and each item is scaled by readings of a fixed loop
that this process takes just before and just after it, while no worker
runs (bench/gauge.py).  With ``--trace 0`` the last stdout line
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
an extra traced phase; the line before it, ``meta {...}``, holds run
metadata, failure counts and output digests.  The exit code is 0 only when
every output passed its correctness gate.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from gauge import NOMINAL_S, gauge_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify_dense", "verify_sparse", "sweep_small", "cli_pipeline")
SETUP_SAMPLES = 9
# Runs of the gauge loop at each pause of the worker and around each set-up.
GAUGE_RUNS = 3
# A workload's processes are killed this long after its first one starts.
WORKER_DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result (not an output-check failure)."""


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SCPKIT_LOG", None)
    return env


def start_worker(args: argparse.Namespace, workload: str, extra: list[str]) -> tuple[subprocess.Popen, str, float]:
    """Start a worker and wait for its ready line; returns (process, digest, setup seconds)."""
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, *extra,
    ]
    start = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=worker_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    setup_s = perf_counter() - start
    try:
        return proc, json.loads(line)["ready"], setup_s
    except (json.JSONDecodeError, KeyError):
        finish(proc, perf_counter() + 10)
        raise BenchError(f"{workload}: worker failed during set-up (exit {proc.returncode})") from None


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker and return its remaining stdout; kill it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    return out


def gauge(groups: list[list[float]]) -> None:
    """Append one group of gauge readings."""
    groups.append([gauge_s() for _ in range(GAUGE_RUNS)])


def scaled(pieces: list[list[list[float]]], groups: list[list[float]]) -> list[float]:
    """Times in reference units, one per timed thing, from its pieces.

    A piece ``[t, k]`` ran after gauge group k-1 and before group k; it is
    scaled by NOMINAL_S over the median of the readings of both groups.
    """
    return [
        sum(t * NOMINAL_S / statistics.median(groups[k - 1] + groups[k]) for t, k in parts)
        for parts in pieces
    ]


def serve_pauses(proc: subprocess.Popen, deadline: float) -> tuple[list[str], list[float]]:
    """Run the gauge at each of the worker's pauses while it waits.

    Returns the worker's other stdout lines and one group of gauge readings
    per pause; kills the worker at the deadline.
    """
    timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    timer.start()
    lines, gauges = [], []
    try:
        for line in proc.stdout:
            if line != "pause\n":
                lines.append(line)
                continue
            gauge(gauges)
            try:
                proc.stdin.write("\n")
                proc.stdin.flush()
            except BrokenPipeError:
                pass
        proc.wait()
    finally:
        timer.cancel()
    if perf_counter() >= deadline:
        raise BenchError("worker timed out")
    return lines, gauges


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    """Time SETUP_SAMPLES set-ups, then run the timed worker.

    The gauge is read before the first set-up process and after each, and
    at each of the timed worker's pauses, so every set-up and every item
    lies between two groups of readings.
    """
    deadline = perf_counter() + WORKER_DEADLINE_S
    samples, digests, setup_gauges = [], set(), []
    gauge(setup_gauges)
    for _ in range(SETUP_SAMPLES):
        proc, digest, setup_s = start_worker(args, workload, ["--setup-only"])
        finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"{workload}: set-up-only worker exited {proc.returncode}")
        gauge(setup_gauges)
        samples.append(setup_s)
        digests.add(digest)
    extra = ["--fault"] if args.fault else []
    if args.trace:
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        extra += ["--spans", str(spans_dir / f"spans-{workload}-seed{args.seed}.jsonl.gz")]
    proc, digest, _ = start_worker(args, workload, extra)
    digests.add(digest)
    lines, item_gauges = serve_pauses(proc, deadline)
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_samples_s"] = samples
    result["setup_gauges_s"] = setup_gauges
    result["item_gauges_s"] = item_gauges
    result["input_digest"] = digest
    if len(digests) != 1:
        result["failed"] += 1
        result["problems"].append(f"inputs differ between set-up processes: {sorted(digests)}")
    return result


def tail(latencies: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(latencies), "p50_ms": statistics.median(latencies)}
    if len(latencies) >= 20:
        pct = 100 * (1 - 10 / len(latencies))
        ranked = sorted(latencies)
        out[f"p{int(pct)}_ms"] = ranked[int(len(ranked) * pct / 100) - 1]
    return out


def summary(setup_samples: list[float], latencies: list[float], weight: int) -> dict:
    """Median set-up, throughput and median latency.

    A sweep is timed only as a whole, as ``weight`` cells: its median item
    time is the per-cell mean of the median sweep.
    """
    return {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": weight * len(latencies) / (sum(latencies) / 1e3),
        "item_p50_ms": statistics.median(latencies) / weight,
    }


def unscaled(result: dict) -> dict:
    """Set-up, throughput and median latency in the machine's own seconds."""
    return summary(result["setup_samples_s"], result["latencies_ms"], result["weight"])


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics; times in reference seconds (see gauge.py)."""
    # Set-up k ran between gauge groups k-1 and k.
    setup_pieces = [[[s, k]] for k, s in enumerate(result["setup_samples_s"], start=1)]
    fig = summary(
        scaled(setup_pieces, result["setup_gauges_s"]),
        scaled(result["pieces"], result["item_gauges_s"]),
        result["weight"],
    )
    return {
        "setup_s": (fig["setup_s"], "s"),
        "items_per_s": (fig["items_per_s"], "1/s"),
        "item_p50_ms": (fig["item_p50_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="item time to measure per phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    parser.add_argument("--fault", action="store_true", help="mutate the first verify item of every pass (self-test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "scpkit" / "__init__.py").is_file():
        print(f"error: no scpkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    meta = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "workloads": {},
    }
    attempted = failed = 0
    correct = True
    for workload in names:
        try:
            result = run_workload(args, workload)
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 3
        for problem in result["problems"]:
            print(f"{workload}: FAILED {problem}", file=sys.stderr)
        values = result["layers"] if args.trace else end_to_end(result)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0 and not result["problems"]
        failed_frac = result["failed"] / result["attempted"]
        outputs = json.dumps(result["output_digests"], sort_keys=True).encode("utf-8")
        meta["workloads"][workload] = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "failed_frac": failed_frac,
            "passes": result["passes"],
            "unscaled": {
                **unscaled(result),
                "latency": tail(result["latencies_ms"]),
                "timed_s": sum(result["latencies_ms"]) / 1e3,
                "setup_samples_s": result["setup_samples_s"],
                "setup_gauges_s": result["setup_gauges_s"],
                "item_gauges_s": result["item_gauges_s"],
            },
            "input_digest": result["input_digest"],
            "output_digest": hashlib.sha256(outputs).hexdigest(),
        }
        shown = "  ".join(f"{n}={v:.6g} {u}" for n, (v, u) in values.items())
        print(f"{workload}: {shown}  failed_frac={failed_frac:.6g} ({result['failed']}/{result['attempted']})")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
