"""Self-tests of the benchmark itself, on tiny inputs (under a minute).

Usage (from the root of a checkout):

    python3 bench/selftest.py

Kept out of the package's pytest collection on purpose: it times nothing
that matters and runs the benchmark end to end.  It checks that

* a smoke run of every workload, untraced and traced, is correct and
  emits exactly the metric names and units BENCHMARK.json declares;
* two traced runs with one seed repeat every count metric and every
  input and output digest exactly;
* a pair with one mutated exponent is caught by the gate: the result says
  ``correct: false`` with ``failed > 0`` and the exit code is non-zero;
* without the package sources next to it the benchmark exits non-zero
  without printing a result;
* the sweep's expected cell count is the README's 4,708.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = ("count", "B")


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    code, lines = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                        "--trace", str(trace), "--size", "tiny")
    check(code == 0, f"{workload} trace={trace} exited {code}")
    result, meta = json.loads(lines[-1]), json.loads(lines[-2].removeprefix("meta "))
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace={trace}: {result}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    check(emitted == {m["name"]: m["unit"] for m in declared},
          f"{workload} trace={trace} metrics differ from BENCHMARK.json: {sorted(emitted)}")
    return result, meta["workloads"][workload]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    check(workloads.sweep_cell_count((2, 4), 5) == 4708, "sweep cell count")
    check(list(workloads.WORKLOADS) == WORKLOADS, "workload names differ from BENCHMARK.json")

    for workload in WORKLOADS:
        smoke(workload, trace=0)
        first, first_meta = smoke(workload, trace=1)
        again, again_meta = smoke(workload, trace=1)
        for name, metric in first["metrics"].items():
            if metric["unit"] in EXACT_UNITS:
                check(metric == again["metrics"][name], f"{workload} {name} did not repeat")
        for key in ("input_digest", "output_digest"):
            check(first_meta[key] == again_meta[key], f"{workload} {key} did not repeat")
        print(f"ok  {workload}: metrics, units, counts and digests", flush=True)

    code, lines = bench("--workload", "verify_dense", "--seed", "7", "--seconds", "0.3",
                        "--size", "tiny", "--fault")
    result = json.loads(lines[-1])
    check(code != 0 and not result["correct"] and result["failed"] > 0,
          f"mutated pair not caught: exit {code}, {result}")
    print("ok  mutated exponent caught by the gate", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    check(code != 0 and not lines, f"bare directory: exit {code}, stdout {lines}")
    print("ok  without sources: non-zero exit, no result", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
