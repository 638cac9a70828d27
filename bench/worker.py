"""Benchmark worker: set up one workload, run its timed loop, report JSON.

run.py starts this as a child process, one at a time.  The worker prints
``{"ready": <input digest>}`` once set-up (import, input generation,
warm-up) is done, so the parent can time set-up from process start, and
then one result object as its last line.  With ``--setup-only`` it exits
after the ready line.

The loop is closed: one item at a time, the next starting when the
previous one and its untimed correctness gate are done.  It stops at the
first pass boundary after ``--seconds`` of item time.  In the untraced
phase it pauses before the first item, after every PAUSE_EVERY_S of item
time (in the middle of an item if need be, see ItemClock), and at the
end: it prints ``pause`` and waits for a line on stdin while the parent
gauges the host (see gauge.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
MAX_PROBLEMS = 10
# Outputs and counts of every pass are compared with the first pass.
MIN_PASSES = 2
PAUSE_EVERY_S = 1.0


class ItemClock:
    """Times items and, when gauged, pauses for the parent's gauge.

    A gauged clock pauses before the first item, whenever PAUSE_EVERY_S of
    item time has run since the last pause, and at the end.  For a runner
    whose items run in this process, an interval timer (SIGALRM) makes the
    pause in the middle of an item; otherwise (cli_pipeline, whose items
    are child processes that a pause would not stop) the pause waits for
    the end of the item.  An item's time is kept as pieces ``[ms, k]``: the
    piece ran after pause k-1 and before pause k, and the pauses' own time
    is not item time.
    """

    def __init__(self, gauged: bool, interruptible: bool) -> None:
        self.gauged = gauged
        self.timer = gauged and interruptible
        self.pauses = 0
        self.pending_ns = 0
        self.in_item = False
        self.pieces: list[list[float]] = []
        self.start = 0
        if self.timer:
            signal.signal(signal.SIGALRM, self._on_timer)

    def pause(self) -> None:
        """Wait while the parent gauges the host."""
        if self.gauged:
            print("pause", flush=True)
            sys.stdin.readline()
            self.pauses += 1
        self.pending_ns = 0

    def pause_if_due(self) -> None:
        if self.pending_ns >= PAUSE_EVERY_S * 1e9:
            self.pause()

    def begin(self) -> None:
        self.pieces = []
        self.start = perf_counter_ns()
        self.in_item = True
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, max(PAUSE_EVERY_S - self.pending_ns / 1e9, 1e-3))

    def end(self) -> list[list[float]]:
        """The item's pieces."""
        self.in_item = False
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._cut()
        return self.pieces

    def _cut(self) -> None:
        ns = perf_counter_ns() - self.start
        self.pieces.append([ns / 1e6, self.pauses])
        self.pending_ns += ns

    def _on_timer(self, signum, frame) -> None:
        if not self.in_item:
            return
        self._cut()
        self.pause()
        signal.setitimer(signal.ITIMER_REAL, PAUSE_EVERY_S)
        self.start = perf_counter_ns()


def timed_passes(runner, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run whole passes, at least MIN_PASSES, until ``seconds`` of item time.

    Every item goes through the runner's gate, untimed, and its output is
    dropped before the next item starts.  Untraced, the worker pauses for
    the parent's gauge (see ItemClock), so every piece of item time lies
    between two pauses; ``pieces`` holds each item's pieces.
    """
    clock = ItemClock(gauged=tracer is None, interruptible=runner.interruptible)
    pass_latencies: list[list[float]] = []
    pieces: list[list[list[float]]] = []
    attempted = failed = 0
    problems: list[str] = []
    pass_counts: list[Counter] = []
    clock.pause()
    while len(pass_latencies) < MIN_PASSES or sum(map(sum, pass_latencies)) < seconds * 1e3:
        pass_no = len(pass_latencies)
        latencies: list[float] = []
        first_span = len(tracer) if tracer is not None else 0
        for index in range(runner.pass_size):
            if tracer is not None:
                tracer.item_id = pass_no * runner.pass_size + index
                root = tracer.open("bench.item")
            clock.begin()
            try:
                out = runner.run(index, pass_no, tracer)
            except Exception:
                out = None
                problems.append(traceback.format_exc(limit=3))
            pieces.append(clock.end())
            latencies.append(sum(ms for ms, _ in pieces[-1]))
            if tracer is not None:
                tracer.close(root)
                runner.collect(tracer)
            attempted += runner.weight
            if out is None:
                failed += runner.weight
            else:
                found = runner.gate(index, pass_no, out)
                failed += min(len(found), runner.weight)
                problems += found
            del out
            clock.pause_if_due()
        pass_latencies.append(latencies)
        if tracer is not None:
            counts = Counter(tracer.counts)
            tracer.counts.clear()
            counts.update(tracer.names[first_span:])
            pass_counts.append(counts)
    if clock.pending_ns:
        clock.pause()
    latencies_ms = [ms for lat in pass_latencies for ms in lat]
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(pass_latencies),
        "latencies_ms": latencies_ms,
        "pieces": pieces,
        "items_per_s": attempted / (sum(latencies_ms) / 1e3),
        "problems": problems,
        "pass_counts": pass_counts,
    }


def layer_metrics(tracer: Tracer, traced: dict, untraced_ips: float, traced_ips: float,
                  import_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics, per pass, from the spans and counters of the traced phase."""
    problems = []
    counts = traced["pass_counts"]
    for n, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            diff = {k: (counts[0][k], c[k]) for k in set(c) | set(counts[0]) if c[k] != counts[0][k]}
            # Only time totals may differ between passes.
            diff.pop("correlate.is_zero.ns", None)
            if diff:
                problems.append(f"counts of pass {n} differ from pass 0: {diff}")
    first = counts[0]
    passes = traced["passes"]

    own = tracer.self_times()
    self_s: Counter = Counter()
    wall_s: Counter = Counter()
    unattributed = 0.0
    for name, start, end, ns in zip(tracer.names, tracer.start, tracer.end, own):
        self_s[name] += ns / 1e9 / passes
        wall_s[name] += (end - start) / 1e9 / passes
        # Per item, everything but the root's own time is attributed to a layer.
        if name == "bench.item" and end > start:
            unattributed = max(unattributed, ns / (end - start))
    overhead = 1.0 - traced_ips / untraced_ips
    if unattributed > max(overhead, 0.05):
        problems.append(f"item time not covered by layer spans: {unattributed:.3f}")

    is_zero_s = sum(c["correlate.is_zero.ns"] for c in counts) / 1e9 / passes
    is_zero_calls = first["correlate.is_zero.calls_fold"] + first["correlate.is_zero.calls_cyclotomic"]
    table = first["rgbf.table_entries"]
    profile_s = self_s["correlate.profile"]
    cli_self = sum(v for k, v in self_s.items() if k.startswith("cli."))
    values = {
        "rgbf.restrict.calls": (first["rgbf.restrict"], "count"),
        "rgbf.restrict.self_s": (self_s["rgbf.restrict"], "s"),
        "rgbf.truncate.self_s": (self_s["rgbf.truncate"], "s"),
        "rgbf.table_entries": (table, "count"),
        "rgbf.kept_ratio": (first["rgbf.kept"] / table if table else 0.0, "ratio"),
        "construct.calls": (first["construct.construct_scp"] + first["construct.construct_mate"], "count"),
        "construct.self_s": (self_s["construct.construct_scp"] + self_s["construct.construct_mate"], "s"),
        "correlate.profile.calls": (first["correlate.profile"], "count"),
        "correlate.profile.self_s": (profile_s, "s"),
        "correlate.support_products": (first["correlate.support_products"], "count"),
        "correlate.products_per_s": (
            first["correlate.support_products"] / profile_s if profile_s else 0.0, "1/s"),
        "correlate.shifts": (first["correlate.shifts"], "count"),
        "correlate.is_zero.calls_fold": (first["correlate.is_zero.calls_fold"], "count"),
        "correlate.is_zero.calls_cyclotomic": (first["correlate.is_zero.calls_cyclotomic"], "count"),
        "correlate.is_zero.self_s": (is_zero_s, "s"),
        "verify.check_scp.self_s": (self_s["verify.check_scp"], "s"),
        "verify.check_mate.self_s": (self_s["verify.check_mate"], "s"),
        "verify.sweep.self_s": (self_s["verify.sweep"], "s"),
        "verify.is_zero_per_shift": (
            is_zero_calls / first["correlate.shifts"] if first["correlate.shifts"] else 0.0, "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.mate.wall_s": (wall_s["cli.mate"], "s"),
        "cli.verify.wall_s": (wall_s["cli.verify"], "s"),
        "cli.correlate.wall_s": (wall_s["cli.correlate"], "s"),
        "cli.catalog.wall_s": (wall_s["cli.catalog"], "s"),
        "cli.bytes_written": (first["cli.bytes_written"], "B"),
        "cli.bytes_read": (first["cli.bytes_read"], "B"),
        "trace.items_per_s": (traced_ips, "1/s"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.unattributed_frac": (unattributed, "ratio"),
    }
    return values, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--fault", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="gzip JSON-lines file for the traced spans")
    args = parser.parse_args()

    runner = workloads.RUNNERS[args.workload](args.workload, args.size, args.seed, ROOT, args.fault)
    try:
        print(json.dumps({"ready": runner.setup()}), flush=True)
        if args.setup_only:
            return 0
        untraced = timed_passes(runner, args.seconds)
        rusage = resource.RUSAGE_CHILDREN if args.workload == "cli_pipeline" else resource.RUSAGE_SELF
        result = {
            key: untraced[key]
            for key in ("attempted", "failed", "passes", "latencies_ms", "pieces", "problems")
        }
        result["problems"] = result["problems"][:MAX_PROBLEMS]
        result["peak_rss_mb"] = resource.getrusage(rusage).ru_maxrss / 1024
        result["output_digests"] = runner.seen.first
        result["weight"] = runner.weight
        if args.trace:
            import_s = statistics.median(
                workloads.import_probe() for _ in range(3)
            )
            tracer = Tracer()
            tracer.install()
            try:
                traced = timed_passes(runner, args.seconds, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics, problems = layer_metrics(
                tracer, traced, untraced["items_per_s"], traced["items_per_s"], import_s
            )
            result["layers"] = metrics
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            result["problems"] += (traced["problems"] + problems)[:MAX_PROBLEMS]
            if args.spans:
                tracer.write(args.spans)
    finally:
        runner.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
