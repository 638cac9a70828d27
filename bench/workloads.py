"""Seeded inputs, item runners and the correctness gate for each workload.

An *item* of a ``verify_*`` workload is one construct-and-verify unit:
``construct_scp`` + ``construct_mate`` + ``check_scp`` on both pairs +
``check_mate``, the same work the sweep does per cell.  A *pass* is a
workload's fixed list of items; the timed loop only stops at a pass
boundary, so every run measures the same mix of item sizes whatever the
seed or the speed of the machine.

The seed never changes an item's cost.  For each size class the set of
restricted variables is fixed (it alone sets L, Z and the support size);
the seed draws the order inside the restricted and the free block, the
fixed bits d, the linear part g and the order of items in a pass.

Items call scpkit through module attributes at call time
(``scpkit.construct_scp``), so the tracer's wrappers see those calls.  The
gates call nothing the tracer wraps, so traced counts cover only the
timed items.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import scpkit
from tracing import Tracer

WORKLOADS = ("verify_dense", "verify_sparse", "sweep_small", "cli_pipeline")

# (q, m, t) size classes making up one pass; restricted variables are 1..t,
# so L = 2^m - 2^t + 1 and the support is 2^(m-t).
PASS_CLASSES = {
    "full": {
        # Support 1024, L = 2047 and 4093: the O(|supp|^2) support-pair loop
        # dominates.  Support 2048 (m=13, t=2) costs four times as much an
        # item and is left out to keep a pass near 6 s.
        "verify_dense": [(q, m, t) for q in (2, 4, 6) for m, t in ((11, 1), (12, 2))],
        # Support 128, L = 32,513 and 65,025: per-shift values and full 2^m
        # tables dominate.  Three items keep a pass near 8 s, so that a 20 s
        # run sees each item three times.
        "verify_sparse": [(2, 15, 8), (4, 15, 8), (6, 16, 9)],
        # Params files for the CLI: support 128, 128 and 256.
        "cli_pipeline": [(2, 9, 2), (4, 10, 3), (6, 11, 3)],
    },
    # Smoke-test sizes for selftest.py.
    "tiny": {
        "verify_dense": [(2, 6, 1), (6, 6, 1)],
        "verify_sparse": [(4, 7, 3), (6, 7, 3)],
        "cli_pipeline": [(2, 5, 1), (6, 6, 2)],
    },
}

# sweep_small runs exhaustive_sweep(q_values, m_max); "full" is the README's
# default sweep of 4,708 cells.
SWEEP_SIZES = {"full": ((2, 4), 5), "tiny": ((2, 6), 3)}

# Float-oracle spot checks per verify item: this many seeded shifts for each
# of (c0, c1) and (c0, mate c1).
ORACLE_SHIFTS = 2


def seeded_params(seed: int, q: int, m: int, t: int, slot: int) -> scpkit.ScpParams:
    """Valid mate-capable params of one size class, drawn from the seed."""
    rng = random.Random(f"{seed}|{slot}|{q}|{m}|{t}")
    restricted = list(range(1, t + 1))
    free = list(range(t + 1, m + 1))
    rng.shuffle(restricted)
    rng.shuffle(free)
    params = scpkit.ScpParams(
        q=q,
        m=m,
        t=t,
        perm=tuple(restricted + free),
        d=tuple(rng.randrange(2) for _ in range(t)),
        g=tuple(rng.randrange(q) for _ in range(m + 1)),
    )
    params.require_mate()
    return params


def pass_params(workload: str, size: str, seed: int) -> list[scpkit.ScpParams]:
    """The workload's pass, in a seeded order."""
    params = [
        seeded_params(seed, q, m, t, slot)
        for slot, (q, m, t) in enumerate(PASS_CLASSES[size][workload])
    ]
    random.Random(f"{seed}|order").shuffle(params)
    return params


def sweep_cell_count(q_values, m_max: int) -> int:
    """Cells of exhaustive_sweep, counted independently of its enumeration.

    Of the m! permutations, the fraction whose last position dominates the
    first t is 1/(t+1); each has 2^t choices of d and two linear parts.
    """
    per_q = sum(
        math.factorial(m) // (t + 1) * 2**t * 2
        for m in range(1, m_max + 1)
        for t in range(m)
    )
    return per_q * len(q_values)


def digest(obj) -> str:
    """SHA-256 of an object's canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def import_probe() -> float:
    """Wall seconds of ``python -c "import scpkit.cli"``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import scpkit.cli"], check=True, timeout=60)
    return perf_counter() - start


class Mismatch:
    """Remembers each item's output digest from pass 0 and flags changes."""

    def __init__(self) -> None:
        self.first: dict[int, str] = {}

    def check(self, index: int, value: str) -> list[str]:
        expected = self.first.setdefault(index, value)
        if expected != value:
            return [f"item {index}: output differs from pass 0 ({value[:12]} vs {expected[:12]})"]
        return []


# ---------------------------------------------------------------------------
# verify_dense, verify_sparse
# ---------------------------------------------------------------------------


@dataclass
class VerifyOutcome:
    pair: scpkit.ScpPair
    mate: scpkit.ScpPair
    reports: tuple


def mutate_pair(pair: scpkit.ScpPair) -> scpkit.ScpPair:
    """The pair with its first entry's exponent moved by one (a fault)."""
    entries = list(pair.c0.entries)
    entries[0] = (entries[0] + 1) % pair.c0.q
    return scpkit.ScpPair(scpkit.SparseSequence(pair.c0.q, tuple(entries)), pair.c1, pair.params)


def run_verify_item(params: scpkit.ScpParams, fault: bool = False) -> VerifyOutcome:
    pair = scpkit.construct_scp(params)
    mate = scpkit.construct_mate(params)
    if fault:
        pair = mutate_pair(pair)
    reports = (scpkit.check_scp(pair), scpkit.check_scp(mate), scpkit.check_mate(pair, mate))
    return VerifyOutcome(pair, mate, reports)


def gate_verify(params: scpkit.ScpParams, out: VerifyOutcome, rng: random.Random) -> list[str]:
    """Problems with one verify item's output; empty when it is correct."""
    problems = []
    for name, report in zip(("pair", "mate_as_pair", "mate"), out.reports):
        if not report.passed:
            failing = report.first_failing()
            problems.append(f"{name}: {failing.condition} fails at u={failing.first_failure}")
        if report.measured_zcz < params.zcz:
            problems.append(f"{name}: measured zone {report.measured_zcz} < {params.zcz}")
        if report.sparsity_measured != params.sparsity:
            problems.append(f"{name}: sparsity {report.sparsity_measured} != {params.sparsity}")
    seqs = (out.pair.c0, out.pair.c1, out.mate.c0, out.mate.c1)
    for seq in seqs:
        if len(seq) != params.length or seq.zero_count != params.zero_count:
            problems.append(
                f"sequence L={len(seq)} N={seq.zero_count}, "
                f"params say L={params.length} N={params.zero_count}"
            )
    L = params.length
    for a, b in ((seqs[0], seqs[1]), (seqs[0], seqs[3])):
        for _ in range(ORACLE_SHIFTS):
            u = rng.randrange(-(L - 1), L)
            exact = scpkit.cross_correlation(a, b, u).to_complex()
            approx = scpkit.float_cross_correlation(a, b, u)
            if abs(exact - approx) > 1e-6 * L:
                problems.append(f"oracle disagrees at u={u}: {exact} vs {approx}")
    return problems


def warm_up() -> None:
    """Run every in-process code path once on tiny inputs (fills caches)."""
    for q in (2, 4, 6):
        params = seeded_params(0, q, 5, 2, 0)
        if gate_verify(params, run_verify_item(params), random.Random(0)):
            raise RuntimeError(f"warm-up item failed its gate at q={q}")
    scpkit.exhaustive_sweep(q_values=(2, 6), m_max=2, seed=0)


class Runner:
    """A workload's items: ``setup`` returns the input digest, ``run`` times
    one item, ``gate`` lists what is wrong with its output."""

    weight = 1  # items credited per run() call
    # Whether the gauge may pause the worker in the middle of an item.
    interruptible = True

    def collect(self, tracer: Tracer) -> None:
        """Gather what a traced item left outside its spans (untimed)."""

    def close(self) -> None:
        """Remove whatever set-up created."""


class VerifyRunner(Runner):
    """verify_dense / verify_sparse: one item is one pair+mate unit."""

    def __init__(self, workload: str, size: str, seed: int, root: Path, fault: bool) -> None:
        self.workload, self.size, self.seed, self.fault = workload, size, seed, fault
        self.seen = Mismatch()

    def setup(self) -> str:
        self.params = pass_params(self.workload, self.size, self.seed)
        warm_up()
        return digest([scpkit.params_to_dict(p) for p in self.params])

    @property
    def pass_size(self) -> int:
        return len(self.params)

    def run(self, index: int, pass_no: int, tracer: Tracer | None) -> VerifyOutcome:
        return run_verify_item(self.params[index], fault=self.fault and index == 0)

    def gate(self, index: int, pass_no: int, out: VerifyOutcome) -> list[str]:
        rng = random.Random(f"{self.seed}|gate|{pass_no}|{index}")
        problems = gate_verify(self.params[index], out, rng)
        return problems + self.seen.check(index, digest([out.pair.to_dict(), out.mate.to_dict()]))


# ---------------------------------------------------------------------------
# sweep_small
# ---------------------------------------------------------------------------


class SweepRunner(Runner):
    """sweep_small: one run() is a whole sweep, credited as its cells."""

    def __init__(self, workload: str, size: str, seed: int, root: Path, fault: bool) -> None:
        self.q_values, self.m_max = SWEEP_SIZES[size]
        self.seed = seed
        self.weight = sweep_cell_count(self.q_values, self.m_max)
        self.pass_size = 1
        self.seen = Mismatch()

    def setup(self) -> str:
        warm_up()
        return digest({"q": self.q_values, "m_max": self.m_max, "seed": self.seed})

    def run(self, index: int, pass_no: int, tracer: Tracer | None) -> scpkit.SweepSummary:
        return scpkit.exhaustive_sweep(q_values=self.q_values, m_max=self.m_max, seed=self.seed)

    def gate(self, index: int, pass_no: int, summary: scpkit.SweepSummary) -> list[str]:
        problems = [
            f"cell q={c.q} m={c.m} t={c.t} perm={c.perm} d={c.d} g={c.g_label} failed"
            for c in summary.failures()
        ]
        if summary.pairs_total != self.weight:
            problems.append(f"sweep has {summary.pairs_total} cells, expected {self.weight}")
        csv_text = "\n".join(",".join(map(str, row)) for row in summary.csv_rows())
        sha = hashlib.sha256(csv_text.encode("utf-8")).hexdigest()
        return problems + self.seen.check(index, sha)


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    kind: str  # mate, verify, correlate or catalog
    args: tuple[str, ...]
    reads: tuple[Path, ...]  # files the command reads, once per entry
    out: Path
    params: scpkit.ScpParams | None


class CliRunner(Runner):
    """cli_pipeline: one item is one CLI command in its own process.

    Per params file: ``mate`` -> ``verify pair --mate`` -> ``correlate``;
    each pass ends with one ``catalog``.  Commands run one at a time.  When
    traced, each command runs under ``clitrace.py`` and its spans are
    grafted under the command's span.  A pause would not stop a running
    command, so the gauge waits for the end of one.
    """

    interruptible = False

    def __init__(self, workload: str, size: str, seed: int, root: Path, fault: bool) -> None:
        self.size, self.seed, self.root = size, seed, root
        self.work = root / ".bench_out" / f"cli-{os.getpid()}"
        self.seen = Mismatch()
        self.pending: tuple[int, Command, Path] | None = None

    def setup(self) -> str:
        self.work.mkdir(parents=True, exist_ok=True)
        self.golden_catalog = (self.root / "tests" / "data" / "catalog.csv").read_bytes()
        params = pass_params("cli_pipeline", self.size, self.seed)
        self.expected: dict[Path, str] = {}
        self.commands: list[Command] = []
        for k, p in enumerate(params):
            pfile, pair = self.work / f"params{k}.json", self.work / f"pair{k}.json"
            pfile.write_text(json.dumps(scpkit.params_to_dict(p)), encoding="utf-8")
            self.expected[pair] = digest(
                [scpkit.construct_scp(p).to_dict(), scpkit.construct_mate(p).to_dict()]
            )
            report, profiles = self.work / f"report{k}.json", self.work / f"profiles{k}.csv"
            self.commands += [
                Command("mate", ("mate", "--params", str(pfile), "--out", str(pair)), (pfile,), pair, p),
                Command(
                    "verify",
                    ("verify", str(pair), "--mate", str(pair), "--out", str(report)),
                    (pair, pair),
                    report,
                    p,
                ),
                Command("correlate", ("correlate", str(pair), "--out", str(profiles)), (pair,), profiles, p),
            ]
        catalog = self.work / "catalog.csv"
        self.commands.append(Command("catalog", ("catalog", "--out", str(catalog)), (), catalog, None))
        import_probe()
        return digest([scpkit.params_to_dict(p) for p in params])

    @property
    def pass_size(self) -> int:
        return len(self.commands)

    def run(self, index: int, pass_no: int, tracer: Tracer | None) -> subprocess.CompletedProcess:
        cmd = self.commands[index]
        if tracer is None:
            argv = [sys.executable, "-m", "scpkit.cli", *cmd.args]
            return subprocess.run(argv, capture_output=True, text=True, timeout=120)
        spans_file = self.work / "spans.json"
        argv = [
            sys.executable,
            str(Path(__file__).with_name("clitrace.py")),
            str(spans_file),
            str(tracer.item_id),
            *cmd.args,
        ]
        span = tracer.open("cli." + cmd.kind)
        self.pending = (span, cmd, spans_file)
        try:
            return subprocess.run(argv, capture_output=True, text=True, timeout=120)
        finally:
            tracer.close(span)

    def collect(self, tracer: Tracer) -> None:
        """Graft the last command's spans and count its bytes (untimed)."""
        parent, cmd, spans_file = self.pending
        self.pending = None
        if spans_file.exists():
            recorded = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
            tracer.graft(recorded["spans"], parent)
            tracer.counts.update(recorded["counts"])
        tracer.counts["cli.bytes_read"] += sum(p.stat().st_size for p in cmd.reads)
        if cmd.out.exists():
            tracer.counts["cli.bytes_written"] += cmd.out.stat().st_size

    def gate(self, index: int, pass_no: int, proc: subprocess.CompletedProcess) -> list[str]:
        cmd = self.commands[index]
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return [f"{cmd.kind} exited {proc.returncode}: {tail[0]}"]
        data = cmd.out.read_bytes()
        problems = []
        if cmd.kind == "mate":
            obj = json.loads(data)
            if digest([obj["pair"], obj["mate"]]) != self.expected[cmd.out]:
                problems.append("mate output differs from the in-process construction")
        elif cmd.kind == "verify":
            obj = json.loads(data)
            for key in ("pair", "mate_as_pair", "mate"):
                if not obj[key]["passed"]:
                    problems.append(f"verify report {key} has passed: false")
                if obj[key]["measured_zcz"] < cmd.params.zcz:
                    problems.append(f"verify report {key} measured zone below {cmd.params.zcz}")
        elif cmd.kind == "correlate":
            rows = data.decode("utf-8").splitlines()
            expected_rows = 4 * (2 * cmd.params.length - 1) + 1
            if len(rows) != expected_rows:
                problems.append(f"correlate CSV has {len(rows)} rows, expected {expected_rows}")
            # The autocorrelation sum is an exact zero exactly off u = 0.
            aacs = [row.split(",") for row in rows if row.startswith("aacs,")]
            if any((r[1] == "0") == (r[5] == "1") for r in aacs):
                problems.append("correlate CSV: aacs zero flags break complementarity")
        elif data != self.golden_catalog:
            problems.append("catalog output differs from tests/data/catalog.csv")
        # Each pass starts without outputs, so a stale file cannot pass the
        # gate; the pair file goes after correlate, its last reader.
        if cmd.kind != "mate":
            cmd.out.unlink()
        if cmd.kind == "correlate":
            cmd.reads[0].unlink()
        return problems + self.seen.check(index, hashlib.sha256(data).hexdigest())

    def close(self) -> None:
        for path in sorted(self.work.glob("*")):
            path.unlink()
        self.work.rmdir()


RUNNERS = {
    "verify_dense": VerifyRunner,
    "verify_sparse": VerifyRunner,
    "sweep_small": SweepRunner,
    "cli_pipeline": CliRunner,
}
