"""In-memory span tracer that wraps scpkit's layers from the outside.

Nothing inside the package is edited.  ``Tracer.install`` replaces each
public function with a recording wrapper in every scpkit module namespace
that holds it -- where its callers look it up -- so for example
``scpkit.verify.correlation_profile`` and ``scpkit.cli.correlation_profile``
are both wrapped; ``uninstall`` puts the originals back.

A span is (name, start_ns, end_ns, parent index, item id, leaf_ns), kept
in columns of machine integers so that a sweep's ~10^5 spans add no
objects for the garbage collector to scan.  ``CyclotomicInt.is_zero`` runs
millions of times per item, so it is traced as a *leaf*: each call adds
its duration to the enclosing span's ``leaf_ns`` and to a per-path
counter instead of storing a span.  A span's self time is its duration
minus its child spans and its leaf time.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from collections import Counter
from time import perf_counter_ns

# (span name, module holding the original, attribute name)
TRACED_FUNCTIONS = (
    ("rgbf.restricted_sequence", "scpkit.rgbf", "restricted_sequence"),
    ("rgbf.restrict", "scpkit.rgbf", "restrict"),
    ("rgbf.truncate", "scpkit.rgbf", "truncate"),
    ("construct.construct_scp", "scpkit.construct", "construct_scp"),
    ("construct.construct_mate", "scpkit.construct", "construct_mate"),
    ("correlate.profile", "scpkit.correlate", "correlation_profile"),
    ("verify.check_scp", "scpkit.verify", "check_scp"),
    ("verify.check_mate", "scpkit.verify", "check_mate"),
    ("verify.sweep", "scpkit.verify", "exhaustive_sweep"),
    ("cli.main", "scpkit.cli", "main"),
)

SCPKIT_MODULES = (
    "scpkit",
    "scpkit.rgbf",
    "scpkit.construct",
    "scpkit.correlate",
    "scpkit.verify",
    "scpkit.cli",
)

COLUMNS = ("name", "start_ns", "end_ns", "parent", "item", "leaf_ns")


def _nonzeros(seq) -> int:
    return len(seq.entries) - seq.entries.count(None)


def _count_restrict(counts: Counter, args, result) -> None:
    counts["rgbf.table_entries"] += len(result.entries)
    counts["rgbf.kept"] += _nonzeros(result)


def _count_profile(counts: Counter, args, result) -> None:
    counts["correlate.support_products"] += _nonzeros(args[0]) * _nonzeros(args[1])
    counts["correlate.shifts"] += len(result)


COUNTERS = {
    "rgbf.restrict": _count_restrict,
    "correlate.profile": _count_profile,
}


class Tracer:
    """Records spans and counters for one process; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.leaf = array("q")
        self.stack: list[int] = []
        self.item_id = -1
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.item_id)
        self.leaf.append(0)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer.counts, args, result)
            finally:
                tracer.close(index)
            return result

        return traced

    def _wrap_is_zero(self, fn):
        stack, leaf, counts = self.stack, self.leaf, self.counts

        def is_zero(value):
            start = perf_counter_ns()
            result = fn(value)
            elapsed = perf_counter_ns() - start
            q = value.q
            counts["correlate.is_zero.calls_fold" if q & (q - 1) == 0 else
                   "correlate.is_zero.calls_cyclotomic"] += 1
            counts["correlate.is_zero.ns"] += elapsed
            if stack:
                leaf[stack[-1]] += elapsed
            return result

        return is_zero

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in SCPKIT_MODULES]
        for name, home, attr in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        cls = importlib.import_module("scpkit.correlate").CyclotomicInt
        self._restore.append((cls, "is_zero", cls.is_zero))
        cls.is_zero = self._wrap_is_zero(cls.is_zero)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def rows(self) -> list[list]:
        cols = (self.names, self.start, self.end, self.parent, self.item, self.leaf)
        return [list(row) for row in zip(*cols)]

    def graft(self, rows: list[list], parent: int) -> None:
        """Append spans recorded by another process under span ``parent``."""
        offset = len(self.names)
        for name, start, end, up, item, leaf in rows:
            self.names.append(name)
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if up < 0 else up + offset)
            self.item.append(item)
            self.leaf.append(leaf)

    def self_times(self) -> list[int]:
        """Each span's duration minus its child spans and its leaf time."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = [d - lf for d, lf in zip(dur, self.leaf)]
        for index, up in enumerate(self.parent):
            if up >= 0:
                own[up] -= dur[index]
        return own

    def write(self, path: str) -> None:
        """Write all spans as gzip JSON lines, a header row first."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(COLUMNS) + "\n")
            for row in self.rows():
                out.write(json.dumps(row, separators=(",", ":")) + "\n")
