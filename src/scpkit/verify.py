"""Definition-level checkers for pairs and mates, plus sweeps and a catalog.

Every claim a constructed pair makes is re-checked here from the raw
definitions with exact arithmetic; nothing is trusted from the construct
module.  A pair of length L with N zeros per sequence must satisfy

  peak:  rho(C_k; 0) = L - N for both sequences,
  zone:  rho(C_k; u) = 0 for 0 < |u| < Z and rho(C_0, C_1; u) = 0 for |u| < Z,
  sum:   rho(C_0; u) + rho(C_1; u) = 0 for u != 0 and 2(L - N) at u = 0.

Two pairs are mates when their cross-correlation sums cancel at every
shift and all four pairwise cross-correlations vanish inside the zone.

Autocorrelations satisfy rho(C; -u) = conj(rho(C; u)), so zone and sum
conditions scan u > 0 only; cross-correlations have no such symmetry and
both signs are checked explicitly.

A naive floating-point evaluation of the defining sums is included as an
independent reference; the exact engine is the authority, the float path
guards the reduction code (and vice versa).
"""

from __future__ import annotations

import cmath
import logging
import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import compress, permutations, product
from operator import add, or_
from typing import Iterable, Sequence

from .construct import (
    ScpPair,
    ScpParams,
    construct_mate,
    construct_scp,
    params_from_restricted_set,
)
from .correlate import Columns, Grid, correlation_columns, nonzero_mask, support_grid
from .rgbf import SparseSequence

log = logging.getLogger(__name__)

# Fixed default seed for the randomized linear parts drawn during sweeps.
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class ConditionCheck:
    """One checked condition: which shifts were scanned and what happened."""

    condition: str
    shifts: str
    passed: bool
    first_failure: int | None = None

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "shifts": self.shifts,
            "passed": self.passed,
            "first_failure": self.first_failure,
        }


@dataclass(frozen=True)
class VerificationReport:
    claims: tuple[ConditionCheck, ...]
    measured_zcz: int
    sparsity_measured: Fraction

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def first_failing(self) -> ConditionCheck | None:
        for c in self.claims:
            if not c.passed:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "measured_zcz": self.measured_zcz,
            "sparsity": f"{self.sparsity_measured.numerator}/{self.sparsity_measured.denominator}",
            "claims": [c.to_dict() for c in self.claims],
        }


def _first_failure(
    flags: Sequence[Sequence[int]], start: int, stop: int, stride: int
) -> int | None:
    """Smallest u in start..stop-1 at which any flag list is non-zero.

    The one zone scan behind every check: each flag list is indexed by
    u / stride (see :func:`_signed_flags`), and a truthy entry marks a
    non-zero value.  Shifts off the grid are zero and never fail.
    """
    lo, hi = -(-start // stride), -(-stop // stride)
    hits = reduce(partial(map, or_), (f[lo:hi] for f in flags))
    k = next(compress(range(lo, hi), hits), None)
    return None if k is None else k * stride


def _signed_flags(cols: Columns, q: int) -> tuple[list[int], list[int]]:
    """Non-zero flags of a full profile at u and at -u, each indexed by u >= 0.

    The index is u / stride on the grid the columns were computed on.
    """
    flags = nonzero_mask(cols, q)
    mid = len(flags) // 2
    return flags[mid:], flags[mid::-1]


def _add(p: Columns, r: Columns) -> Columns:
    return [list(map(add, x, y)) for x, y in zip(p, r)]


def _equals_integer(cols: Columns, n: int, q: int) -> bool:
    """Whether the value at index 0 of the columns equals the integer n."""
    counts = [[col[0]] for col in cols]
    counts[0][0] -= n
    return not nonzero_mask(counts, q)[0]


def _auto_columns(c: SparseSequence, grid: Grid) -> Columns:
    """Autocorrelation columns for u >= 0; rho(C; -u) = conj(rho(C; u))."""
    n = grid[2]
    return [col[n - 1 :] for col in correlation_columns(c, c, grid)]


def _require_pair(pair: ScpPair) -> None:
    if pair.c0.q != pair.c1.q or len(pair.c0) != len(pair.c1):
        raise ValueError("pair sequences must share length and alphabet")


def _pair_profiles(
    pair: ScpPair,
) -> tuple[Columns, Columns, tuple[list[int], ...], bool, int]:
    """Both autocorrelations (u >= 0), the zone flags, the peak check, the stride.

    Everything is on the one support grid of C_0 and C_1, so the columns
    add index by index.  The flags are, by u / stride: rho(C_0; u),
    rho(C_1; u), rho(C_0, C_1; u) and rho(C_0, C_1; -u).
    """
    c0, c1 = pair.c0, pair.c1
    q = c0.q
    peak = len(c0) - c0.zero_count
    grid = support_grid(c0, c1)
    a0, a1 = _auto_columns(c0, grid), _auto_columns(c1, grid)
    flags = (
        nonzero_mask(a0, q),
        nonzero_mask(a1, q),
        *_signed_flags(correlation_columns(c0, c1, grid), q),
    )
    peak_ok = _equals_integer(a0, peak, q) and _equals_integer(a1, peak, q)
    return a0, a1, flags, peak_ok, grid[1]


def _zone_width(flags: tuple[list[int], ...], peak_ok: bool, L: int, stride: int) -> int:
    if not peak_ok or flags[2][0]:
        return 1
    fail = _first_failure(flags, 1, L, stride)
    return L if fail is None else fail


def check_scp(pair: ScpPair, claimed_zcz: int | None = None) -> VerificationReport:
    """Check the pair conditions against a claimed zone width.

    claimed_zcz defaults to the parameter-derived zone.  Failures record
    the smallest offending |u|.
    """
    c0, c1 = pair.c0, pair.c1
    _require_pair(pair)
    L = len(c0)
    zcz = pair.params.zcz if claimed_zcz is None else int(claimed_zcz)
    if not 1 <= zcz <= L:
        raise ValueError(f"claimed zone width {zcz} outside 1..{L}")
    a0, a1, flags, peak_ok, stride = _pair_profiles(pair)
    q = c0.q
    N = c0.zero_count
    peak = L - N

    claims = []
    form_ok = c0.has_nonzero_ends and c1.has_nonzero_ends and c1.zero_count == N
    claims.append(ConditionCheck("sequence-form", "-", form_ok))

    claims.append(
        ConditionCheck("autocorrelation-peak", "u=0", peak_ok, None if peak_ok else 0)
    )

    fail = _first_failure(flags[:2], 1, zcz, stride)
    claims.append(
        ConditionCheck("autocorrelation-zone", f"0<|u|<{zcz}", fail is None, fail)
    )

    fail = _first_failure(flags[2:], 0, zcz, stride)
    claims.append(
        ConditionCheck("crosscorrelation-zone", f"|u|<{zcz}", fail is None, fail)
    )

    sums = _add(a0, a1)
    if not _equals_integer(sums, 2 * peak, q):
        fail = 0
    else:
        fail = _first_failure((nonzero_mask(sums, q),), 1, L, stride)
    claims.append(ConditionCheck("complementary-sum", "all |u|<L", fail is None, fail))

    measured = _zone_width(flags, peak_ok, L, stride)
    return VerificationReport(tuple(claims), measured, c0.sparsity)


def check_mate(
    pair: ScpPair, mate: ScpPair, claimed_zcz: int | None = None
) -> VerificationReport:
    """Check that two pairs are mates of each other.

    The cross-correlation sums rho(C_0,S_0;u) + rho(C_1,S_1;u) must vanish
    at every shift, and all four pairwise cross-correlations inside the
    claimed zone.  A pair checked against itself fails at u = 0, where the
    sum is 2(L - N).
    """
    c0, c1 = pair.c0, pair.c1
    s0, s1 = mate.c0, mate.c1
    lengths = {len(c0), len(c1), len(s0), len(s1)}
    alphabets = {c0.q, c1.q, s0.q, s1.q}
    if len(lengths) != 1 or len(alphabets) != 1:
        raise ValueError("mate check needs four sequences of one length and alphabet")
    L = len(c0)
    zcz = pair.params.zcz if claimed_zcz is None else int(claimed_zcz)
    if not 1 <= zcz <= L:
        raise ValueError(f"claimed zone width {zcz} outside 1..{L}")
    q = c0.q
    # one grid for all four sequences, so p00 and p11 add index by index
    grid = support_grid(c0, c1, s0, s1)
    stride = grid[1]

    p00 = correlation_columns(c0, s0, grid)
    p11 = correlation_columns(c1, s1, grid)
    fail = _first_failure(_signed_flags(_add(p00, p11), q), 0, L, stride)
    claims = [ConditionCheck("cross-sum", "all |u|<L", fail is None, fail)]

    flags = (
        *_signed_flags(p00, q),
        *_signed_flags(p11, q),
        *_signed_flags(correlation_columns(c0, s1, grid), q),
        *_signed_flags(correlation_columns(c1, s0, grid), q),
    )
    # The measured zone ends at the first failure; the claimed zone fails
    # exactly when that failure lies inside it.
    first = _first_failure(flags, 0, L, stride)
    fail = first if first is not None and first < zcz else None
    claims.append(
        ConditionCheck("pairwise-cross-zone", f"|u|<{zcz}", fail is None, fail)
    )
    measured = L if first is None else max(first, 1)
    return VerificationReport(tuple(claims), measured, c0.sparsity)


def measure_zcz(pair: ScpPair) -> int:
    """Widest zone the pair actually achieves (at least 1, at most L).

    The constructions guarantee a zone of the derived width; the true zone
    may be wider, and this reports it.
    """
    _require_pair(pair)
    _, _, flags, peak_ok, stride = _pair_profiles(pair)
    return _zone_width(flags, peak_ok, len(pair.c0), stride)


def float_cross_correlation(a: SparseSequence, b: SparseSequence, u: int) -> complex:
    """Naive floating evaluation of the defining sums; reference only."""
    if a.q != b.q or len(a) != len(b):
        raise ValueError("sequences must share length and alphabet")
    L = len(a)
    if abs(u) >= L:
        raise ValueError(f"shift {u} out of range for length {L}")
    roots = [cmath.exp(2j * math.pi * e / a.q) for e in range(a.q)]

    def val(entry: int | None) -> complex:
        return 0j if entry is None else roots[entry]

    total = 0j
    if u >= 0:
        for i in range(L - u):
            total += val(a.entries[i + u]) * val(b.entries[i]).conjugate()
    else:
        for i in range(L + u):
            total += val(a.entries[i]) * val(b.entries[i - u]).conjugate()
    return total


# ---------------------------------------------------------------------------
# Exhaustive parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    """One parameter combination and everything checked for it."""

    q: int
    m: int
    t: int
    perm: tuple[int, ...]
    d: tuple[int, ...]
    g_label: str  # "zero" or "random"
    g: tuple[int, ...]
    scp_passed: bool
    measured_zcz: int
    mate_checked: bool
    mate_scp_passed: bool | None = None
    mate_passed: bool | None = None

    @property
    def all_passed(self) -> bool:
        if not self.scp_passed:
            return False
        if self.mate_checked:
            return bool(self.mate_scp_passed) and bool(self.mate_passed)
        return True


@dataclass(frozen=True)
class SweepSummary:
    cells: tuple[SweepCell, ...]

    @property
    def pairs_total(self) -> int:
        return len(self.cells)

    @property
    def pairs_passed(self) -> int:
        return sum(1 for c in self.cells if c.scp_passed)

    @property
    def mates_total(self) -> int:
        return sum(1 for c in self.cells if c.mate_checked)

    @property
    def mates_passed(self) -> int:
        return sum(
            1 for c in self.cells if c.mate_checked and c.mate_passed and c.mate_scp_passed
        )

    @property
    def all_passed(self) -> bool:
        return all(c.all_passed for c in self.cells)

    def failures(self) -> list[SweepCell]:
        return [c for c in self.cells if not c.all_passed]

    def csv_rows(self) -> Iterable[list]:
        yield [
            "q",
            "m",
            "t",
            "perm",
            "d",
            "g_mode",
            "g",
            "scp_pass",
            "measured_zcz",
            "mate_checked",
            "mate_scp_pass",
            "mate_pass",
        ]
        for c in self.cells:
            yield [
                c.q,
                c.m,
                c.t,
                " ".join(map(str, c.perm)),
                " ".join(map(str, c.d)) if c.d else "-",
                c.g_label,
                " ".join(map(str, c.g)),
                int(c.scp_passed),
                c.measured_zcz,
                int(c.mate_checked),
                "" if c.mate_scp_passed is None else int(c.mate_scp_passed),
                "" if c.mate_passed is None else int(c.mate_passed),
            ]


def valid_permutations(m: int, t: int) -> Iterable[tuple[int, ...]]:
    """All permutations of 1..m whose last position dominates the first t."""
    for perm in permutations(range(1, m + 1)):
        last = perm[m - 1]
        if all(last > perm[a] for a in range(t)):
            yield perm


def _cell_seed(base_seed: int, q: int, m: int, t: int, perm: tuple, d: tuple) -> int:
    # Derived from the cell identity, not the iteration schedule, so any
    # execution order (or worker split) draws the same linear part.
    key = f"{base_seed}|q={q}|m={m}|t={t}|perm={perm}|d={d}"
    return zlib.crc32(key.encode("ascii"))


def exhaustive_sweep(
    q_values: Sequence[int] = (2, 4),
    m_max: int = 5,
    seed: int = DEFAULT_SEED,
) -> SweepSummary:
    """Construct and fully check every valid parameter combination.

    Covers all (q, m <= m_max, t, perm, d), with the linear part g swept
    over all-zero plus one draw seeded from the cell identity.  Wherever
    the mate construction applies, the mate is checked both as a pair in
    its own right and as a mate.  Failures are recorded, not raised.
    """
    cells: list[SweepCell] = []
    for q in q_values:
        for m in range(1, m_max + 1):
            for t in range(m):
                for perm in valid_permutations(m, t):
                    for d in product((0, 1), repeat=t):
                        rng = random.Random(_cell_seed(seed, q, m, t, perm, d))
                        g_random = tuple(rng.randrange(q) for _ in range(m + 1))
                        g_zero = (0,) * (m + 1)
                        for g_label, g in (("zero", g_zero), ("random", g_random)):
                            params = ScpParams(q=q, m=m, t=t, perm=perm, d=d, g=g)
                            cells.append(_check_cell(params, g_label))
        log.info("sweep finished q=%d: %d cells so far", q, len(cells))
    return SweepSummary(tuple(cells))


def _check_cell(params: ScpParams, g_label: str) -> SweepCell:
    pair = construct_scp(params)
    report = check_scp(pair)
    scp_passed = report.passed and len(pair.c0) == params.length
    mate_checked = params.supports_mate
    mate_scp_passed = mate_passed = None
    if mate_checked:
        mate = construct_mate(params)
        mate_scp_passed = check_scp(mate).passed
        mate_passed = check_mate(pair, mate).passed
    return SweepCell(
        q=params.q,
        m=params.m,
        t=params.t,
        perm=params.perm,
        d=params.d,
        g_label=g_label,
        g=params.g,
        scp_passed=scp_passed,
        measured_zcz=report.measured_zcz,
        mate_checked=mate_checked,
        mate_scp_passed=mate_scp_passed,
        mate_passed=mate_passed,
    )


# ---------------------------------------------------------------------------
# Length catalog
# ---------------------------------------------------------------------------

# Which variables to restrict to hit every achievable length from 15 to 35
# (16, 20, 26 and 32 are not reachable this way; 16 and 32 are the ordinary
# full-length complementary pairs).
CATALOG_RECIPES: tuple[tuple[int, tuple[int, ...]], ...] = (
    (4, (1,)),
    (5, (1, 2, 3, 4)),
    (5, (2, 3, 4)),
    (5, (1, 3, 4)),
    (5, (1, 2, 4)),
    (5, (2, 4)),
    (5, (1, 4)),
    (5, (4,)),
    (5, (1, 2, 3)),
    (5, (1, 3)),
    (5, (3,)),
    (5, (1, 2)),
    (5, (2,)),
    (5, (1,)),
    (6, (1, 2, 3, 4, 5)),
    (6, (2, 3, 4, 5)),
    (6, (1, 3, 4, 5)),
)


@dataclass(frozen=True)
class CatalogRow:
    length: int
    m: int
    restricted: tuple[int, ...]
    zcz: int
    zero_count: int
    verified: bool

    @property
    def sparsity(self) -> Fraction:
        return Fraction(self.zero_count, self.length)

    @property
    def sparsity_label(self) -> str:
        return f"{self.zero_count}/{self.length}"


def length_catalog(q: int = 4) -> list[CatalogRow]:
    """Construct and verify one pair per achievable length 15..35.

    Each row is built from its restricted-variable recipe with the
    canonical permutation, then re-checked from the definitions; the
    verified flag reports that check, it is not assumed.
    """
    rows = []
    for m, restricted in CATALOG_RECIPES:
        params = params_from_restricted_set(q=q, m=m, restricted=restricted)
        pair = construct_scp(params)
        report = check_scp(pair)
        rows.append(
            CatalogRow(
                length=params.length,
                m=m,
                restricted=restricted,
                zcz=params.zcz,
                zero_count=params.zero_count,
                verified=report.passed and len(pair.c0) == params.length,
            )
        )
    return rows


def catalog_csv_rows(rows: Sequence[CatalogRow]) -> Iterable[list]:
    yield ["length", "m", "restricted", "zcz", "sparsity", "verified"]
    for row in rows:
        yield [
            row.length,
            row.m,
            " ".join(map(str, row.restricted)),
            row.zcz,
            row.sparsity_label,
            int(row.verified),
        ]
