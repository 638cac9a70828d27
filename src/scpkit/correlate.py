"""Exact aperiodic correlation of sparse sequences over q-th roots of unity.

Correlation values are integer combinations of roots of unity.  Sums of
roots of unity can vanish nontrivially (1 + xi^2 = 0 over q = 4), so a
floating-point comparison cannot certify a zero.  Values are therefore
kept as integer counts c_e of xi^e, never as floats.

One kernel, :func:`correlation_columns`, computes every shift at once as
q count columns on the support grid.  Restricting x_1..x_t leaves every
non-zero entry at origin + 2^t * k, and in general :func:`support_grid`
finds the coarsest grid origin + stride * k, 0 <= k < n, that holds the
supports of all sequences given to it.  A support pair then differs by a
multiple of the stride, so every shift off the grid is an exact zero by
construction, and the kernel correlates the compressed positions
(j - origin) / stride: ``cols[e][k]`` is the number of support pairs at
shift u = stride * (k - (n - 1)) whose exponent difference is e mod q.
On a grid with origin 0 and stride 1 positions are used as they are.
The kernel picks one of two paths from the compressed sizes alone:

* Kronecker substitution, when the support products are many against the
  packed digits (2n - 1)(2q - 1): the loop costs one interpreted step per
  product, the big-int product of B-byte operands about B^log2(3) machine
  steps (Karatsuba).  Each sequence becomes one big integer in which
  position i is a block of 2q - 1 byte-aligned digits and exponent e a
  digit inside the block; the second sequence is reversed and conjugated.
  One CPython big-int product then holds every count.  A digit is wide
  enough for min(|supp a|, |supp b|), the most pairs one shift can have,
  so no count carries into its neighbour.  Digits are read back through
  ``to_bytes``, never through ``str``, whose conversion is capped at
  ``sys.get_int_max_str_digits()`` digits.
* The support-pair loop otherwise, O(|supp a| * |supp b|), for supports
  that are sparse on their grid.

Zero is decided by one exact rule: the counts are reduced modulo the
q-th cyclotomic polynomial Phi_q with cached rows x^e mod Phi_q, and the
value is zero exactly when the remainder vanishes.  For q a power of two,
Phi_q = x^(q/2) + 1 and the reduction is the fold c_e - c_{e+q/2}.  The
rule runs on whole columns (:func:`nonzero_mask`) and on single values
(:meth:`CyclotomicInt.is_zero`) through the same code.

:func:`cross_correlation` is the defining sum at one shift, the reference
the kernel is checked against.
"""

from __future__ import annotations

import cmath
import csv
import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import repeat
from operator import add, mul, or_, sub
from typing import IO, Mapping, Sequence

from .rgbf import SparseSequence, require_even_alphabet

# Count columns of one correlation; see correlation_columns.
Columns = list[list[int]]
# (origin, stride, n): the positions origin + stride*k, 0 <= k < n.
Grid = tuple[int, int, int]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient of num / den for monic den; remainder must vanish."""
    num = list(num)
    shift = len(den) - 1
    quot = [0] * (len(num) - shift)
    for i in range(len(num) - 1, shift - 1, -1):
        c = num[i]
        if c:
            quot[i - shift] = c
            for k, dc in enumerate(den):
                num[i - shift + k] -= c * dc
    if any(num):
        raise ArithmeticError("cyclotomic division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of all
    proper divisors of n; every division is exact over the integers.
    """
    if n < 1:
        raise ValueError(f"cyclotomic polynomials are indexed from 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(q: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows x^e mod Phi_q for e < q, transposed for work on columns.

    Entry j lists each (e, w) where x^e mod Phi_q has the coefficient
    w != 0 at x^j, e ascending.  The first is (j, 1): x^j is its own
    remainder for j < deg Phi_q.
    """
    phi = cyclotomic_polynomial(q)
    deg = len(phi) - 1
    rows = [[1] + [0] * (deg - 1)]
    for _ in range(q - 1):
        top = rows[-1][-1]
        row = [0] + rows[-1][:-1]
        # x^deg = -(phi_0 + phi_1 x + ... + phi_{deg-1} x^(deg-1))
        rows.append([r - top * c for r, c in zip(row, phi)])
    return tuple(
        tuple((e, rows[e][j]) for e in range(q) if rows[e][j]) for j in range(deg)
    )


def nonzero_mask(cols: Sequence[Sequence[int]], q: int) -> list[int]:
    """Per index, a value that is truthy exactly when sum_e cols[e] xi^e != 0.

    The exact zero rule: each column of the remainder modulo Phi_q is a
    signed sum of count columns, and the value is zero where all of them
    are.  Works on columns of any common length.
    """
    remainder = []
    for (j, _), *terms in _reduction_rows(q):
        acc = cols[j]
        for e, w in terms:
            col = cols[e] if abs(w) == 1 else map(mul, cols[e], repeat(abs(w)))
            acc = list(map(add if w > 0 else sub, acc, col))
        remainder.append(acc)
    # bitwise or of integers is zero exactly when every operand is
    return reduce(lambda x, y: list(map(or_, x, y)), remainder)


@dataclass(frozen=True)
class CyclotomicInt:
    """An integer combination sum_e counts[e] * xi^e of q-th roots of unity.

    The representation is not unique (1 + xi^(q/2) = 0), so ``==`` compares
    coefficient vectors only; value equality is ``(a - b).is_zero()``.
    """

    q: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        require_even_alphabet(self.q)
        counts = tuple(self.counts)
        if len(counts) != self.q:
            raise ValueError(f"need {self.q} coefficients, got {len(counts)}")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def zero(cls, q: int) -> CyclotomicInt:
        return cls(q, (0,) * q)

    @classmethod
    def from_exponent(cls, q: int, e: int) -> CyclotomicInt:
        counts = [0] * q
        counts[e % q] = 1
        return cls(q, tuple(counts))

    @classmethod
    def from_integer(cls, q: int, n: int) -> CyclotomicInt:
        counts = [0] * q
        counts[0] = n
        return cls(q, tuple(counts))

    def _require_same_q(self, other: CyclotomicInt) -> None:
        if self.q != other.q:
            raise ValueError(f"mixed alphabets q={self.q} and q={other.q}")

    def __add__(self, other: CyclotomicInt) -> CyclotomicInt:
        self._require_same_q(other)
        return CyclotomicInt(
            self.q, tuple(a + b for a, b in zip(self.counts, other.counts))
        )

    def __sub__(self, other: CyclotomicInt) -> CyclotomicInt:
        self._require_same_q(other)
        return CyclotomicInt(
            self.q, tuple(a - b for a, b in zip(self.counts, other.counts))
        )

    def __neg__(self) -> CyclotomicInt:
        return CyclotomicInt(self.q, tuple(-a for a in self.counts))

    def conjugate(self) -> CyclotomicInt:
        """Complex conjugate: xi^e maps to xi^(q-e)."""
        return CyclotomicInt(
            self.q, tuple(self.counts[(self.q - e) % self.q] for e in range(self.q))
        )

    def is_zero(self) -> bool:
        """Exact zero test via reduction modulo the q-th cyclotomic polynomial."""
        return not nonzero_mask([(c,) for c in self.counts], self.q)[0]

    def to_complex(self) -> complex:
        """Floating embedding, for display and cross-checks only."""
        return sum(
            (c * cmath.exp(2j * math.pi * e / self.q) for e, c in enumerate(self.counts) if c),
            0j,
        )


# A correlation profile maps every shift u in -(L-1)..L-1 to its exact value.
CorrelationProfile = dict[int, CyclotomicInt]


def _require_compatible(a: SparseSequence, b: SparseSequence) -> None:
    if a.q != b.q:
        raise ValueError(f"sequences use different alphabets q={a.q} and q={b.q}")
    if len(a) != len(b):
        raise ValueError(f"sequences differ in length: {len(a)} vs {len(b)}")


def cross_correlation(a: SparseSequence, b: SparseSequence, u: int) -> CyclotomicInt:
    """Aperiodic cross-correlation of a against b at shift u, exactly.

    The defining sum over the overlap: sum_i a[i+u] * conj(b[i]) for
    u >= 0 and sum_i a[i] * conj(b[i-u]) for u < 0; zero entries
    contribute nothing.
    """
    _require_compatible(a, b)
    L = len(a)
    if abs(u) >= L:
        raise ValueError(f"shift {u} out of range for length {L}")
    q = a.q
    counts = [0] * q
    if u >= 0:
        pairs = zip(a.entries[u:], b.entries)
    else:
        pairs = zip(a.entries, b.entries[-u:])
    for ea, eb in pairs:
        if ea is not None and eb is not None:
            counts[(ea - eb) % q] += 1
    return CyclotomicInt(q, tuple(counts))


def autocorrelation(a: SparseSequence, u: int) -> CyclotomicInt:
    """Aperiodic autocorrelation of a at shift u."""
    return cross_correlation(a, a, u)


def conj_symmetry_check(a: SparseSequence, b: SparseSequence) -> bool:
    """Exact check of rho(a, b; u) == conj(rho(b, a; -u)) at every shift.

    Both sides come from the defining sum, one from each of its branches.
    """
    _require_compatible(a, b)
    L = len(a)
    for u in range(-(L - 1), L):
        lhs = cross_correlation(a, b, u)
        rhs = cross_correlation(b, a, -u).conjugate()
        if not (lhs - rhs).is_zero():
            return False
    return True


def support_grid(*seqs: SparseSequence) -> Grid:
    """The coarsest grid origin + stride*k, 0 <= k < n, holding every support.

    origin is the first support position of any sequence and stride the
    gcd of (position - origin) over all of them.  Supports with no common
    stride, or on one position only, get stride 1.  All-zero sequences
    hold no position: with none non-zero the grid is (0, 1, 1).
    """
    spans = [s.support_span for s in seqs if s.support_span is not None]
    if not spans:
        return 0, 1, 1
    origin = min(first for first, _, _ in spans)
    stride = math.gcd(*(step for _, step, _ in spans), *(f - origin for f, _, _ in spans))
    stride = stride or 1
    return origin, stride, (max(last for _, _, last in spans) - origin) // stride + 1


def _on_grid(s: SparseSequence, grid: Grid) -> Sequence[tuple[int, int]]:
    """The support of s with position j compressed to (j - origin) / stride."""
    origin, stride, n = grid
    span = s.support_span
    if span is not None:
        first, step, last = span
        if (first - origin) % stride or step % stride or first < origin or (
            last > origin + (n - 1) * stride
        ):
            raise ValueError(f"grid {grid} does not hold the support span {span}")
    if origin == 0 and stride == 1:
        return s.support()
    return [((j - origin) // stride, e) for j, e in s.support()]


def correlation_columns(
    a: SparseSequence, b: SparseSequence, grid: Grid | None = None
) -> Columns:
    """Every shift's counts at once, as q columns of length 2n - 1.

    On the grid (origin, stride, n), default :func:`support_grid` of a and
    b, index k stands for shift u = stride * (k - (n - 1)):
    ``cols[e][k]`` counts the support pairs (j in a, i in b) with
    j - i = u and e_a - e_b = e mod q, so rho(a, b; u) is
    sum_e cols[e][k] xi^e.  Every shift off the grid is zero.  Both paths
    give the same columns; the cheaper one is picked from the compressed
    sizes (see _KRONECKER_BREAK_EVEN).
    """
    _require_compatible(a, b)
    grid = support_grid(a, b) if grid is None else grid
    n, q = grid[2], a.q
    support_a = _on_grid(a, grid)
    support_b = support_a if b is a else _on_grid(b, grid)
    products = len(support_a) * len(support_b)
    width = array(_digit_code(support_a, support_b)).itemsize
    packed_bytes = (2 * n - 1) * (2 * q - 1) * width
    if _KRONECKER_BREAK_EVEN * products > packed_bytes**_KARATSUBA_EXPONENT:
        return _kronecker_columns(support_a, support_b, n, q)
    return _loop_columns(support_a, support_b, n, q)


# The loop costs about one interpreted step per support product, the
# big-int product of two B-byte operands about B^log2(3) machine steps
# (Karatsuba).  The Kronecker path is taken when _KRONECKER_BREAK_EVEN
# times the products exceeds packed_bytes^log2(3).  The constant was
# measured on CPython 3.11, x86-64, over L = 64..16,384, q in
# {2, 4, 6, 12} and densities 1%..100%.
_KARATSUBA_EXPONENT = math.log2(3)
_KRONECKER_BREAK_EVEN = 128


def _digit_code(
    support_a: Sequence[tuple[int, int]], support_b: Sequence[tuple[int, int]]
) -> str:
    """Array typecode of the packed digits.

    One shift pairs each entry of the smaller support at most once, so a
    digit never exceeds min(|supp a|, |supp b|) and never carries.
    """
    bits = min(len(support_a), len(support_b)).bit_length()
    return next(c for c in "BHILQ" if array(c).itemsize * 8 >= bits)


def _loop_columns(
    support_a: Sequence[tuple[int, int]],
    support_b: Sequence[tuple[int, int]],
    n: int,
    q: int,
) -> Columns:
    """The support-pair loop over positions 0..n-1, into one flat list."""
    size = 2 * n - 1
    flat = [0] * (q * size)
    # offsets[ea]: flat index of each b entry's pair with an a entry of
    # exponent ea at position 0; position j adds j.
    offsets = [
        [((ea - eb) % q) * size + n - 1 - i for i, eb in support_b] for ea in range(q)
    ]
    for j, ea in support_a:
        for x in offsets[ea]:
            flat[x + j] += 1
    return [flat[k * size : (k + 1) * size] for k in range(q)]


def _kronecker_columns(
    support_a: Sequence[tuple[int, int]],
    support_b: Sequence[tuple[int, int]],
    n: int,
    q: int,
) -> Columns:
    """Kronecker substitution over positions 0..n-1: one big-int product.

    Position j of a with exponent e is digit j(2q-1) + e; position i of b,
    reversed and conjugated, is digit (n-1-i)(2q-1) + q-1-e.  Digit d of
    block s of the product then counts the pairs at shift s - (n-1) with
    exponent difference d - (q-1).
    """
    code = _digit_code(support_a, support_b)
    width = array(code).itemsize
    block = 2 * q - 1
    packed_a = bytearray(n * block * width)
    packed_b = bytearray(n * block * width)
    # little-endian digits: a digit holding 1 has it in its first byte
    for j, e in support_a:
        packed_a[(j * block + e) * width] = 1
    for i, e in support_b:
        packed_b[((n - 1 - i) * block + q - 1 - e) * width] = 1
    product = int.from_bytes(packed_a, "little") * int.from_bytes(packed_b, "little")
    digits = array(code, product.to_bytes((2 * n - 1) * block * width, "little"))
    if sys.byteorder == "big":
        digits.byteswap()
    # difference k >= 0 sits at digit q-1+k, difference k-q at digit k-1
    cols = [digits[q - 1 :: block].tolist()]
    for k in range(1, q):
        cols.append(list(map(add, digits[q - 1 + k :: block], digits[k - 1 :: block])))
    return cols


def correlation_profile(a: SparseSequence, b: SparseSequence) -> CorrelationProfile:
    """The exact value at every shift u in -(L-1)..L-1.

    Built from :func:`correlation_columns`; a support pair (j in a, i in
    b) contributes xi^(e_a - e_b) to shift u = j - i, which reproduces both
    branches of the definition.  Shifts off the support grid are zero.
    """
    grid = support_grid(a, b)
    _, stride, n = grid
    L, q = len(a), a.q
    profile = dict.fromkeys(range(-(L - 1), L), CyclotomicInt.zero(q))
    for k, counts in enumerate(zip(*correlation_columns(a, b, grid))):
        profile[stride * (k - (n - 1))] = CyclotomicInt(q, counts)
    return profile


def write_profile_csv(out: IO[str], profiles: Mapping[str, CorrelationProfile]) -> None:
    """CSV export: one row per (profile, shift) with the float embedding.

    Columns: profile, u, re, im, magnitude, is_exact_zero.  The exact-zero
    flag comes from the cyclotomic test, never from the float columns.
    """
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["profile", "u", "re", "im", "magnitude", "is_exact_zero"])
    for name, profile in profiles.items():
        shifts = sorted(profile)
        values = [profile[u] for u in shifts]
        nonzero = nonzero_mask(list(zip(*(v.counts for v in values))), values[0].q)
        for u, value, flag in zip(shifts, values, nonzero):
            z = value.to_complex()
            writer.writerow(
                [
                    name,
                    u,
                    f"{z.real:.12g}",
                    f"{z.imag:.12g}",
                    f"{abs(z):.12g}",
                    int(not flag),
                ]
            )
