"""Generalized Boolean functions, variable restriction, and sparse sequences.

A q-ary generalized Boolean function maps m binary variables x_1, ..., x_m
into Z_q.  Its value table is indexed by i = sum_l i_l * 2^(l-1), i.e.
variable x_l reads bit l-1 of the table index (little-endian).  Every
module in this package shares that convention.

Fixing a subset of the variables to binary constants zeroes each table
entry whose index disagrees with the assignment; the surviving entries are
q-th roots of unity.  Sequences store integer exponents rather than
complex floats so that every correlation downstream can be decided
exactly.  Trimming the leading and trailing zero runs of a restricted
table yields the sparse sequences the construct module builds pairs from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

Entry = Optional[int]  # None is a zero entry; an int e stands for exp(2*pi*j*e/q)


def require_even_alphabet(q: int) -> None:
    """Reject alphabet sizes the pair constructions cannot use.

    The constructions phase-shift by q/2, so q must be even and at least 2.
    """
    if q < 2 or q % 2:
        raise ValueError(f"alphabet size must be even and >= 2, got q={q}")


@dataclass(frozen=True)
class GeneralizedBooleanFunction:
    """A function from m binary variables into Z_q, stored as monomials.

    ``terms`` holds (coefficient, variable-index tuple) pairs; the empty
    tuple is the constant term.  Terms are kept as given -- duplicate
    monomials are allowed and simply sum at evaluation -- but coefficients
    are reduced modulo q and repeated indices inside one monomial collapse
    (binary variables are idempotent).

    q must be even: the pair constructions phase-shift by q/2, so an odd
    alphabet is rejected here rather than failing later.
    """

    q: int
    m: int
    terms: tuple[tuple[int, tuple[int, ...]], ...] = ()
    # (coefficient, bit mask of the monomial's variables), one per term
    _masks: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_even_alphabet(self.q)
        if self.m < 1:
            raise ValueError(f"need at least one variable, got m={self.m}")
        norm = []
        for coeff, variables in self.terms:
            indices = tuple(sorted(set(variables)))
            for v in indices:
                if not 1 <= v <= self.m:
                    raise ValueError(f"variable index {v} outside 1..{self.m}")
            norm.append((coeff % self.q, indices))
        object.__setattr__(self, "terms", tuple(norm))
        object.__setattr__(
            self,
            "_masks",
            tuple((c, sum(1 << (v - 1) for v in indices)) for c, indices in norm),
        )

    def evaluate(self, assignment: Sequence[int]) -> int:
        """Value at a binary assignment (assignment[l-1] is x_l)."""
        if len(assignment) != self.m:
            raise ValueError(f"assignment needs {self.m} bits, got {len(assignment)}")
        return self.evaluate_index(sum(1 << l for l, bit in enumerate(assignment) if bit))

    def evaluate_index(self, i: int) -> int:
        """Value at table index i; bit l-1 of i assigns x_l.

        A monomial is 1 exactly when every bit of its mask is set in i.
        """
        return sum(c for c, mask in self._masks if i & mask == mask) % self.q

    def values(self) -> list[int]:
        """The full value table (f_0, ..., f_{2^m - 1})."""
        return [self.evaluate_index(i) for i in range(1 << self.m)]

    def full_sequence(self) -> SparseSequence:
        """The associated root-of-unity sequence; no entry is zero."""
        return SparseSequence(self.q, tuple(self.values()))

    def plus_term(self, coeff: int, variables: Iterable[int] = ()) -> GeneralizedBooleanFunction:
        """A copy of this function with one extra monomial appended."""
        return GeneralizedBooleanFunction(
            self.q, self.m, self.terms + ((coeff, tuple(variables)),)
        )


@dataclass(frozen=True)
class Restriction:
    """Fixes variable x_{indices[a]} to the binary constant values[a].

    The empty restriction (t = 0) is valid and restricts nothing.  The
    pair constructions additionally require t <= m-1, but that is enforced
    where the construction parameters are built, not here: restricting all
    m variables is still a meaningful table operation.
    """

    indices: tuple[int, ...] = ()
    values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        indices = tuple(self.indices)
        values = tuple(self.values)
        if len(indices) != len(values):
            raise ValueError(
                f"{len(indices)} restricted indices but {len(values)} values"
            )
        if len(set(indices)) != len(indices):
            raise ValueError(f"restricted indices must be distinct, got {indices}")
        if any(v < 1 for v in indices):
            raise ValueError(f"variable indices start at 1, got {indices}")
        if any(bit not in (0, 1) for bit in values):
            raise ValueError(f"restriction values must be bits, got {values}")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    @property
    def t(self) -> int:
        return len(self.indices)

    def matches(self, i: int) -> bool:
        """True when table index i agrees with the fixed values."""
        return all(
            (i >> (v - 1)) & 1 == bit for v, bit in zip(self.indices, self.values)
        )


@dataclass(frozen=True)
class SparseSequence:
    """A vector whose entries are zeros or q-th roots of unity.

    Entries hold exponents (None for a zero).  Truncated sequences start
    and end with a non-zero entry; use :func:`truncate` to establish that
    invariant, and ``has_nonzero_ends`` to test it.  The support and its
    span are computed once, on first use.
    """

    q: int
    entries: tuple[Entry, ...]

    def __post_init__(self) -> None:
        require_even_alphabet(self.q)
        entries = tuple(
            None if e is None else e % self.q for e in self.entries
        )
        if not entries:
            raise ValueError("sequences must have at least one entry")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def support(self) -> tuple[tuple[int, int], ...]:
        """(index, exponent) pairs of the non-zero entries."""
        return self._support

    @cached_property
    def _support(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, e) for i, e in enumerate(self.entries) if e is not None)

    @cached_property
    def support_span(self) -> tuple[int, int, int] | None:
        """(first, stride, last) of the support positions; None if all zero.

        The stride is the gcd of (position - first) over the support: every
        non-zero entry sits at first + stride*k.  It is 0 for a single
        non-zero entry.
        """
        if not self._support:
            return None
        first, last = self._support[0][0], self._support[-1][0]
        return first, math.gcd(*(i - first for i, _ in self._support)), last

    @property
    def nonzero_count(self) -> int:
        return len(self._support)

    @property
    def zero_count(self) -> int:
        return len(self.entries) - self.nonzero_count

    @property
    def sparsity(self) -> Fraction:
        """Fraction of zero entries."""
        return Fraction(self.zero_count, len(self.entries))

    @property
    def has_nonzero_ends(self) -> bool:
        return self.entries[0] is not None and self.entries[-1] is not None

    def to_dict(self, m: int | None = None, t: int | None = None) -> dict:
        """JSON-ready form: null for zeros, integer exponents otherwise."""
        out: dict = {"q": self.q, "L": len(self.entries)}
        if m is not None:
            out["m"] = m
        if t is not None:
            out["t"] = t
        out["entries"] = list(self.entries)
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> SparseSequence:
        entries = tuple(obj["entries"])
        if "L" in obj and obj["L"] != len(entries):
            raise ValueError(
                f"header says L={obj['L']} but {len(entries)} entries given"
            )
        return cls(obj["q"], entries)


def restrict(f: GeneralizedBooleanFunction, r: Restriction) -> SparseSequence:
    """Full-length table of f with non-conforming entries zeroed.

    The result has exactly 2^(m-t) non-zero entries: one per assignment of
    the unrestricted variables.
    """
    _check_against(r, f.m)
    entries = tuple(
        f.evaluate_index(i) if r.matches(i) else None for i in range(1 << f.m)
    )
    return SparseSequence(f.q, entries)


def truncation_bounds(r: Restriction, m: int) -> tuple[int, int]:
    """First and last non-zero table index of any restriction by ``r``.

    These depend only on the restriction: the low end is the index whose
    restricted bits carry the fixed values and whose free bits are all 0,
    the high end the one with all free bits 1.
    """
    _check_against(r, m)
    k0 = sum(bit << (v - 1) for v, bit in zip(r.indices, r.values))
    free = set(range(1, m + 1)) - set(r.indices)
    k1 = k0 + sum(1 << (v - 1) for v in free)
    return k0, k1


def truncate(s: SparseSequence, k0: int, k1: int) -> SparseSequence:
    """Keep entries k0..k1 inclusive; the cut ends must be non-zero."""
    if not 0 <= k0 <= k1 < len(s):
        raise ValueError(f"bounds ({k0}, {k1}) out of range for length {len(s)}")
    if s.entries[k0] is None or s.entries[k1] is None:
        raise ValueError(
            f"inconsistent truncation bounds ({k0}, {k1}): boundary entry is zero"
        )
    return SparseSequence(s.q, s.entries[k0 : k1 + 1])


def restricted_sequence(f: GeneralizedBooleanFunction, r: Restriction) -> SparseSequence:
    """Restrict f by r and trim the leading and trailing zero runs.

    Equal to ``truncate(restrict(f, r), *truncation_bounds(r, f.m))``, but
    only the 2^(m-t) support entries are evaluated: table index k0 + s for
    every subset sum s of the free variables' bit weights.
    """
    k0, k1 = truncation_bounds(r, f.m)
    offsets = [0]
    for v in range(1, f.m + 1):
        if v not in r.indices:
            offsets += [s + (1 << (v - 1)) for s in offsets]
    entries: list[Entry] = [None] * (k1 - k0 + 1)
    for s in offsets:
        entries[s] = f.evaluate_index(k0 + s)
    return SparseSequence(f.q, tuple(entries))


def _check_against(r: Restriction, m: int) -> None:
    bad = [v for v in r.indices if v > m]
    if bad:
        raise ValueError(f"restricted indices {bad} exceed variable count m={m}")
