"""Direct construction of sparse complementary pairs and their mates.

A pair is generated from one q-ary generalized Boolean function: a
quadratic chain that walks the unrestricted variables in permutation
order, plus free linear and constant offsets.  Restricting the first t
permuted variables to fixed bits and trimming the zero margins yields two
sequences (the second differs by a q/2 phase on one variable) whose
autocorrelation sums cancel at every non-zero shift and whose individual
auto- and cross-correlations vanish inside a zone.

The achievable lengths L and zone widths Z trade off against each other:
L + Z = 2^m + 1, so choosing which variables to restrict dials in any
length between 2^(m-1) + 1 and 2^m.  With nothing restricted (t = 0) the
pair is an ordinary length-2^m Golay complementary pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .rgbf import (
    GeneralizedBooleanFunction,
    Restriction,
    SparseSequence,
    require_even_alphabet,
    restricted_sequence,
)


@dataclass(frozen=True)
class ScpParams:
    """Parameters selecting one constructed pair.

    perm is a permutation of 1..m (1-based positions: perm[a-1] is the
    variable placed at position a).  The first t positions name the
    restricted variables, fixed to the bits in d.  g = (g_0, g_1, ..., g_m)
    is the free linear part; g may be left empty for all-zero.

    Validity requires the variable at the last position to come after
    every restricted one: perm(m) > perm(alpha) for alpha <= t.
    """

    q: int
    m: int
    t: int
    perm: tuple[int, ...]
    d: tuple[int, ...] = ()
    g: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        require_even_alphabet(self.q)
        if self.m < 1:
            raise ValueError(f"need at least one variable, got m={self.m}")
        if not 0 <= self.t <= self.m - 1:
            raise ValueError(f"need 0 <= t <= m-1, got t={self.t} with m={self.m}")
        perm = tuple(self.perm)
        if sorted(perm) != list(range(1, self.m + 1)):
            raise ValueError(f"perm must be a permutation of 1..{self.m}, got {perm}")
        last = perm[self.m - 1]
        for alpha in range(1, self.t + 1):
            if last <= perm[alpha - 1]:
                raise ValueError(
                    f"pair constraint violated: perm({self.m})={last} must be "
                    f"greater than perm({alpha})={perm[alpha - 1]}"
                )
        d = tuple(self.d)
        if len(d) != self.t:
            raise ValueError(f"d needs t={self.t} bits, got {len(d)}")
        if any(bit not in (0, 1) for bit in d):
            raise ValueError(f"d must be binary, got {d}")
        g = tuple(self.g) if self.g else (0,) * (self.m + 1)
        if len(g) != self.m + 1:
            raise ValueError(
                f"g needs m+1={self.m + 1} entries (g_0..g_m), got {len(g)}"
            )
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "g", tuple(x % self.q for x in g))

    @property
    def length(self) -> int:
        """Sequence length after trimming: one plus the free-position weight."""
        return sum(1 << (self.perm[a] - 1) for a in range(self.t, self.m)) + 1

    @property
    def zcz(self) -> int:
        """Guaranteed zero-correlation-zone width."""
        return sum(1 << (self.perm[a] - 1) for a in range(self.t)) + 1

    @property
    def nonzero_count(self) -> int:
        return 1 << (self.m - self.t)

    @property
    def zero_count(self) -> int:
        return self.length - self.nonzero_count

    @property
    def sparsity(self) -> Fraction:
        return Fraction(self.zero_count, self.length)

    @property
    def restricted(self) -> tuple[int, ...]:
        return self.perm[: self.t]

    def restriction(self) -> Restriction:
        return Restriction(self.restricted, self.d)

    @property
    def supports_mate(self) -> bool:
        if self.t > self.m - 2:
            return False
        second_last = self.perm[self.m - 2]
        return all(second_last > self.perm[a] for a in range(self.t))

    def require_mate(self) -> None:
        """Raise unless the mate construction's extra constraints hold."""
        if self.t > self.m - 2:
            raise ValueError(
                f"mate construction requires t <= m-2, got t={self.t} with m={self.m}"
            )
        second_last = self.perm[self.m - 2]
        for alpha in range(1, self.t + 1):
            if second_last <= self.perm[alpha - 1]:
                raise ValueError(
                    f"mate constraint violated: perm({self.m - 1})={second_last} "
                    f"must be greater than perm({alpha})={self.perm[alpha - 1]}"
                )


@dataclass(frozen=True)
class ScpPair:
    """Two same-length sparse sequences plus the parameters that built them.

    Construction does not verify the correlation claims; the verify module
    does, so deliberately corrupted pairs can exercise the checkers.
    """

    c0: SparseSequence
    c1: SparseSequence
    params: ScpParams

    @property
    def length(self) -> int:
        return len(self.c0)

    @property
    def sparsity_label(self) -> str:
        """Zero count over length, unreduced (24/30 stays 24/30)."""
        return f"{self.c0.zero_count}/{len(self.c0)}"

    def to_dict(self) -> dict:
        p = self.params
        return {
            "params": params_to_dict(p),
            "length": self.length,
            "zcz": p.zcz,
            "sparsity": self.sparsity_label,
            "c0": self.c0.to_dict(m=p.m, t=p.t),
            "c1": self.c1.to_dict(m=p.m, t=p.t),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> ScpPair:
        params = params_from_dict(obj["params"])
        c0 = SparseSequence.from_dict(obj["c0"])
        c1 = SparseSequence.from_dict(obj["c1"])
        return cls(c0, c1, params)


def pair_function(p: ScpParams) -> GeneralizedBooleanFunction:
    """The unrestricted generalized Boolean function behind a pair.

    Quadratic chain x_{perm(l)} x_{perm(l+1)} over the free positions
    l = t+1 .. m-1, all scaled by q/2.  The fixed bits d enter as a
    constant (q/2) * sum d_l d_{l+1} and, through the seam between the
    restricted and free blocks, as the linear term (q/2) d_t x_{perm(t+1)}.
    With t = 0 those sums are empty.  g adds the free linear part and
    constant.
    """
    h = p.q // 2
    terms: list[tuple[int, tuple[int, ...]]] = []
    for l in range(p.t + 1, p.m):
        terms.append((h, (p.perm[l - 1], p.perm[l])))
    if p.t >= 1 and p.d[p.t - 1]:
        terms.append((h, (p.perm[p.t],)))
    for l in range(1, p.m + 1):
        if p.g[l]:
            terms.append((p.g[l], (l,)))
    const = (h * sum(p.d[l - 1] * p.d[l] for l in range(1, p.t)) + p.g[0]) % p.q
    if const:
        terms.append((const, ()))
    return GeneralizedBooleanFunction(p.q, p.m, tuple(terms))


def construct_scp(p: ScpParams) -> ScpPair:
    """Build the sparse complementary pair selected by ``p``.

    The second sequence comes from the same function with an extra q/2
    phase on the first free variable, so the two share their zero support
    and differ by a sign exactly where that variable is 1.
    """
    f = pair_function(p)
    r = p.restriction()
    h = p.q // 2
    c0 = restricted_sequence(f, r)
    c1 = restricted_sequence(f.plus_term(h, (p.perm[p.t],)), r)
    return ScpPair(c0, c1, p)


def construct_mate(p: ScpParams) -> ScpPair:
    """Build the orthogonal mate of ``construct_scp(p)``.

    Adds a q/2 phase on the variable at the last permuted position (to
    both sequences); requires that position's variable to dominate the
    restricted ones one step earlier as well: perm(m-1) > perm(alpha) for
    alpha <= t, and t <= m-2.  The mate is itself a valid pair with the
    same length, zone, and sparsity.
    """
    p.require_mate()
    f = pair_function(p)
    r = p.restriction()
    h = p.q // 2
    last = p.perm[p.m - 1]
    s0 = restricted_sequence(f.plus_term(h, (last,)), r)
    s1 = restricted_sequence(f.plus_term(h, (p.perm[p.t],)).plus_term(h, (last,)), r)
    return ScpPair(s0, s1, p)


def params_from_restricted_set(
    q: int,
    m: int,
    restricted: Iterable[int],
    d: Sequence[int] | None = None,
    g: Sequence[int] | None = None,
) -> ScpParams:
    """Canonical parameters for a plain choice of restricted variables.

    perm lists the restricted indices ascending, then the unrestricted
    ones ascending.  The pair constraint then holds exactly when x_m stays
    unrestricted, since the last position holds the largest free index.
    Length, zone, and sparsity depend only on the index sets, not on the
    internal order, so this canonical order loses no (L, Z, S) reach.
    """
    rset = sorted(set(restricted))
    for v in rset:
        if not 1 <= v <= m:
            raise ValueError(f"restricted index {v} outside 1..{m}")
    if len(rset) >= m:
        raise ValueError("at least one variable must stay unrestricted")
    if m in rset:
        raise ValueError(
            f"restricting x_{m} is unsatisfiable: the largest variable index "
            f"must stay unrestricted"
        )
    free = [v for v in range(1, m + 1) if v not in rset]
    t = len(rset)
    return ScpParams(
        q=q,
        m=m,
        t=t,
        perm=tuple(rset + free),
        d=tuple(d) if d is not None else (0,) * t,
        g=tuple(g) if g is not None else (0,) * (m + 1),
    )


def params_to_dict(p: ScpParams) -> dict:
    return {
        "q": p.q,
        "m": p.m,
        "t": p.t,
        "pi": list(p.perm),
        "d": list(p.d),
        "g": list(p.g),
    }


def params_from_dict(obj: dict) -> ScpParams:
    """Accepts either an explicit permutation or a restricted-variable set.

    {"q", "m", "t", "pi", "d"?, "g"?} or {"q", "m", "restricted", "d"?, "g"?};
    d and g default to all-zero.
    """
    try:
        q = obj["q"]
        m = obj["m"]
    except KeyError as missing:
        raise ValueError(f"params need key {missing}") from None
    perm = obj.get("pi", obj.get("perm"))
    if perm is not None:
        if "restricted" in obj:
            raise ValueError("give either pi or restricted, not both")
        if "t" not in obj:
            raise ValueError("t is required alongside an explicit permutation")
        t = obj["t"]
        d = tuple(obj.get("d", (0,) * t))
        g = tuple(obj.get("g", (0,) * (m + 1)))
        return ScpParams(q=q, m=m, t=t, perm=tuple(perm), d=d, g=g)
    if "restricted" in obj:
        return params_from_restricted_set(
            q, m, obj["restricted"], obj.get("d"), obj.get("g")
        )
    raise ValueError("params need either pi (with t) or restricted")
