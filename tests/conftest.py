"""Shared generators for the test suite.

Everything random is driven by explicit seeded Random instances so runs
are reproducible; tests freeze their seeds.
"""

from __future__ import annotations

import random

from scpkit import ScpParams, SparseSequence

# The length-27 worked example used as a golden fixture throughout:
# q=4, m=5, two restricted variables, perm (1,3,2,4,5), linear part 3*x_2.
GOLDEN_PARAMS = dict(q=4, m=5, t=2, perm=(1, 3, 2, 4, 5), d=(0, 0), g=(0, 0, 3, 0, 0, 0))

GOLDEN_C0 = (
    0, None, 3, None, None, None, None, None,
    0, None, 1, None, None, None, None, None,
    0, None, 3, None, None, None, None, None,
    2, None, 3,
)
GOLDEN_C1 = (
    0, None, 1, None, None, None, None, None,
    0, None, 3, None, None, None, None, None,
    0, None, 1, None, None, None, None, None,
    2, None, 1,
)
GOLDEN_S0 = (
    0, None, 3, None, None, None, None, None,
    0, None, 1, None, None, None, None, None,
    2, None, 1, None, None, None, None, None,
    0, None, 1,
)
GOLDEN_S1 = (
    0, None, 1, None, None, None, None, None,
    0, None, 3, None, None, None, None, None,
    2, None, 3, None, None, None, None, None,
    0, None, 3,
)


def golden_params() -> ScpParams:
    return ScpParams(**GOLDEN_PARAMS)


def random_sparse_sequence(rng: random.Random, q: int, length: int) -> SparseSequence:
    """Random sparse sequence with non-zero first and last entries."""
    entries: list[int | None] = [None] * length
    entries[0] = rng.randrange(q)
    entries[-1] = rng.randrange(q)
    for i in range(1, length - 1):
        if rng.random() < 0.5:
            entries[i] = rng.randrange(q)
    return SparseSequence(q, tuple(entries))


def random_valid_params(
    rng: random.Random,
    q: int | None = None,
    m_low: int = 2,
    m_high: int = 5,
) -> ScpParams:
    """Uniform-ish draw over valid construction parameters."""
    q = q if q is not None else rng.choice((2, 4))
    m = rng.randint(m_low, m_high)
    t = rng.randint(0, m - 1)
    while True:
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        if all(perm[m - 1] > perm[a] for a in range(t)):
            break
    return ScpParams(
        q=q,
        m=m,
        t=t,
        perm=tuple(perm),
        d=tuple(rng.randint(0, 1) for _ in range(t)),
        g=tuple(rng.randrange(q) for _ in range(m + 1)),
    )


def mutate_exponent(seq: SparseSequence, which_nonzero: int, delta: int) -> SparseSequence:
    """Shift the exponent of the which_nonzero-th non-zero entry by delta."""
    entries = list(seq.entries)
    idx = [i for i, e in enumerate(entries) if e is not None][which_nonzero]
    entries[idx] = (entries[idx] + delta) % seq.q
    return SparseSequence(seq.q, tuple(entries))


def mutate_support(rng: random.Random, seq: SparseSequence, kind: str) -> SparseSequence:
    """Change which entries are zero, by kind of mutation.

    "first" clears the first non-zero entry, "clear" a random one, and
    "fill" gives a random zero entry an exponent (no change without
    zeros).  These move the support grid: clearing the first entry moves
    its origin, filling a zero between grid points shrinks its stride.
    """
    entries = list(seq.entries)
    nonzero = [i for i, e in enumerate(entries) if e is not None]
    zeros = [i for i, e in enumerate(entries) if e is None]
    if kind == "fill":
        if zeros:
            entries[rng.choice(zeros)] = rng.randrange(seq.q)
    else:
        entries[nonzero[0] if kind == "first" else rng.choice(nonzero)] = None
    return SparseSequence(seq.q, tuple(entries))
