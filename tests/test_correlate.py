"""Exact correlation engine: cyclotomic arithmetic and the shift sums."""

from __future__ import annotations

import cmath
import csv
import io
import math
import random

import pytest

from conftest import golden_params, random_sparse_sequence
from scpkit import (
    CyclotomicInt,
    SparseSequence,
    autocorrelation,
    conj_symmetry_check,
    construct_scp,
    correlation_profile,
    cross_correlation,
    cyclotomic_polynomial,
    params_from_restricted_set,
    write_profile_csv,
)
from scpkit.correlate import (
    _kronecker_columns,
    _loop_columns,
    _on_grid,
    correlation_columns,
    nonzero_mask,
    support_grid,
)

KERNEL_PATHS = (_kronecker_columns, _loop_columns)


def poly_remainder(coeffs, modulus):
    """Long division by a monic polynomial, constant terms first."""
    rem = list(coeffs)
    deg = len(modulus) - 1
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for k, m in enumerate(modulus):
                rem[i - deg + k] -= c * m
    return rem[:deg]


def assert_columns_match_definition(cols, a, b, grid=None):
    """The count columns equal the defining sum's counts at every shift.

    Index k of the columns is shift stride * (k - (n - 1)) on the grid
    (origin, stride, n), by default the plain positions (0, 1, L); every
    shift off the grid must have no support pair at all.
    """
    L = len(a)
    _, stride, n = (0, 1, L) if grid is None else grid
    assert len(cols) == a.q
    assert all(len(col) == 2 * n - 1 for col in cols)
    on_grid = {stride * (k - (n - 1)): k for k in range(2 * n - 1)}
    assert max(on_grid) < L
    for u in range(-(L - 1), L):
        counts = cross_correlation(a, b, u).counts
        if u in on_grid:
            assert tuple(col[on_grid[u]] for col in cols) == counts
        else:
            assert counts == (0,) * a.q


class TestCyclotomicPolynomial:
    def test_known_values(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_product_over_divisors_is_x_n_minus_1(self):
        # multiply the cyclotomic polynomials of all divisors back together
        for n in (6, 10, 12):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    phi = cyclotomic_polynomial(d)
                    out = [0] * (len(prod) + len(phi) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(phi):
                            out[i + j] += a * b
                    prod = out
            assert prod == [-1] + [0] * (n - 1) + [1]

    def test_bad_index(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


class TestCyclotomicInt:
    def test_half_turn_pair_is_zero(self):
        v = CyclotomicInt.from_exponent(4, 0) + CyclotomicInt.from_exponent(4, 2)
        assert v.is_zero()

    def test_integer_is_not_zero(self):
        assert not CyclotomicInt.from_integer(4, 8).is_zero()
        assert CyclotomicInt.from_integer(4, 0).is_zero()

    def test_nontrivial_vanishing_sum_q6(self):
        # 1 + xi^2 + xi^4 over q=6 are the cube roots of unity
        v = (
            CyclotomicInt.from_exponent(6, 0)
            + CyclotomicInt.from_exponent(6, 2)
            + CyclotomicInt.from_exponent(6, 4)
        )
        assert v.is_zero()
        assert not (v + CyclotomicInt.from_exponent(6, 1)).is_zero()

    def test_is_zero_matches_float_embedding(self):
        rng = random.Random(7)
        for q in (2, 4, 6, 8, 12):
            for _ in range(300):
                counts = tuple(rng.randint(-5, 5) for _ in range(q))
                v = CyclotomicInt(q, counts)
                assert v.is_zero() == (abs(v.to_complex()) < 1e-9)

    def test_column_rule_matches_long_division(self):
        # q = 210 reduces some x^e mod Phi_q to coefficients of 2
        rng = random.Random(11)
        for q in (2, 4, 6, 10, 12, 210):
            phi = cyclotomic_polynomial(q)
            values = [
                CyclotomicInt(q, tuple(rng.randint(-2, 2) for _ in range(q)))
                for _ in range(60)
            ]
            # every coset of every order-p subgroup sums to zero; with one
            # more unit it does not
            for p in (p for p in (2, 3, 5, 7) if q % p == 0):
                for start in range(q):
                    counts = [0] * q
                    for k in range(p):
                        counts[(start + k * q // p) % q] += 1
                    values.append(CyclotomicInt(q, tuple(counts)))
                    counts[rng.randrange(q)] += 1
                    values.append(CyclotomicInt(q, tuple(counts)))
            mask = nonzero_mask(list(zip(*(v.counts for v in values))), q)
            expected = [not any(poly_remainder(v.counts, phi)) for v in values]
            assert [not flag for flag in mask] == expected
            # is_zero runs the same rule one value at a time
            assert [v.is_zero() for v in values[::7]] == expected[::7]

    def test_to_complex_values(self):
        assert CyclotomicInt.zero(4).to_complex() == 0j
        assert cmath.isclose(
            CyclotomicInt.from_exponent(4, 1).to_complex(), 1j, abs_tol=1e-12
        )
        assert cmath.isclose(
            CyclotomicInt.from_integer(4, 8).to_complex(), 8 + 0j, abs_tol=1e-12
        )

    def test_conjugate(self):
        rng = random.Random(3)
        for q in (4, 6):
            counts = tuple(rng.randint(-3, 3) for _ in range(q))
            v = CyclotomicInt(q, counts)
            assert cmath.isclose(
                v.conjugate().to_complex(),
                v.to_complex().conjugate(),
                abs_tol=1e-9,
            )

    def test_arithmetic_validation(self):
        with pytest.raises(ValueError, match="even"):
            CyclotomicInt(3, (0, 0, 0))
        with pytest.raises(ValueError, match="coefficients"):
            CyclotomicInt(4, (0, 0))
        with pytest.raises(ValueError, match="mixed"):
            CyclotomicInt.zero(4) + CyclotomicInt.zero(6)


class TestCrossCorrelation:
    def test_zero_shift_counts_support(self):
        rng = random.Random(19)
        for _ in range(20):
            q = rng.choice((2, 4, 8))
            seq = random_sparse_sequence(rng, q, rng.randint(1, 30))
            value = cross_correlation(seq, seq, 0)
            assert (value - CyclotomicInt.from_integer(q, seq.nonzero_count)).is_zero()

    def test_matches_direct_definition(self):
        # the kernel's columns agree with the defining sum at every shift
        rng = random.Random(29)
        for _ in range(30):
            q = rng.choice((2, 4, 6))
            L = rng.randint(1, 24)
            a = random_sparse_sequence(rng, q, L)
            b = random_sparse_sequence(rng, q, L)
            cols = correlation_columns(a, b)
            assert_columns_match_definition(cols, a, b, support_grid(a, b))

    def test_profile_matches_single_shift(self):
        rng = random.Random(31)
        for _ in range(15):
            q = rng.choice((2, 4))
            L = rng.randint(1, 24)
            a = random_sparse_sequence(rng, q, L)
            b = random_sparse_sequence(rng, q, L)
            profile = correlation_profile(a, b)
            assert sorted(profile) == list(range(-(L - 1), L))
            for u, value in profile.items():
                assert (value - cross_correlation(a, b, u)).is_zero()
        # each kernel path on its own, whichever the size rule would pick:
        # random pairs, an all-zero sequence, and a constructed pair whose
        # support of 256 needs two-byte digits in the packed product
        cases = []
        for q in (2, 4, 6, 10, 12):
            for _ in range(6):
                L = rng.randint(1, 40)
                cases.append(
                    (random_sparse_sequence(rng, q, L), random_sparse_sequence(rng, q, L))
                )
            cases.append((SparseSequence(q, (None,) * 5), random_sparse_sequence(rng, q, 5)))
            g = tuple(rng.randrange(q) for _ in range(10))
            pair = construct_scp(params_from_restricted_set(q, 9, (1,), d=(1,), g=g))
            assert pair.c0.nonzero_count == 256
            cases += [(pair.c0, pair.c1), (pair.c0, pair.c0)]
        for a, b in cases:
            for path in KERNEL_PATHS:
                cols = path(a.support(), b.support(), len(a), a.q)
                assert_columns_match_definition(cols, a, b)

    def test_kernel_path_follows_sizes(self, monkeypatch):
        import scpkit.correlate as correlate

        taken = []
        for path in KERNEL_PATHS:
            monkeypatch.setattr(
                correlate,
                path.__name__,
                lambda *args, path=path: taken.append(path.__name__) or path(*args),
            )
        # support 512 at L = 1022, then support 16 at L = 898; x_1 stays
        # free in both, so the grid has stride 1 and the sizes are the plain
        # ones
        dense = construct_scp(params_from_restricted_set(2, 10, (2,)))
        sparse = construct_scp(params_from_restricted_set(6, 10, range(2, 8)))
        assert support_grid(dense.c0, dense.c1) == (0, 1, 1022)
        assert support_grid(sparse.c0, sparse.c1) == (0, 1, 898)
        correlation_columns(dense.c0, dense.c1)
        correlation_columns(sparse.c0, sparse.c1)
        assert taken == ["_kronecker_columns", "_loop_columns"]

    def test_golden_pair_zone_shift(self):
        pair = construct_scp(golden_params())
        assert autocorrelation(pair.c0, 3).is_zero()
        assert not autocorrelation(pair.c0, 0).is_zero()

    def test_shift_out_of_range(self):
        seq = SparseSequence(4, (0, 1))
        with pytest.raises(ValueError, match="shift"):
            cross_correlation(seq, seq, 2)
        with pytest.raises(ValueError, match="shift"):
            cross_correlation(seq, seq, -2)

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError, match="length"):
            cross_correlation(SparseSequence(4, (0, 1)), SparseSequence(4, (0,)), 0)
        with pytest.raises(ValueError, match="alphabets"):
            cross_correlation(SparseSequence(4, (0,)), SparseSequence(2, (0,)), 0)


class TestSupportGrid:
    @staticmethod
    def sequence(q, L, positions):
        entries = [None] * L
        for k, j in enumerate(positions):
            entries[j] = k % q
        return SparseSequence(q, tuple(entries))

    def assert_kernel_on_grid(self, a, b, grid):
        """Both paths on the compressed supports, and the profile, match
        the defining sum at every shift, and are zero off the grid."""
        n = grid[2]
        assert_columns_match_definition(correlation_columns(a, b, grid), a, b, grid)
        for path in KERNEL_PATHS:
            cols = path(_on_grid(a, grid), _on_grid(b, grid), n, a.q)
            assert_columns_match_definition(cols, a, b, grid)
        profile = correlation_profile(a, b)
        assert sorted(profile) == list(range(-(len(a) - 1), len(a)))
        for u, value in profile.items():
            assert value.counts == cross_correlation(a, b, u).counts

    def test_all_zero_sequence(self):
        zero = SparseSequence(4, (None,) * 5)
        other = self.sequence(4, 5, (1, 3))
        assert zero.support_span is None
        assert support_grid(zero) == (0, 1, 1)
        assert support_grid(zero, zero) == (0, 1, 1)
        assert support_grid(zero, other) == support_grid(other) == (1, 2, 2)
        self.assert_kernel_on_grid(zero, zero, (0, 1, 1))
        self.assert_kernel_on_grid(zero, other, (1, 2, 2))

    def test_single_entry(self):
        single = self.sequence(6, 7, (4,))
        assert single.support_span == (4, 0, 4)
        assert support_grid(single) == (4, 1, 1)
        self.assert_kernel_on_grid(single, single, (4, 1, 1))
        other = self.sequence(6, 7, (0, 2, 6))
        assert support_grid(single, other) == (0, 2, 4)
        self.assert_kernel_on_grid(single, other, (0, 2, 4))

    def test_origins_apart_by_a_non_multiple_of_the_strides(self):
        # each sequence has stride 4; their origins differ by 2, so the
        # common grid has stride 2
        a = self.sequence(4, 13, (0, 4, 8, 12))
        b = self.sequence(4, 13, (2, 6, 10))
        assert a.support_span == (0, 4, 12) and b.support_span == (2, 4, 10)
        assert support_grid(a) == (0, 4, 4) and support_grid(b) == (2, 4, 3)
        assert support_grid(a, b) == (0, 2, 7)
        self.assert_kernel_on_grid(a, b, (0, 2, 7))
        self.assert_kernel_on_grid(b, a, (0, 2, 7))
        # strides 3 and 6, origins 1 and 3: no common stride
        c = self.sequence(2, 13, (1, 4, 7, 10))
        d = self.sequence(2, 13, (3, 9))
        assert support_grid(c, d) == (1, 1, 10)
        self.assert_kernel_on_grid(c, d, (1, 1, 10))

    def test_group_grid_holds_every_support(self):
        rng = random.Random(61)
        for q in (2, 4, 6):
            for _ in range(20):
                L = rng.randint(1, 40)
                stride = rng.choice((1, 2, 3, 4, 8))
                seqs = []
                for _ in range(rng.randint(1, 4)):
                    origin = rng.randrange(min(stride, L))
                    grid_points = range(origin, L, stride)
                    k = rng.randint(0, len(grid_points))
                    seqs.append(self.sequence(q, L, sorted(rng.sample(grid_points, k))))
                grid = support_grid(*seqs)
                origin, step, n = grid
                positions = {j for s in seqs for j, _ in s.support()}
                assert positions <= {origin + step * k for k in range(n)}
                if len(positions) > 1:
                    assert min(positions) == origin and max(positions) == origin + step * (n - 1)
                    assert math.gcd(*(j - origin for j in positions)) == step
                for a in seqs:
                    for b in seqs:
                        assert_columns_match_definition(
                            correlation_columns(a, b, grid), a, b, grid
                        )

    def test_grid_not_holding_the_support_rejected(self):
        a = self.sequence(4, 9, (0, 4, 8))
        b = self.sequence(4, 9, (2, 6))
        with pytest.raises(ValueError, match="grid"):
            correlation_columns(a, b, support_grid(a))
        with pytest.raises(ValueError, match="grid"):
            correlation_columns(a, a, (0, 4, 2))


class TestConjSymmetry:
    def test_holds_for_random_inputs(self):
        rng = random.Random(43)
        for _ in range(10):
            q = rng.choice((2, 4, 8))
            L = rng.randint(2, 12)
            assert conj_symmetry_check(
                random_sparse_sequence(rng, q, L), random_sparse_sequence(rng, q, L)
            )

    def test_holds_for_golden_pair(self):
        pair = construct_scp(golden_params())
        assert conj_symmetry_check(pair.c0, pair.c1)

    def test_single_entry_sequences(self):
        assert conj_symmetry_check(SparseSequence(4, (1,)), SparseSequence(4, (3,)))


class TestFloatAgreement:
    def test_exact_engine_matches_naive_complex_sums(self):
        rng = random.Random(53)
        for _ in range(40):
            q = rng.choice((2, 4, 8))
            L = rng.randint(1, 32)
            a = random_sparse_sequence(rng, q, L)
            b = random_sparse_sequence(rng, q, L)
            za = [0j if e is None else cmath.exp(2j * math.pi * e / q) for e in a.entries]
            zb = [0j if e is None else cmath.exp(2j * math.pi * e / q) for e in b.entries]
            for u in range(-(L - 1), L):
                if u >= 0:
                    ref = sum(za[i + u] * zb[i].conjugate() for i in range(L - u))
                else:
                    ref = sum(za[i] * zb[i - u].conjugate() for i in range(L + u))
                assert abs(cross_correlation(a, b, u).to_complex() - ref) < 1e-9


class TestProfileCsv:
    def test_columns_and_exact_zero_flags(self):
        pair = construct_scp(golden_params())
        profile = correlation_profile(pair.c0, pair.c1)
        buf = io.StringIO()
        write_profile_csv(buf, {"cross": profile})
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == 2 * len(pair.c0) - 1
        for row in rows:
            u = int(row["u"])
            expected = profile[u]
            assert row["profile"] == "cross"
            assert int(row["is_exact_zero"]) == int(expected.is_zero())
            z = complex(float(row["re"]), float(row["im"]))
            assert abs(z - expected.to_complex()) < 1e-9
            assert math.isclose(float(row["magnitude"]), abs(z), abs_tol=1e-9)
