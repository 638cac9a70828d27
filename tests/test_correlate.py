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
    correlation_columns,
    nonzero_mask,
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


def assert_columns_match_definition(cols, a, b):
    """The count columns equal the defining sum's counts at every shift."""
    L = len(a)
    assert len(cols) == a.q
    assert all(len(col) == 2 * L - 1 for col in cols)
    for u in range(-(L - 1), L):
        counts = tuple(col[u + L - 1] for col in cols)
        assert counts == cross_correlation(a, b, u).counts


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
            assert_columns_match_definition(correlation_columns(a, b), a, b)

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
        # support 512 at L = 1023, then support 16 at L = 961
        dense = construct_scp(params_from_restricted_set(2, 10, (1,)))
        sparse = construct_scp(params_from_restricted_set(6, 10, range(1, 7)))
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
