"""Tables, restriction, and truncation of generalized Boolean functions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from scpkit import (
    GeneralizedBooleanFunction,
    Restriction,
    SparseSequence,
    restrict,
    restricted_sequence,
    truncate,
    truncation_bounds,
)

# f = 2*x2*x3 + x1 over q=4, m=3: the running small example.
F_SMALL = GeneralizedBooleanFunction(4, 3, ((2, (2, 3)), (1, (1,))))


def random_function(rng: random.Random, q: int, m: int, n_terms: int = 6):
    terms = []
    for _ in range(n_terms):
        size = rng.randint(0, min(3, m))
        variables = tuple(rng.sample(range(1, m + 1), size))
        terms.append((rng.randrange(q), variables))
    return GeneralizedBooleanFunction(q, m, tuple(terms))


class TestEvaluate:
    def test_truth_table(self):
        assert F_SMALL.values() == [0, 1, 0, 1, 0, 1, 2, 3]

    def test_constant_function(self):
        g0 = GeneralizedBooleanFunction(4, 3, ((3, ()),))
        assert all(v == 3 for v in g0.values())
        assert g0.evaluate((1, 0, 1)) == 3

    def test_all_ones_assignment(self):
        assert F_SMALL.evaluate((1, 1, 1)) == 3

    def test_index_bit_order(self):
        # x_1 is the least significant bit of the index
        f = GeneralizedBooleanFunction(2, 2, ((1, (1,)),))
        assert f.values() == [0, 1, 0, 1]

    def test_wrong_assignment_length(self):
        with pytest.raises(ValueError):
            F_SMALL.evaluate((1, 0))

    def test_linear_over_term_concatenation(self):
        rng = random.Random(11)
        for q in (2, 4, 6):
            for _ in range(20):
                m = rng.randint(1, 6)
                f1 = random_function(rng, q, m)
                f2 = random_function(rng, q, m)
                combined = GeneralizedBooleanFunction(q, m, f1.terms + f2.terms)
                for i in range(1 << m):
                    expected = (f1.evaluate_index(i) + f2.evaluate_index(i)) % q
                    assert combined.evaluate_index(i) == expected

    def test_duplicate_monomials_sum(self):
        f = GeneralizedBooleanFunction(4, 1, ((1, (1,)), (1, (1,))))
        assert f.values() == [0, 2]

    def test_mask_evaluation_matches_term_by_term_definition(self):
        # monomials drawn with replacement repeat indices inside one term,
        # and a short monomial list repeats whole terms
        rng = random.Random(17)
        for q in (2, 4, 6, 10):
            for _ in range(25):
                m = rng.randint(1, 7)
                pool = [
                    tuple(rng.choice(range(1, m + 1)) for _ in range(rng.randint(0, 4)))
                    for _ in range(3)
                ]
                terms = tuple(
                    (rng.randrange(-2 * q, 2 * q), rng.choice(pool)) for _ in range(8)
                )
                f = GeneralizedBooleanFunction(q, m, terms)
                for i in range(1 << m):
                    bits = [(i >> (v - 1)) & 1 for v in range(1, m + 1)]
                    expected = sum(
                        c for c, variables in terms if all(bits[v - 1] for v in variables)
                    ) % q
                    assert f.evaluate_index(i) == expected
                    assert f.evaluate(bits) == expected

    def test_odd_q_rejected(self):
        with pytest.raises(ValueError, match="even"):
            GeneralizedBooleanFunction(3, 2)

    def test_variable_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            GeneralizedBooleanFunction(4, 2, ((1, (3,)),))


class TestFullSequence:
    def test_small_example(self):
        assert F_SMALL.full_sequence().entries == (0, 1, 0, 1, 0, 1, 2, 3)

    def test_zero_function(self):
        f = GeneralizedBooleanFunction(2, 1)
        assert f.full_sequence().entries == (0, 0)

    def test_no_zero_entries(self):
        rng = random.Random(5)
        f = random_function(rng, 8, 4)
        assert f.full_sequence().zero_count == 0


class TestRestrict:
    def test_small_example(self):
        r = Restriction((2,), (0,))
        assert restrict(F_SMALL, r).entries == (0, 1, None, None, 0, 1, None, None)

    def test_empty_restriction_is_full_table(self):
        r = Restriction()
        assert restrict(F_SMALL, r).entries == F_SMALL.full_sequence().entries

    def test_all_variables_restricted(self):
        r = Restriction((1, 2, 3), (0, 0, 0))
        seq = restrict(F_SMALL, r)
        assert seq.support() == ((0, 0),)

    def test_nonzero_count_is_power_of_two(self):
        rng = random.Random(23)
        for m in range(1, 11):
            for t in range(m):
                f = random_function(rng, 4, m)
                indices = tuple(rng.sample(range(1, m + 1), t))
                values = tuple(rng.randint(0, 1) for _ in range(t))
                seq = restrict(f, Restriction(indices, values))
                assert seq.nonzero_count == 1 << (m - t)

    def test_index_above_m_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            restrict(F_SMALL, Restriction((4,), (0,)))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Restriction((2, 2), (0, 1))

    def test_nonbinary_value_rejected(self):
        with pytest.raises(ValueError, match="bits"):
            Restriction((1,), (2,))


class TestTruncation:
    def test_bounds_small_example(self):
        assert truncation_bounds(Restriction((2,), (0,)), 3) == (0, 5)

    def test_bounds_empty_restriction(self):
        assert truncation_bounds(Restriction(), 3) == (0, 7)

    def test_bounds_two_restricted_of_five(self):
        assert truncation_bounds(Restriction((1, 3), (0, 0)), 5) == (0, 26)

    def test_bounds_match_scan(self):
        # the closed form must agree with literally scanning the table
        rng = random.Random(37)
        for _ in range(60):
            m = rng.randint(1, 8)
            t = rng.randint(0, m)
            f = random_function(rng, 4, m)
            r = Restriction(
                tuple(rng.sample(range(1, m + 1), t)),
                tuple(rng.randint(0, 1) for _ in range(t)),
            )
            seq = restrict(f, r)
            nonzero = [i for i, e in enumerate(seq.entries) if e is not None]
            assert truncation_bounds(r, m) == (nonzero[0], nonzero[-1])

    def test_truncate_small_example(self):
        r = Restriction((2,), (0,))
        seq = truncate(restrict(F_SMALL, r), 0, 5)
        assert seq.entries == (0, 1, None, None, 0, 1)
        assert seq.sparsity == Fraction(1, 3)

    def test_identity_truncation(self):
        full = F_SMALL.full_sequence()
        assert truncate(full, 0, 7).entries == full.entries

    def test_trimmed_ends_are_nonzero(self):
        rng = random.Random(41)
        for _ in range(40):
            m = rng.randint(1, 8)
            t = rng.randint(0, m - 1)
            f = random_function(rng, 4, m)
            r = Restriction(
                tuple(rng.sample(range(1, m + 1), t)),
                tuple(rng.randint(0, 1) for _ in range(t)),
            )
            assert restricted_sequence(f, r).has_nonzero_ends

    def test_restricted_sequence_matches_restrict_then_truncate(self):
        # built from the support only, it must equal the full-table route
        rng = random.Random(43)
        for _ in range(60):
            q = rng.choice((2, 4, 6, 8, 10))
            m = rng.randint(1, 9)
            t = rng.randint(0, m - 1)
            f = random_function(rng, q, m)
            r = Restriction(
                tuple(rng.sample(range(1, m + 1), t)),
                tuple(rng.randint(0, 1) for _ in range(t)),
            )
            k0, k1 = truncation_bounds(r, m)
            assert restricted_sequence(f, r) == truncate(restrict(f, r), k0, k1)

    def test_zero_boundary_rejected(self):
        r = Restriction((2,), (0,))
        seq = restrict(F_SMALL, r)
        with pytest.raises(ValueError, match="boundary"):
            truncate(seq, 2, 5)
        with pytest.raises(ValueError, match="boundary"):
            truncate(seq, 0, 6)

    def test_bad_range_rejected(self):
        seq = F_SMALL.full_sequence()
        with pytest.raises(ValueError, match="out of range"):
            truncate(seq, 3, +9)


class TestSparseSequence:
    def test_exponents_reduced(self):
        seq = SparseSequence(4, (5, None, -1))
        assert seq.entries == (1, None, 3)

    def test_counts(self):
        seq = SparseSequence(4, (0, None, 2, None, None))
        assert seq.nonzero_count == 2
        assert seq.zero_count == 3
        assert seq.sparsity == Fraction(3, 5)
        assert not seq.has_nonzero_ends

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SparseSequence(4, ())

    def test_dict_roundtrip(self):
        seq = SparseSequence(4, (0, None, 2))
        obj = seq.to_dict(m=3, t=1)
        assert obj == {"q": 4, "L": 3, "m": 3, "t": 1, "entries": [0, None, 2]}
        assert SparseSequence.from_dict(obj) == seq

    def test_dict_length_mismatch(self):
        with pytest.raises(ValueError, match="L=4"):
            SparseSequence.from_dict({"q": 4, "L": 4, "entries": [0, 1]})
