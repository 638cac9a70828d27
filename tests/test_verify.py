"""Checkers against an independent from-scratch reference, sweeps, catalog."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest

from conftest import golden_params, mutate_exponent, mutate_support, random_valid_params
from scpkit import (
    CyclotomicInt,
    GeneralizedBooleanFunction,
    Restriction,
    ScpPair,
    ScpParams,
    SparseSequence,
    check_mate,
    check_scp,
    construct_mate,
    construct_scp,
    cross_correlation,
    exhaustive_sweep,
    length_catalog,
    measure_zcz,
    restricted_sequence,
)
from scpkit.correlate import support_grid

TOL = 1e-9


def lift(seq: SparseSequence) -> list[complex]:
    return [
        0j if e is None else cmath.exp(2j * math.pi * e / seq.q) for e in seq.entries
    ]


def naive_rho(a: list[complex], b: list[complex], u: int) -> complex:
    L = len(a)
    if u >= 0:
        return sum(a[i + u] * b[i].conjugate() for i in range(L - u))
    return sum(a[i] * b[i - u].conjugate() for i in range(L + u))


def naive_scp_verdict(pair: ScpPair, zcz: int) -> bool:
    """From-scratch floating reimplementation of the pair conditions."""
    a, b = lift(pair.c0), lift(pair.c1)
    L = len(a)
    peak = pair.c0.nonzero_count
    if abs(naive_rho(a, a, 0) - peak) > TOL or abs(naive_rho(b, b, 0) - peak) > TOL:
        return False
    for u in range(1, zcz):
        if abs(naive_rho(a, a, u)) > TOL or abs(naive_rho(b, b, u)) > TOL:
            return False
    for u in range(-(zcz - 1), zcz):
        if abs(naive_rho(a, b, u)) > TOL:
            return False
    if abs(naive_rho(a, a, 0) + naive_rho(b, b, 0) - 2 * peak) > TOL:
        return False
    for u in range(1, L):
        if abs(naive_rho(a, a, u) + naive_rho(b, b, u)) > TOL:
            return False
    return True


def naive_mate_verdict(pair: ScpPair, mate: ScpPair, zcz: int) -> bool:
    c0, c1 = lift(pair.c0), lift(pair.c1)
    s0, s1 = lift(mate.c0), lift(mate.c1)
    L = len(c0)
    for u in range(-(L - 1), L):
        if abs(naive_rho(c0, s0, u) + naive_rho(c1, s1, u)) > TOL:
            return False
    for u in range(-(zcz - 1), zcz):
        for x, y in ((c0, s0), (c0, s1), (c1, s0), (c1, s1)):
            if abs(naive_rho(x, y, u)) > TOL:
                return False
    return True


class TestCheckScp:
    def test_golden_pair_passes(self):
        pair = construct_scp(golden_params())
        report = check_scp(pair, claimed_zcz=6)
        assert report.passed
        assert report.measured_zcz >= 6
        assert report.sparsity_measured == Fraction(19, 27)
        assert {c.condition for c in report.claims} == {
            "sequence-form",
            "autocorrelation-peak",
            "autocorrelation-zone",
            "crosscorrelation-zone",
            "complementary-sum",
        }

    def test_report_dict_shape(self):
        report = check_scp(construct_scp(golden_params()))
        obj = report.to_dict()
        assert obj["passed"] is True
        assert obj["measured_zcz"] == 6
        assert obj["sparsity"] == "19/27"
        assert all(
            set(c) == {"condition", "shifts", "passed", "first_failure"}
            for c in obj["claims"]
        )

    def test_perturbed_pair_fails_with_counterexample(self):
        pair = construct_scp(golden_params())
        bad = ScpPair(mutate_exponent(pair.c0, 1, 1), pair.c1, pair.params)
        report = check_scp(bad)
        assert not report.passed
        failing = report.first_failing()
        assert failing is not None
        assert failing.first_failure is not None

    def test_half_turn_flip_breaks_cross_zone_at_zero(self):
        # a q/2 flip negates one term of the u=0 cross sum, which was zero
        pair = construct_scp(golden_params())
        for k in range(pair.c0.nonzero_count):
            bad = ScpPair(mutate_exponent(pair.c0, k, 2), pair.c1, pair.params)
            report = check_scp(bad)
            claims = {c.condition: c for c in report.claims}
            assert not claims["crosscorrelation-zone"].passed
            assert claims["crosscorrelation-zone"].first_failure == 0

    def test_overclaimed_zone_fails(self):
        pair = construct_scp(golden_params())
        assert check_scp(pair, claimed_zcz=6).passed
        assert not check_scp(pair, claimed_zcz=7).passed

    def test_no_restriction_passes_with_unit_zone(self):
        pair = construct_scp(ScpParams(q=2, m=3, t=0, perm=(1, 2, 3)))
        report = check_scp(pair, claimed_zcz=1)
        assert report.passed
        assert report.sparsity_measured == 0

    def test_invalid_zone_claim(self):
        pair = construct_scp(golden_params())
        with pytest.raises(ValueError, match="zone width"):
            check_scp(pair, claimed_zcz=0)
        with pytest.raises(ValueError, match="zone width"):
            check_scp(pair, claimed_zcz=28)

    def test_mismatched_pair(self):
        pair = construct_scp(golden_params())
        stump = SparseSequence(4, (0, 1))
        with pytest.raises(ValueError, match="share"):
            check_scp(ScpPair(pair.c0, stump, pair.params))


class TestCheckMate:
    def test_golden_mate_passes(self):
        params = golden_params()
        pair = construct_scp(params)
        mate = construct_mate(params)
        report = check_mate(pair, mate, claimed_zcz=6)
        assert report.passed
        assert report.measured_zcz >= 6
        assert {c.condition for c in report.claims} == {
            "cross-sum",
            "pairwise-cross-zone",
        }

    def test_pair_against_itself_fails_at_zero(self):
        pair = construct_scp(golden_params())
        report = check_mate(pair, pair)
        claims = {c.condition: c for c in report.claims}
        assert not claims["cross-sum"].passed
        assert claims["cross-sum"].first_failure == 0

    def test_unrelated_pair_fails(self):
        params = golden_params()
        pair = construct_scp(params)
        rng = random.Random(97)
        entries = lambda: tuple(
            rng.randrange(4) if i in (0, 26) or rng.random() < 0.3 else None
            for i in range(27)
        )
        impostor = ScpPair(
            SparseSequence(4, entries()), SparseSequence(4, entries()), params
        )
        report = check_mate(pair, impostor)
        claims = {c.condition: c for c in report.claims}
        assert not claims["cross-sum"].passed
        assert claims["cross-sum"].first_failure is not None

    def test_mismatched_lengths(self):
        params = golden_params()
        pair = construct_scp(params)
        stump = SparseSequence(4, (0, 1))
        with pytest.raises(ValueError, match="one length"):
            check_mate(pair, ScpPair(stump, stump, params))


class TestMeasureZcz:
    def test_golden_zone_is_exactly_six(self):
        assert measure_zcz(construct_scp(golden_params())) == 6

    def test_at_least_derived_zone(self):
        rng = random.Random(101)
        for _ in range(40):
            p = random_valid_params(rng)
            assert measure_zcz(construct_scp(p)) >= p.zcz

    def test_single_entry_pair(self):
        p = ScpParams(q=4, m=1, t=0, perm=(1,))
        trivial = ScpPair(SparseSequence(4, (0,)), SparseSequence(4, (2,)), p)
        assert measure_zcz(trivial) == 1


class TestAgainstNaiveReference:
    def test_valid_pairs_agree(self):
        rng = random.Random(103)
        for _ in range(500):
            p = random_valid_params(rng, m_high=4)
            pair = construct_scp(p)
            assert check_scp(pair).passed
            assert naive_scp_verdict(pair, p.zcz)

    def test_mutated_pairs_agree(self):
        rng = random.Random(107)
        for _ in range(500):
            p = random_valid_params(rng, m_high=4)
            pair = construct_scp(p)
            which = rng.randrange(pair.c0.nonzero_count)
            delta = rng.choice([d for d in range(1, p.q)])
            if rng.random() < 0.5:
                bad = ScpPair(mutate_exponent(pair.c0, which, delta), pair.c1, p)
            else:
                bad = ScpPair(pair.c0, mutate_exponent(pair.c1, which, delta), p)
            assert check_scp(bad).passed == naive_scp_verdict(bad, p.zcz) == False

    def test_mates_agree(self):
        rng = random.Random(109)
        done = 0
        while done < 60:
            p = random_valid_params(rng, m_high=4)
            if not p.supports_mate:
                continue
            pair = construct_scp(p)
            mate = construct_mate(p)
            assert check_mate(pair, mate).passed
            assert naive_mate_verdict(pair, mate, p.zcz)
            done += 1


def first(shifts, bad):
    return next((u for u in shifts if bad(u)), None)


def scan_scp(pair: ScpPair, zcz: int) -> tuple[dict, int]:
    """First failures and measured zone of a pair, one shift at a time."""
    c0, c1 = pair.c0, pair.c1
    L, q = len(c0), c0.q
    peak = L - c0.zero_count

    def rho(a, b, u):
        return cross_correlation(a, b, u)

    def equals(value, n):
        return (value - CyclotomicInt.from_integer(q, n)).is_zero()

    def nonzero(*values):
        return not all(v.is_zero() for v in values)

    peak_ok = equals(rho(c0, c0, 0), peak) and equals(rho(c1, c1, 0), peak)
    fails = {
        "sequence-form": None,
        "autocorrelation-peak": None if peak_ok else 0,
        "autocorrelation-zone": first(
            range(1, zcz), lambda u: nonzero(rho(c0, c0, u), rho(c1, c1, u))
        ),
        "crosscorrelation-zone": first(
            range(zcz), lambda u: nonzero(rho(c0, c1, u), rho(c0, c1, -u))
        ),
    }
    if not equals(rho(c0, c0, 0) + rho(c1, c1, 0), 2 * peak):
        fails["complementary-sum"] = 0
    else:
        fails["complementary-sum"] = first(
            range(1, L), lambda u: nonzero(rho(c0, c0, u) + rho(c1, c1, u))
        )
    if not peak_ok or nonzero(rho(c0, c1, 0)):
        measured = 1
    else:
        zone_end = first(
            range(1, L),
            lambda u: nonzero(rho(c0, c0, u), rho(c1, c1, u), rho(c0, c1, u), rho(c0, c1, -u)),
        )
        measured = L if zone_end is None else zone_end
    return fails, measured


def scan_mate(pair: ScpPair, mate: ScpPair, zcz: int) -> tuple[dict, int]:
    """First failures and measured zone of a mate check, one shift at a time."""
    c0, c1, s0, s1 = pair.c0, pair.c1, mate.c0, mate.c1
    L = len(c0)
    couples = ((c0, s0), (c1, s1), (c0, s1), (c1, s0))

    def sum_nonzero(u):
        return any(
            not (cross_correlation(c0, s0, v) + cross_correlation(c1, s1, v)).is_zero()
            for v in (u, -u)
        )

    def any_nonzero(u):
        return any(
            not cross_correlation(a, b, v).is_zero() for a, b in couples for v in (u, -u)
        )

    zone_end = first(range(L), any_nonzero)
    fails = {
        "cross-sum": first(range(L), sum_nonzero),
        "pairwise-cross-zone": first(range(zcz), any_nonzero),
    }
    return fails, max(L if zone_end is None else zone_end, 1)


class TestPerShiftScan:
    """check_scp/check_mate agree with a per-shift scan on the defining sums."""

    def test_mutated_pairs_match_scan(self):
        rng = random.Random(127)
        grids_moved = strided = 0
        for q in (2, 4, 6, 10, 12):
            done = 0
            while done < 8:
                p = random_valid_params(rng, q=q, m_low=3, m_high=6)
                if not p.supports_mate:
                    continue
                pair = construct_scp(p)
                mate = construct_mate(p)
                which = rng.randrange(pair.c0.nonzero_count)
                delta = rng.randrange(1, q)
                bad = ScpPair(mutate_exponent(pair.c0, which, delta), pair.c1, p)
                # support mutations move the grid's origin (both first
                # entries cleared) or shrink its stride (a zero filled), and
                # put a mate on another grid than its pair
                shifted = ScpPair(
                    mutate_support(rng, pair.c0, "first"),
                    mutate_support(rng, pair.c1, "first"),
                    p,
                )
                filled = ScpPair(mutate_support(rng, pair.c0, "fill"), pair.c1, p)
                moved_mate = ScpPair(
                    mutate_support(rng, mate.c0, "clear"),
                    mutate_support(rng, mate.c1, "fill"),
                    p,
                )
                grid = support_grid(pair.c0, pair.c1)
                strided += grid[1] > 1
                for moved in (shifted, filled, moved_mate):
                    grids_moved += support_grid(*pair_seqs(moved)) != grid
                grids_moved += support_grid(*pair_seqs(pair, moved_mate)) != grid
                for zcz in (p.zcz, rng.randint(1, len(pair.c0))):
                    for candidate in (pair, bad, shifted, filled, moved_mate):
                        fails, measured = scan_scp(candidate, zcz)
                        report = check_scp(candidate, claimed_zcz=zcz)
                        assert {c.condition: c.first_failure for c in report.claims} == fails
                        assert report.measured_zcz == measured == measure_zcz(candidate)
                    for x, y in (
                        (pair, mate),
                        (bad, mate),
                        (mate, bad),
                        (pair, pair),
                        (pair, moved_mate),
                        (shifted, mate),
                        (filled, moved_mate),
                    ):
                        fails, measured = scan_mate(x, y, zcz)
                        report = check_mate(x, y, claimed_zcz=zcz)
                        assert {c.condition: c.first_failure for c in report.claims} == fails
                        assert report.measured_zcz == measured
                done += 1
        # the inputs reach both sides of the grid decision
        assert strided >= 10 and grids_moved >= 60


def pair_seqs(*pairs: ScpPair) -> list[SparseSequence]:
    return [seq for pair in pairs for seq in (pair.c0, pair.c1)]


class TestLargerAlphabets:
    def test_construction_holds_for_q6_and_q8(self):
        # q=6 drives the general cyclotomic reduction through the whole stack
        rng = random.Random(113)
        for q in (6, 8):
            for _ in range(15):
                p = random_valid_params(rng, q=q, m_high=4)
                pair = construct_scp(p)
                report = check_scp(pair)
                assert report.passed
                assert naive_scp_verdict(pair, p.zcz)
                if p.supports_mate:
                    mate = construct_mate(p)
                    assert check_mate(pair, mate).passed


class TestSweep:
    def test_small_sweep_counts_and_passes(self):
        summary = exhaustive_sweep((2,), 3)
        assert summary.pairs_total == 50
        assert summary.pairs_passed == 50
        assert summary.all_passed
        assert summary.failures() == []

    def test_deterministic_across_runs(self):
        assert exhaustive_sweep((2,), 3, seed=5) == exhaustive_sweep((2,), 3, seed=5)
        assert exhaustive_sweep((2,), 3, seed=5) != exhaustive_sweep((2,), 3, seed=6)

    def test_csv_rows(self):
        summary = exhaustive_sweep((2,), 2)
        rows = list(summary.csv_rows())
        assert rows[0][:4] == ["q", "m", "t", "perm"]
        assert len(rows) == summary.pairs_total + 1

    def test_dropping_position_constraint_breaks_pairs(self):
        # rebuild the construction by hand for permutations that violate the
        # position constraint: the sweep space outside the filter must contain
        # failures, showing the constraint is load-bearing
        from itertools import permutations

        failures = 0
        total = 0
        for m in (3, 4):
            for t in range(1, m):
                for perm in permutations(range(1, m + 1)):
                    if all(perm[m - 1] > perm[a] for a in range(t)):
                        continue  # valid; skip
                    total += 1
                    h = 2
                    terms = [(h, (perm[l - 1], perm[l])) for l in range(t + 1, m)]
                    f = GeneralizedBooleanFunction(4, m, tuple(terms))
                    r = Restriction(perm[:t], (0,) * t)
                    c0 = restricted_sequence(f, r)
                    c1 = restricted_sequence(f.plus_term(h, (perm[t],)), r)
                    zcz = sum(1 << (perm[a] - 1) for a in range(t)) + 1
                    zcz = min(zcz, len(c0))
                    valid_params = ScpParams(q=4, m=m, t=0, perm=tuple(range(1, m + 1)))
                    report = check_scp(ScpPair(c0, c1, valid_params), claimed_zcz=zcz)
                    failures += not report.passed
        assert total > 0
        assert failures > 0


class TestCatalog:
    EXPECTED = [
        (15, 4, (1,), 2, "7/15"),
        (17, 5, (1, 2, 3, 4), 16, "15/17"),
        (18, 5, (2, 3, 4), 15, "14/18"),
        (19, 5, (1, 3, 4), 14, "15/19"),
        (21, 5, (1, 2, 4), 12, "17/21"),
        (22, 5, (2, 4), 11, "14/22"),
        (23, 5, (1, 4), 10, "15/23"),
        (24, 5, (4,), 9, "8/24"),
        (25, 5, (1, 2, 3), 8, "21/25"),
        (27, 5, (1, 3), 6, "19/27"),
        (28, 5, (3,), 5, "12/28"),
        (29, 5, (1, 2), 4, "21/29"),
        (30, 5, (2,), 3, "14/30"),
        (31, 5, (1,), 2, "15/31"),
        (33, 6, (1, 2, 3, 4, 5), 32, "31/33"),
        (34, 6, (2, 3, 4, 5), 31, "30/34"),
        (35, 6, (1, 3, 4, 5), 30, "31/35"),
    ]

    def test_rows_match_expected(self):
        rows = length_catalog()
        got = [(r.length, r.m, r.restricted, r.zcz, r.sparsity_label) for r in rows]
        assert got == self.EXPECTED

    def test_all_rows_verified(self):
        assert all(r.verified for r in length_catalog())

    def test_length_zone_identity(self):
        for r in length_catalog():
            assert r.length + r.zcz == (1 << r.m) + 1

    def test_zone_measured_at_least_stated(self):
        from scpkit import params_from_restricted_set

        p = params_from_restricted_set(4, 4, (1,))  # the length-15 recipe
        assert measure_zcz(construct_scp(p)) >= 2
