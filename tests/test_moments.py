"""Moment sequences, derivation families, the correspondence, extension solver."""

from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermoment import (
    AffineSolutionSet,
    CFunction,
    DerivationFamily,
    DomainError,
    FiniteHypergroup,
    Measure,
    MomentSequence,
    PreconditionError,
    chebyshev,
    derivation_from_moments,
    dirac,
    enumerate_exponentials,
    extend_moment_sequence,
    indices_up_to,
    is_exponential,
    is_module_hom,
    is_multiplicative_hom,
    iterated_extension,
    lower_indices,
    make_module_hom,
    moments_from_derivation,
    multi_binomial,
    pair,
    poly_derivative_moments,
    rank_lift,
    realline_moments,
    two_point,
    verify_d0_derivation,
    verify_leibniz,
    verify_moment_sequence,
    zero_operator,
)
from hypermoment import moments
from tests.conftest import random_measure


def seeded_real_pairs(count: int, seed: int = 7) -> list[tuple[float, float]]:
    rng = random.Random(seed)
    return [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(count)]


class TestMultiIndex:
    def test_binomial_values(self):
        assert multi_binomial((2, 1), (1, 1)) == 2
        assert multi_binomial((3, 2), (2, 1)) == 6
        assert multi_binomial((4, 0, 2), (0, 0, 0)) == 1

    def test_binomial_requires_leq(self):
        with pytest.raises(DomainError):
            multi_binomial((1, 1), (2, 0))
        with pytest.raises(DomainError):
            multi_binomial((1, 1), (1,))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=3))
    def test_binomial_symmetry(self, pairs):
        alpha = tuple(max(a, b) for a, b in pairs)
        beta = tuple(min(a, b) for a, b in pairs)
        diff = tuple(a - b for a, b in zip(alpha, beta))
        assert multi_binomial(alpha, beta) == multi_binomial(alpha, diff)

    def test_lower_indices_order(self):
        assert lower_indices((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert lower_indices((0,)) == [(0,)]
        assert lower_indices((2,)) == [(0,), (1,), (2,)]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    def test_lower_indices_cardinality(self, alpha):
        alpha = tuple(alpha)
        count = 1
        for a in alpha:
            count *= a + 1
        out = lower_indices(alpha)
        assert len(out) == count
        assert len(set(out)) == count
        assert out == sorted(out)  # lexicographic

    @settings(max_examples=30, deadline=None)
    @given(rank=st.integers(1, 3), order=st.integers(0, 6))
    def test_indices_up_to_count(self, rank, order):
        # |{alpha in N^r : |alpha| <= N}| = C(N + r, r)
        assert len(indices_up_to(rank, order)) == math.comb(order + rank, rank)

    def test_indices_up_to_graded(self):
        idx = indices_up_to(2, 2)
        assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


class TestVerifyMomentSequence:
    def test_realline_family(self, realline):
        seq = realline_moments(0.7, 4)
        report = verify_moment_sequence(seq, seeded_real_pairs(50))
        assert report.passed
        assert report.worst_residual() <= 1e-9

    def test_realline_complex_lambda(self):
        seq = realline_moments(1 + 1j, 4)
        assert verify_moment_sequence(seq, seeded_real_pairs(50)).passed

    def test_chebyshev_derivative_family(self, cheb):
        seq = poly_derivative_moments(cheb, 0.3, 3)
        pairs = [(m, n) for m in range(9) for n in range(9)]
        report = verify_moment_sequence(seq, pairs)
        assert report.passed
        assert report.worst_residual() <= 1e-8

    def test_perturbed_entry_fails_at_its_order(self, realline):
        base = realline_moments(0.7, 4)
        x0 = 0.5

        def bump(x):
            return base.phi((1,))(x) + (1.0 if x == x0 else 0.0)

        entries = {alpha: base.phi(alpha) for alpha in base.alphas}
        entries[(1,)] = CFunction(bump)
        seq = MomentSequence.build(realline, 1, 4, entries)
        pairs = [(x0, 1.0), (1.0, -0.5), (x0, x0)]
        report = verify_moment_sequence(seq, pairs)
        assert not report.passed
        first_fail = next(r for r in report.records if r.status == "fail")
        assert first_fail.name == "moment-identity alpha=[1]"

    def test_values_past_the_floats_fail_without_warnings(self):
        # phi_k(700) = 700^k e^700 overflows: the identity of orders 2 and 3 fails, as a report under the
        # suite's error::RuntimeWarning filter, not a NumPy overflow or invalid-value warning
        report = verify_moment_sequence(realline_moments(1.0, 3), [(350.0, 350.0)])
        assert [r.status for r in report.records] == ["pass", "pass", "fail", "fail"]
        assert report.records[2].counterexample[:3] == [[2], 350.0, 350.0]

    def test_phi0_must_be_exponential(self, cheb):
        entries = {(0,): CFunction(lambda n: float(n)), (1,): CFunction.constant(0.0)}
        with pytest.raises(PreconditionError):
            MomentSequence.build(cheb, 1, 1, entries)

    def test_rank_two_lift(self, cheb):
        seq = rank_lift(poly_derivative_moments(cheb, 0.3, 2), [1.0, 0.5])
        pairs = [(m, n) for m in range(5) for n in range(5)]
        assert verify_moment_sequence(seq, pairs).passed

    def test_rank_lift_checks_phi0_once(self, cheb, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return is_exponential(*args, **kwargs)

        monkeypatch.setattr(moments, "is_exponential", counted)
        base = poly_derivative_moments(cheb, 0.3, 2)
        assert len(calls) == 1 and base.meta["phi0"] == "exponential verified"
        lifted = rank_lift(base, [1.0, 0.5])
        assert len(calls) == 1 and lifted.meta["phi0"] == "exponential verified"
        # a base built with the check skipped is checked by the lift
        unchecked = MomentSequence.build(cheb, 1, 2, base.entries, check_phi0=False)
        assert rank_lift(unchecked, [1.0, 0.5]).meta["phi0"] == "exponential verified"
        assert len(calls) == 2

    def test_rank_lift_of_unchecked_base_refuses_bad_phi0(self, cheb):
        entries = {(0,): CFunction(lambda n: float(n)), (1,): CFunction.constant(0.0)}
        unchecked = MomentSequence.build(cheb, 1, 1, entries, check_phi0=False)
        with pytest.raises(PreconditionError, match="phi_0 is not an exponential"):
            rank_lift(unchecked, [1.0, 0.5])


class TestDerivationFromMoments:
    def test_point_mass_evaluation(self, cheb):
        seq = poly_derivative_moments(cheb, 0.25, 3)
        fam = derivation_from_moments(seq)
        one = CFunction.constant(1.0)
        for alpha in fam.alphas:
            for x in range(6):
                assert pair(fam.op(alpha)(dirac(cheb, x)), one) == pytest.approx(
                    seq.phi(alpha)(x)
                )

    def test_classical_moments_at_lambda_zero(self, realline):
        seq = realline_moments(0.0, 3)
        fam = derivation_from_moments(seq, pairs=seeded_real_pairs(10))
        mu = Measure.from_items(realline, [(0.5, 2.0), (-1.25, 1j)])
        one = CFunction.constant(1.0)
        for k in range(4):
            classical = sum(w * x**k for x, w in mu.support)
            assert pair(fam.op((k,))(mu), one) == pytest.approx(classical)

    def test_d0_is_multiplicative(self, cheb):
        fam = derivation_from_moments(poly_derivative_moments(cheb, 0.3, 2))
        samples = [(dirac(cheb, x), dirac(cheb, y)) for x in range(4) for y in range(4)]
        assert is_multiplicative_hom(fam.op((0,)), samples).passed

    def test_each_operator_is_module_hom(self, cheb, cheb_measures):
        fam = derivation_from_moments(poly_derivative_moments(cheb, 0.5, 2))
        samples = [(mu, CFunction(lambda n: n + 1j)) for mu in cheb_measures]
        for alpha in fam.alphas:
            assert is_module_hom(fam.op(alpha), samples).passed

    def test_verification_gate(self, cheb):
        entries = {
            (0,): CFunction.constant(1.0),
            (1,): CFunction(lambda n: float(n) ** 3),
        }
        seq = MomentSequence.build(cheb, 1, 1, entries)
        with pytest.raises(PreconditionError):
            derivation_from_moments(seq)
        fam = derivation_from_moments(seq, skip_verification=True)
        assert fam.meta["verification"] == "skipped"

    def test_verification_gate_names_a_failing_alpha(self, cheb):
        # alpha (0, 1) fails on its NaN cases only, so its recorded residual (the worst of the other
        # cases) is below that of alpha (1, 0), which passes: the message names (0, 1)
        base = rank_lift(poly_derivative_moments(cheb, 0.3, 1), [1, 0.5j])
        entries = {(0, 0): base.phi((0, 0)), (1, 0): base.phi((1, 0)),
                   (0, 1): CFunction(lambda n: math.nan if n == 3 else base.phi((0, 1))(n))}
        with pytest.raises(PreconditionError, match=r"at moment-identity alpha=\[0, 1\] "):
            derivation_from_moments(MomentSequence.build(cheb, 2, 1, entries))


class TestVerifyLeibniz:
    def test_chebyshev_rank_two(self, cheb, rng):
        seq = rank_lift(poly_derivative_moments(cheb, 0.3, 2), [1.0, 0.5])
        fam = derivation_from_moments(seq)
        measures = [random_measure(cheb, rng, range(5), max_support=2) for _ in range(8)]
        samples = [(measures[i], measures[(i + 1) % 8]) for i in range(8)]
        assert verify_leibniz(fam, samples).passed

    def test_ordinary_derivation_on_realline(self, realline, dyadic_measures):
        # D_0 = id (phi_0 = 1 is the lambda = 0 exponential), D_1 = mult by cx
        entries = {
            (0,): make_module_hom(realline, CFunction.constant(1.0)),
            (1,): make_module_hom(realline, CFunction(lambda x: 0.7 * x)),
        }
        fam = DerivationFamily(realline, 1, 1, entries)
        samples = [(dyadic_measures[i], dyadic_measures[i + 1]) for i in range(4)]
        report = verify_leibniz(fam, samples)
        assert report.passed
        assert "order 1" in report.records[-1].detail

    def test_realline_group_case_allows_arbitrary_probes(self, realline, dyadic_measures):
        seq = realline_moments(0.3, 2)
        fam = derivation_from_moments(seq, pairs=seeded_real_pairs(10))
        samples = [(dyadic_measures[0], dyadic_measures[1])]
        probes = [CFunction.constant(1.0), CFunction(lambda x: x * x), CFunction(lambda x: cmath.exp(0.2j * x))]
        assert verify_leibniz(fam, samples, f_probe=probes).passed

    def test_non_moment_symbol_fails(self, cheb):
        entries = {
            (0,): make_module_hom(cheb, CFunction.constant(1.0)),
            (1,): make_module_hom(cheb, CFunction(lambda n: float(n) ** 3)),
        }
        fam = DerivationFamily(cheb, 1, 1, entries)
        samples = [(dirac(cheb, x), dirac(cheb, y)) for x in range(4) for y in range(4)]
        report = verify_leibniz(fam, samples)
        failed = [r.name for r in report.failed_records]
        assert failed == ["leibniz alpha=[1]"]

    def test_order_zero_matches_multiplicativity_check(self, cheb, cheb_measures):
        # the operator checks are the alpha = 0 and 1 rows of the Leibniz rule: the same residual and scale, bit for bit
        fam = derivation_from_moments(poly_derivative_moments(cheb, 0.4, 2))
        diracs = [(dirac(cheb, x), dirac(cheb, y)) for x in range(3) for y in range(3)]
        for samples in (diracs, list(zip(cheb_measures, cheb_measures[1:]))):
            leib = verify_leibniz(fam, samples)
            mult = is_multiplicative_hom(fam.op((0,)), samples)
            zero_row = next(r for r in leib.records if r.name == "leibniz alpha=[0]")
            assert (zero_row.status == "pass") == mult.passed
            assert (zero_row.residual, zero_row.scale) == (mult.records[0].residual, mult.records[0].scale)
            one_row = next(r for r in leib.records if r.name == "leibniz alpha=[1]")
            product = verify_d0_derivation(fam.op((0,)), fam.op((1,)), samples).records
            assert [r.name for r in product] == ["precondition: multiplicativity", "product-rule"]
            assert (one_row.residual, one_row.scale) == (product[1].residual, product[1].scale)
            assert (zero_row.residual, zero_row.scale) == (product[0].residual, product[0].scale)


class TestVerifyD0Derivation:
    def test_identity_d0_with_additive_symbol(self, realline, dyadic_measures):
        d0 = make_module_hom(realline, CFunction.constant(1.0))
        d = make_module_hom(realline, CFunction(lambda x: 1.5 * x))
        samples = [(dyadic_measures[0], dyadic_measures[1]), (dyadic_measures[2], dyadic_measures[3])]
        assert verify_d0_derivation(d0, d, samples).passed

    def test_zero_is_always_a_d0_derivation(self):
        hg = two_point(0.4)
        d0 = make_module_hom(hg, enumerate_exponentials(hg)[1])
        samples = [(dirac(hg, x), dirac(hg, y)) for x in range(2) for y in range(2)]
        assert verify_d0_derivation(d0, zero_operator(hg), samples).passed

    def test_square_symbol_fails(self, realline, dyadic_measures):
        d0 = make_module_hom(realline, CFunction.constant(1.0))
        d = make_module_hom(realline, CFunction(lambda x: x * x))
        samples = [(dyadic_measures[0], dyadic_measures[1])]
        report = verify_d0_derivation(d0, d, samples)
        assert not report.passed


class TestCorrespondenceBothDirections:
    def test_forward_then_back_round_trip(self, cheb):
        seq = poly_derivative_moments(cheb, 0.3, 3)
        fam = derivation_from_moments(seq)
        back = moments_from_derivation(fam, range(9))
        for alpha in seq.alphas:
            for n in range(9):
                assert back.phi(alpha)(n) == pytest.approx(seq.phi(alpha)(n), abs=1e-12)

    def test_derivation_built_by_hand_yields_moments(self, cheb, rng):
        z = 0.6
        entries = {
            (k,): make_module_hom(
                cheb, CFunction(lambda n, _k=k: cheb.eval_poly_derivative(n, z, _k))
            )
            for k in range(3)
        }
        cheb_ref = chebyshev()
        fam = DerivationFamily(cheb_ref, 1, 2, entries)
        measures = [random_measure(cheb_ref, rng, range(4), max_support=2) for _ in range(6)]
        samples = [(measures[i], measures[(i + 1) % 6]) for i in range(6)]
        assert verify_leibniz(fam, samples).passed
        seq = moments_from_derivation(fam, range(9))
        pairs = [(m, n) for m in range(4) for n in range(4)]
        report = verify_moment_sequence(seq, pairs)
        assert report.passed
        assert report.worst_residual() <= 1e-8

    def test_zero_family_recovers_zero_moments(self):
        hg = two_point(0.5)
        m = enumerate_exponentials(hg)[1]
        entries = {(0,): make_module_hom(hg, m), (1,): zero_operator(hg), (2,): zero_operator(hg)}
        fam = DerivationFamily(hg, 1, 2, entries)
        seq = moments_from_derivation(fam, range(2))
        assert seq.phi((0,))(1) == pytest.approx(m(1))
        assert seq.phi((1,))(0) == 0 and seq.phi((1,))(1) == 0
        assert seq.phi((2,))(1) == 0

    def test_corrupted_family_fails_both_at_same_alpha(self, cheb, rng):
        base = poly_derivative_moments(cheb, 0.3, 3)
        entries = {alpha: base.phi(alpha) for alpha in base.alphas}
        entries[(2,)] = entries[(2,)] + CFunction.constant(0.05)
        bad = MomentSequence.build(cheb, 1, 3, entries)
        pairs = [(m, n) for m in range(5) for n in range(5)]
        moment_report = verify_moment_sequence(bad, pairs)
        fam = derivation_from_moments(bad, skip_verification=True)
        samples = [(dirac(cheb, x), dirac(cheb, y)) for x, y in pairs]
        leibniz_report = verify_leibniz(fam, samples)
        first_moment = next(r.name for r in moment_report.records if r.status == "fail")
        first_leibniz = next(r.name for r in leibniz_report.records if r.status == "fail")
        assert first_moment == "moment-identity alpha=[2]"
        assert first_leibniz == "leibniz alpha=[2]"


class TestExtension:
    @pytest.mark.parametrize("theta", [0.1, 0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("which", [0, 1])
    def test_unique_zero_for_both_exponentials(self, theta, which):
        hg = two_point(theta)
        phi0 = enumerate_exponentials(hg)[which]
        sol = extend_moment_sequence(hg, {(0,): phi0}, (1,))
        assert sol.consistent
        assert sol.nullity == 0
        assert sol.rank == 2
        assert max(abs(v) for v in sol.particular) <= 1e-9
        assert sol.is_trivial()
        assert sol.describe() == "unique: zero"

    def test_nonexponential_phi0_precondition_error(self):
        hg = two_point(0.5)
        phi0 = CFunction.from_table({0: 1.0, 1: 0.5})  # 0.5 not in {1, -theta}
        with pytest.raises(PreconditionError):
            extend_moment_sequence(hg, {(0,): phi0}, (1,))

    def test_lower_entry_missing(self):
        hg = two_point(0.5)
        phi0 = enumerate_exponentials(hg)[0]
        with pytest.raises(DomainError, match="missing"):
            extend_moment_sequence(hg, {(0,): phi0}, (2,))

    def test_extension_system_over_the_dense_cap_is_refused(self):
        # Z_210 enumerates, but its least-squares matrix (44100 x 210) exceeds DENSE_CAP: refused before any check
        n = 210
        hg = FiniteHypergroup(n, 0, [(a, b, [((a + b) % n, 1.0)]) for a in range(n) for b in range(n)])
        phi0 = CFunction.from_table({x: 1.0 for x in range(n)})
        with pytest.raises(DomainError, match=r"extension system of shape \(44100, 210\) exceeds 8388608 entries"):
            extend_moment_sequence(hg, {(0,): phi0}, (1,))

    def test_infinite_carrier_rejected(self, cheb):
        with pytest.raises(DomainError):
            extend_moment_sequence(cheb, {(0,): CFunction.constant(1.0)}, (1,))

    def test_iterated_extension_order_three(self):
        hg = two_point(0.3)
        for phi0 in enumerate_exponentials(hg):
            report, entries = iterated_extension(hg, phi0, (3,))
            assert report.passed
            assert report.meta["trivial"] is True
            assert set(entries) == {(0,), (1,), (2,), (3,)}
            for alpha in ((1,), (2,), (3,)):
                assert all(abs(entries[alpha](x)) <= 1e-9 for x in range(2))

    @pytest.mark.parametrize("alpha", [(0,), (0, 0)])
    def test_iterated_extension_refuses_order_zero(self, alpha):
        hg = two_point(0.3)
        with pytest.raises(DomainError, match="alpha must have positive order"):
            iterated_extension(hg, enumerate_exponentials(hg)[0], alpha)

    def test_iterated_extension_rank_two(self):
        hg = two_point(0.5)
        phi0 = enumerate_exponentials(hg)[1]
        report, entries = iterated_extension(hg, phi0, (1, 1))
        assert report.passed and report.meta["trivial"] is True
        assert set(entries) == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestAffineSolutionSet:
    def test_trivial_logic(self):
        base = dict(points=(0, 1), rank=2, residual=0.0, scale=1.0)
        trivial = AffineSolutionSet(consistent=True, particular=(0j, 0j), nullspace=(), **base)
        assert trivial.is_trivial() and trivial.describe() == "unique: zero"
        nonzero = AffineSolutionSet(consistent=True, particular=(1 + 0j, 0j), nullspace=(), **base)
        assert not nonzero.is_trivial() and nonzero.describe() == "unique: nonzero"
        affine = AffineSolutionSet(
            consistent=True, particular=(0j, 0j), nullspace=((1 + 0j, 0j),), **base
        )
        assert not affine.is_trivial() and affine.describe() == "affine: dimension 1"
        bad = AffineSolutionSet(consistent=False, particular=None, nullspace=(), **base)
        assert not bad.is_trivial() and bad.describe() == "inconsistent"


def test_entry_lookups_keep_their_messages():
    # a tuple key is looked up as given; anything else, and every miss, goes through as_index,
    # so the messages are the ones as_index and the order check gave before
    seq = poly_derivative_moments(chebyshev(), 0.3, 3)
    family = derivation_from_moments(seq, skip_verification=True)
    for lookup, what in ((seq.phi, "entry"), (family.op, "operator")):
        for key, message in [
            ((), "multi-index must have rank >= 1"),
            ([], "multi-index must have rank >= 1"),
            ((-1,), "multi-index (-1,) has negative components"),
            (-1, "multi-index (-1,) has negative components"),
            ((0, 1), f"no {what} for multi-index (0, 1) (order 3)"),
            ([1, 0, 0], f"no {what} for multi-index (1, 0, 0) (order 3)"),
            ((4,), f"no {what} for multi-index (4,) (order 3)"),
            ((np.int64(4),), f"no {what} for multi-index (4,) (order 3)"),
            (7, f"no {what} for multi-index (7,) (order 3)"),
        ]:
            with pytest.raises(DomainError) as caught:
                lookup(key)
            assert str(caught.value) == message
        for key in ((2,), [2], 2, (np.int64(2),), (2.0,), (2.7,), np.array([2])):
            assert lookup(key) is (seq.entries if what == "entry" else family.entries)[(2,)]
