"""Carrier construction, point convolution, linearization, exponentials.

Oracle for everything Chebyshev: numpy.polynomial.chebyshev, an independent
implementation of the same polynomial family.
"""

from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as C

import hypermoment.hypergroups
from hypermoment import (
    DecompositionError,
    DomainError,
    FiniteHypergroup,
    PolynomialHypergroup,
    Tolerance,
    check_axioms,
    chebyshev,
    convolve_points,
    default_tolerance,
    enumerate_exponentials,
    eval_poly_derivative,
    is_exponential,
    linearization,
    real_line,
    set_default_tolerance,
    two_point,
)


def cheb_basis(n: int) -> list[float]:
    return [0.0] * n + [1.0]


class TestConvolvePoints:
    def test_chebyshev_one_one(self, cheb):
        mu = convolve_points(cheb, 1, 1)
        assert mu.support == ((0, 0.5 + 0j), (2, 0.5 + 0j))

    def test_identity_absorbs(self, cheb, realline):
        assert convolve_points(cheb, 0, 5).support == ((5, 1.0 + 0j),)
        assert convolve_points(realline, 0.0, 2.5).support == ((2.5, 1.0 + 0j),)

    def test_dtheta_forced_by_exponential(self):
        # delta_1 * delta_1 = theta d0 + (1-theta) d1 is the unique table whose
        # second exponential takes the value -theta at 1: t^2 = theta + (1-theta) t
        mu = convolve_points(two_point(0.3), 1, 1)
        assert mu.weight(0) == pytest.approx(0.3)
        assert mu.weight(1) == pytest.approx(0.7)

    def test_commutative_exactly(self, cheb):
        for x in range(6):
            for y in range(6):
                assert convolve_points(cheb, x, y) == convolve_points(cheb, y, x)

    def test_probability_weights(self, cheb):
        for x in range(8):
            for y in range(8):
                mu = convolve_points(cheb, x, y)
                assert abs(mu.total_mass() - 1.0) < 1e-12
                assert all(w.real >= -1e-12 for _, w in mu.support)

    def test_invalid_point(self, cheb):
        with pytest.raises(DomainError):
            convolve_points(cheb, -1, 2)
        with pytest.raises(DomainError):
            convolve_points(two_point(0.5), 2, 0)


class TestLinearization:
    def test_frozen_chebyshev_values(self, cheb):
        assert linearization(cheb, 2, 3) == ((1, 0.5), (5, 0.5))
        assert linearization(cheb, 1, 1) == ((0, 0.5), (2, 0.5))
        assert linearization(cheb, 0, 7) == ((7, 1.0),)

    def test_against_numpy_chebmul(self, cheb):
        for m in range(9):
            for n in range(9):
                got = dict(linearization(cheb, m, n))
                expected = C.chebmul(cheb_basis(m), cheb_basis(n))
                for l, c in got.items():
                    assert c == pytest.approx(expected[l], abs=1e-14)
                assert sum(got.values()) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(0, 12),
        n=st.integers(0, 12),
        re=st.floats(-1, 1),
        im=st.floats(-1, 1),
    )
    def test_product_identity_in_unit_disk(self, m, n, re, im):
        hg = chebyshev()
        z = complex(re, im)
        lhs = sum(c * hg.eval_poly_derivative(l, z, 0) for l, c in linearization(hg, m, n))
        rhs = hg.eval_poly_derivative(m, z, 0) * hg.eval_poly_derivative(n, z, 0)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))

    def test_support_window(self, cheb):
        for m in range(7):
            for n in range(7):
                for l, _ in linearization(cheb, m, n):
                    assert abs(n - m) <= l <= n + m

    def test_negative_index_rejected(self, cheb):
        with pytest.raises(DomainError):
            linearization(cheb, -1, 0)

    def test_non_hypergroup_recurrence_reported(self):
        # rows that sum to 1 but produce a negative linearization coefficient
        hg = PolynomialHypergroup(0.25, 0.75, lambda n: (0.05, 0.9, 0.05))
        with pytest.raises(DomainError, match="negative coefficient"):
            for m in range(2, 8):
                hg.linearization(m, m)

    def test_explicit_row_list_exhaustion(self):
        hg = PolynomialHypergroup(1.0, 0.0, [(0.5, 0.0, 0.5)] * 3)
        hg.linearization(1, 3)
        with pytest.raises(DomainError, match="rows"):
            hg.linearization(1, 4)


class TestEvalPolyDerivative:
    def test_frozen_values(self, cheb):
        assert eval_poly_derivative(cheb, 2, 0.5, 0) == pytest.approx(-0.5)
        assert eval_poly_derivative(cheb, 3, 0.0, 1) == pytest.approx(-3.0)
        assert eval_poly_derivative(cheb, 0, 1.7 + 0.3j, 1) == 0

    def test_against_numpy_chebder(self, cheb, rng):
        for _ in range(25):
            n = rng.randrange(0, 10)
            k = rng.randrange(0, 4)
            z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            expected = C.chebval(z, C.chebder(cheb_basis(n), k)) if k <= n else 0.0
            got = eval_poly_derivative(cheb, n, z, k)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_matches_finite_differences(self, cheb):
        h = 1e-5
        for n in range(9):
            for k in range(1, 4):
                for z in (0.3, -0.8, 1.4):
                    fd = (
                        eval_poly_derivative(cheb, n, z + h, k - 1)
                        - eval_poly_derivative(cheb, n, z - h, k - 1)
                    ) / (2 * h)
                    exact = eval_poly_derivative(cheb, n, z, k)
                    assert abs(fd - exact) <= 1e-4 * max(1.0, abs(exact))

    def test_normalization_at_one(self, cheb):
        for n in range(51):
            assert eval_poly_derivative(cheb, n, 1.0, 0) == pytest.approx(1.0, abs=1e-9)


class TestCheckAxioms:
    def test_chebyshev_passes(self, cheb):
        report = check_axioms(cheb, sample_bound=8)
        assert report.passed, report.summary()

    def test_dtheta_passes(self):
        for theta in (0.1, 0.3, 0.5, 0.9, 1.0):
            assert check_axioms(two_point(theta), sample_bound=2).passed

    def test_realline_passes(self, realline):
        assert check_axioms(realline, sample_bound=6).passed

    def test_s3_class_hypergroup_passes(self, s3_classes):
        assert check_axioms(s3_classes, sample_bound=3).passed

    def test_broken_normalization_names_row(self):
        table = {
            (0, 0): [(0, 1.0)],
            (0, 1): [(1, 1.0)],
            (1, 0): [(1, 1.0)],
            (1, 1): [(0, 0.4), (1, 0.5)],  # sums to 0.9
        }
        hg = FiniteHypergroup(2, 0, table)
        report = check_axioms(hg, sample_bound=2)
        assert not report.passed
        rec = {r.name: r for r in report.records}["normalization"]
        assert rec.status == "fail"
        assert rec.counterexample[:2] == [1, 1]

    def test_broken_commutativity_detected(self):
        table = {
            (0, 0): [(0, 1.0)],
            (0, 1): [(1, 1.0)],
            (1, 0): [(0, 0.5), (1, 0.5)],
            (1, 1): [(0, 1.0)],
        }
        hg = FiniteHypergroup(2, 0, table)
        report = check_axioms(hg, sample_bound=2)
        names = {r.name: r.status for r in report.records}
        assert names["commutativity"] == "fail"

    def test_bad_recurrence_reported_not_raised(self):
        hg = PolynomialHypergroup(0.25, 0.75, lambda n: (0.05, 0.9, 0.05))
        report = check_axioms(hg, sample_bound=6)
        assert not report.passed

    def test_global_tolerance_override(self):
        table = {
            (0, 0): [(0, 1.0)],
            (0, 1): [(1, 1.0)],
            (1, 1): [(0, 0.5), (1, 0.5 - 1e-6)],
        }
        hg = FiniteHypergroup(2, 0, table)
        assert not check_axioms(hg, sample_bound=2).passed
        previous = default_tolerance()
        try:
            set_default_tolerance(Tolerance(rel=1e-4))
            assert check_axioms(hg, sample_bound=2).passed
        finally:
            set_default_tolerance(previous)


class TestEnumerateExponentials:
    def test_dtheta_values(self):
        for theta in (0.3, 0.5, 1.0):
            hg = two_point(theta)
            expos = enumerate_exponentials(hg)
            assert len(expos) == 2
            m0, m1 = expos
            assert m0(0) == pytest.approx(1.0) and m0(1) == pytest.approx(1.0)
            assert m1(0) == pytest.approx(1.0)
            assert m1(1) == pytest.approx(-theta, abs=1e-9)
            pairs = [(x, y) for x in range(2) for y in range(2)]
            assert all(is_exponential(hg, m, pairs).passed for m in expos)

    def test_all_satisfy_exponential_equation(self, s3_classes):
        expos = enumerate_exponentials(s3_classes)
        assert len(expos) == 3
        pairs = [(x, y) for x in range(3) for y in range(3)]
        for m in expos:
            assert is_exponential(s3_classes, m, pairs).passed

    def test_s3_sign_and_standard_characters(self, s3_classes):
        values = sorted(
            tuple(round(m(x).real, 9) for x in range(3))
            for m in enumerate_exponentials(s3_classes)
        )
        assert values == [(1.0, -1.0, 1.0), (1.0, 0.0, -0.5), (1.0, 1.0, 1.0)]

    def test_non_semisimple_translation_algebra_reported(self):
        # not a hypergroup: T_1 is a defective stochastic matrix (eigenvalue
        # 1/2 with a one-dimensional eigenspace), so no joint eigenbasis exists
        table = {
            (0, 0): [(0, 1.0)],
            (0, 1): [(1, 1.0)],
            (0, 2): [(2, 1.0)],
            (1, 0): [(0, 0.5), (1, 0.5)],
            (1, 1): [(1, 0.5), (2, 0.5)],
            (1, 2): [(2, 1.0)],
            (2, 0): [(2, 1.0)],
            (2, 1): [(2, 1.0)],
            (2, 2): [(2, 1.0)],
        }
        hg = FiniteHypergroup(3, 0, table)
        with pytest.raises(DecompositionError, match="semisimple"):
            enumerate_exponentials(hg)

    def test_no_candidate_left_is_a_decomposition_error(self):
        # every pair convolves to d0: the first joint eigenvector vanishes at the identity, so no
        # candidate is re-verified (the reshape of zero candidates once raised a bare ValueError)
        hg = FiniteHypergroup(2, 0, [(x, y, [(0, 1.0)]) for x in range(2) for y in range(2)])
        with pytest.raises(DecompositionError, match="joint eigenvector vanishes at the identity"):
            enumerate_exponentials(hg)

    def test_cyclic_group_past_the_old_tensor_cap(self):
        # Z_210, the smallest cyclic group whose n^3 tensor exceeded DENSE_CAP: its characters e^{2 pi i j x / n}
        n = 210
        hg = FiniteHypergroup(n, 0, [(a, b, [((a + b) % n, 1.0)]) for a in range(n) for b in range(n)])
        expos = enumerate_exponentials(hg)
        js = sorted(round(cmath.phase(m(1)) * n / (2 * math.pi)) % n for m in expos)
        assert js == list(range(n))
        for m in expos:
            j = round(cmath.phase(m(1)) * n / (2 * math.pi))
            assert all(abs(m(x) - cmath.exp(2j * math.pi * j * x / n)) <= 1e-9 for x in range(n))

    def test_re_verification_fails_when_any_case_fails(self, monkeypatch):
        # point 2a + b is (a, b) in the product of two scaled Z_2 tables, d1*d1 = 3 d0 and
        # d1*d1 = 3e5 d0, weights multiplied.  Under rel 1e-18 the absolute floor exceeds
        # rel * scale, so the case of largest residual/scale passes while others fail:
        # is_exponential fails every candidate, so the enumeration must refuse them all
        table = [
            (x, y, [(x ^ y, (3.0 if x & y & 2 else 1.0) * (3e5 if x & y & 1 else 1.0))])
            for x in range(4) for y in range(4)
        ]
        hg, tol = FiniteHypergroup(4, 0, table), Tolerance(rel=1e-18)
        pairs = [(x, y) for x in range(4) for y in range(4)]
        assert len(enumerate_exponentials(hg)) == 4
        assert not any(is_exponential(hg, m, pairs, tol).passed for m in enumerate_exponentials(hg))
        with pytest.raises(DecompositionError, match="re-verification") as whole:
            enumerate_exponentials(hg, tol=tol)
        monkeypatch.setattr(hypermoment.hypergroups, "BLOCK_ENTRIES", 1)  # one candidate per block
        with pytest.raises(DecompositionError) as blocked:
            enumerate_exponentials(hg, tol=tol)
        assert str(blocked.value) == str(whole.value)


class TestConstruction:
    def test_theta_range(self):
        with pytest.raises(DomainError):
            two_point(0.0)
        with pytest.raises(DomainError):
            two_point(1.5)

    def test_polynomial_parameter_validation(self):
        with pytest.raises(DomainError):
            PolynomialHypergroup(0.0, 1.0, lambda n: (0.5, 0.0, 0.5))
        with pytest.raises(DomainError):
            PolynomialHypergroup(0.5, 0.2, lambda n: (0.5, 0.0, 0.5))

    def test_missing_table_entry(self):
        with pytest.raises(DomainError, match="missing"):
            FiniteHypergroup(2, 0, {(0, 0): [(0, 1.0)], (1, 1): [(0, 1.0)]})

    def test_symmetric_table_given_once(self):
        hg = FiniteHypergroup(
            2,
            0,
            {(0, 0): [(0, 1.0)], (0, 1): [(1, 1.0)], (1, 1): [(0, 0.5), (1, 0.5)]},
        )
        assert convolve_points(hg, 1, 0) == convolve_points(hg, 0, 1)

    def test_structural_equality(self):
        assert two_point(0.5) == two_point(0.5)
        assert two_point(0.5) != two_point(0.4)
        assert chebyshev() == chebyshev()
        assert real_line() == real_line()
