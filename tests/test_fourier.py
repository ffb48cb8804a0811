"""Transforms, basis conversion, transfer of derivations, Taylor formula.

Oracles: numpy.polynomial.chebyshev.cheb2poly for Chebyshev basis conversion,
chebval/legval with chebder/legder for values and derivatives of transforms.
"""

from __future__ import annotations

import cmath
import json
import math
import random

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from numpy.polynomial import legendre as L

from hypermoment import (
    CFunction,
    DerivationFamily,
    DomainError,
    Measure,
    MomentSequence,
    PolynomialHypergroup,
    Report,
    Tolerance,
    chebyshev,
    convolve,
    derivation_from_moments,
    derivative_moments,
    dirac,
    fourier_derivative_identity,
    hat_derivation,
    legendre,
    make_module_hom,
    module_action,
    p_to_monomial,
    pair,
    poly_derivative_moments,
    poly_residual,
    rank_lift,
    realline_moments,
    taylor_reconstruct,
    transform,
    transform_derivatives,
    transform_eval,
    verify_fourier_leibniz,
    verify_leibniz,
    verify_transform_multiplicativity,
)
from hypermoment.cli import main
from hypermoment.fourier import TransformPoly, _monomial_rows, check_derivative_identity
from tests.conftest import random_measure
from tests.test_pipeline import gegenbauer


class TestPToMonomial:
    def test_frozen_values(self, cheb):
        assert p_to_monomial(cheb, 0) == (1.0,)
        assert p_to_monomial(cheb, 2) == (-1.0, 0.0, 2.0)
        assert p_to_monomial(cheb, 3) == (0.0, -3.0, 0.0, 4.0)

    def test_against_numpy_cheb2poly(self, cheb):
        for n in range(12):
            expected = C.cheb2poly([0.0] * n + [1.0])
            got = p_to_monomial(cheb, n)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert a == pytest.approx(b, abs=1e-12)

    def test_cross_check_against_recurrence_eval(self, cheb, rng):
        for _ in range(15):
            n = rng.randrange(0, 12)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            mono = p_to_monomial(cheb, n)
            horner = sum(c * z**j for j, c in enumerate(mono))
            direct = cheb.eval_poly_derivative(n, z, 0)
            assert horner == pytest.approx(direct, rel=1e-9, abs=1e-9)


def reference_p_to_monomial(hg, n: int) -> tuple[float, ...]:
    """The monomial coefficients of P_n from a run of their own, from P_0 to P_n."""
    prev = [1.0]
    if n == 0:
        return tuple(prev)
    cur = [-hg.b0 / hg.a0, 1.0 / hg.a0]
    for m in range(1, n):
        a, b, c = hg.coefficient_row(m)
        nxt = [0.0] * (m + 2)
        for j, v in enumerate(cur):
            nxt[j + 1] += v / hg.a0
            nxt[j] -= v * hg.b0 / hg.a0
            nxt[j] -= b * v
        for j, v in enumerate(prev):
            nxt[j] -= c * v
        prev, cur = cur, [v / a for v in nxt]
    return tuple(cur)


def reference_transform_coeffs(hg, mu: Measure) -> tuple[complex, ...]:
    """`transform` as a run per support point, its rows summed in support order."""
    coeffs: list[complex] = []
    for n, w in mu.support:
        mono = reference_p_to_monomial(hg, n)
        coeffs.extend([0j] * (len(mono) - len(coeffs)))
        for j, v in enumerate(mono):
            coeffs[j] += w * v
    return TransformPoly.from_coeffs(hg, coeffs).coeffs


@pytest.mark.parametrize("hg", [chebyshev(), legendre(), PolynomialHypergroup(0.6, 0.4, [(0.4, 0.2, 0.4)] * 130)],
                         ids=["chebyshev", "legendre", "rows"])
def test_one_monomial_run_matches_a_run_per_point(hg):
    rows, ns = list(_monomial_rows(hg, 120)), [*range(21), *range(27, 121, 13), 119, 120]
    assert [repr(tuple(rows[n])) for n in ns] == [repr(reference_p_to_monomial(hg, n)) for n in ns]
    assert repr(p_to_monomial(hg, 120)) == repr(reference_p_to_monomial(hg, 120))
    rng = random.Random(7)
    for top in (0, 5, 60, 120):
        points = sorted({top, *rng.sample(range(top + 1), min(2, top + 1))})
        mu = Measure.from_items(hg, [(n, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for n in points])
        assert repr(transform(hg, mu).coeffs) == repr(reference_transform_coeffs(hg, mu))
    assert transform(hg, Measure.from_items(hg, [])).coeffs == ()


def test_one_monomial_run_meets_an_invalid_row_as_a_run_per_point():
    rows = [(0.5, 0.0, 0.5)] * 6 + [(0.5, 0.1, 0.5)] + [(0.5, 0.0, 0.5)] * 10  # row 7 sums to 1.1
    hg = PolynomialHypergroup(1.0, 0.0, rows)
    mu = Measure.from_items(hg, [(3, 1.0), (9, 0.5)])
    with pytest.raises(DomainError) as want:
        reference_transform_coeffs(hg, mu)
    with pytest.raises(DomainError) as got:
        transform(hg, mu)
    assert str(got.value) == str(want.value) and str(want.value).startswith("row 7:")


class TestTransform:
    def test_frozen_values(self, cheb):
        assert transform(cheb, dirac(cheb, 0)).coeffs == (1 + 0j,)
        assert transform(cheb, dirac(cheb, 2)).coeffs == (-1 + 0j, 0j, 2 + 0j)
        mu = dirac(cheb, 1) + dirac(cheb, 2)
        assert transform(cheb, mu).coeffs == (-1 + 0j, 1 + 0j, 2 + 0j)

    def test_linearity_exact(self, cheb, cheb_measures, rng):
        mu, nu = cheb_measures[:2]
        zs = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1)) for _ in range(8)]
        lhs = transform_derivatives(cheb, 2j * mu + (-0.5) * nu, 3, zs)
        rhs = 2j * transform_derivatives(cheb, mu, 3, zs) + (-0.5) * transform_derivatives(cheb, nu, 3, zs)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(rhs)))

    def test_evaluation_matches_pairing(self, cheb, cheb_measures, rng):
        for mu in cheb_measures[:3]:
            zs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
            zs = [z / max(1.0, abs(z) / 2.0) for z in zs]  # keep |z| <= 2
            values = transform_derivatives(cheb, mu, 0, zs)[0]
            for z, value in zip(zs, values):
                via_pair = pair(mu, CFunction(lambda n: cheb.eval_poly_derivative(n, z, 0)))
                assert value == pytest.approx(via_pair, rel=1e-9, abs=1e-9)

    def test_realline_rejected(self, realline):
        with pytest.raises(DomainError):
            transform(realline, dirac(realline, 1.0))

    def test_degree_bound(self, cheb):
        mu = Measure.from_items(cheb, [(5, 1.0), (2, 1j)])
        assert transform(cheb, mu).degree <= 5


class TestTransformDerivatives:
    """mu^(i)(z) from the backward recurrence on the P-basis weights."""

    @pytest.mark.parametrize("make,val,der", [(chebyshev, C.chebval, C.chebder), (legendre, L.legval, L.legder)])
    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 36, 60, 72, 120, 200])
    def test_against_numpy_series(self, make, val, der, degree, rng):
        hg = make()
        weights = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree + 1)]
        zs = np.array([complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1)) for _ in range(6)] + [1.0, -1.0, 0.3])
        got = transform_derivatives(hg, Measure.from_items(hg, list(enumerate(weights))), 3, zs)
        # the oracle runs in extended precision: in doubles, chebder of a degree-200 series
        # loses about 2e-12 at k = 3, where this recurrence stays near 1e-15 (checked with mpmath)
        wide, series = zs.astype(np.clongdouble), np.array(weights, dtype=np.clongdouble)
        for k in range(4):
            want = val(wide, der(series, k)).astype(complex) if k <= degree else np.zeros(len(zs))
            assert np.all(np.abs(got[k] - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), k

    @pytest.mark.parametrize("lam", [0.8, 2.5])
    def test_gegenbauer_against_derivative_moments(self, lam, rng):
        hg = gegenbauer(lam)
        for degree in (0, 1, 7, 40, 120):
            points = sorted({degree, *rng.sample(range(degree + 1), min(degree, 4))})
            mu = Measure.from_items(hg, [(n, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for n in points])
            for z in (rng.uniform(-1, 1), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))):
                got = transform_derivatives(hg, mu, 3, [z])[:, 0]
                want = np.array(derivative_moments(hg, mu, 3, z))
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("make", [chebyshev, legendre, lambda: gegenbauer(0.8), lambda: gegenbauer(2.5)])
    def test_derivative_identity_up_to_degree_200(self, make, rng):
        hg = make()
        for degree in range(201):
            mu = Measure.from_items(hg, [(degree, 1.0), (rng.randrange(degree + 1), complex(rng.uniform(-1, 1), 0.5))])
            z = rng.uniform(-1, 1) if degree % 2 else cmath.rect(rng.uniform(0, 1.5), rng.uniform(-math.pi, math.pi))
            report = Report(title="t")
            check_derivative_identity(report, hg, mu, range(4), z, Tolerance())
            assert report.passed, (degree, z)

    @pytest.mark.parametrize("extra,want", [(["--measure", "[[60,1]]"], 0.0317895924173880),
                                            (["--measure", "[[3,0.5],[200,1]]", "--k", "3"], 0.22698251415923615)])
    def test_high_degree_legendre_cli(self, extra, want, capsys):
        # evaluating monomial coefficients of size 1e21 once gave 2840.6 for P_60(0.9) and a false FAIL
        argv = ["transform", "--hypergroup", "legendre", "--z", "0.9", *extra]
        assert main(argv + ["--format", "json"]) == 0
        value = json.loads(capsys.readouterr().out)["meta"]["value"]
        assert value == pytest.approx([want, 0.0], rel=1e-12, abs=1e-15)

    def test_off_polynomial_carriers_refused(self, realline, cheb):
        with pytest.raises(DomainError, match="needs a polynomial hypergroup"):
            transform_derivatives(realline, dirac(realline, 1.0), 0, [0.0])
        with pytest.raises(DomainError, match="derivative order must be nonnegative"):
            transform_derivatives(cheb, dirac(cheb, 1), -1, [0.0])


class TestTransformMultiplicativity:
    def test_frozen_examples(self, cheb):
        d1, d2 = dirac(cheb, 1), dirac(cheb, 2)
        assert transform(cheb, convolve(d1, d1)).coeffs == (0j, 0j, 1 + 0j)
        assert transform(cheb, convolve(d1, d2)).coeffs == (0j, -1 + 0j, 0j, 2 + 0j)
        assert verify_transform_multiplicativity(cheb, d1, d1).passed
        assert verify_transform_multiplicativity(cheb, d1, d2).passed

    def test_unit_measure(self, cheb, cheb_measures):
        assert verify_transform_multiplicativity(cheb, dirac(cheb, 0), cheb_measures[0]).passed

    def test_random_measures(self, cheb, cheb_measures):
        for i in range(len(cheb_measures) - 1):
            assert verify_transform_multiplicativity(
                cheb, cheb_measures[i], cheb_measures[i + 1]
            ).passed


class TestHatDerivation:
    def test_order_zero_with_unit_symbol(self, cheb, cheb_measures):
        fam = DerivationFamily(
            cheb, 1, 0, {(0,): make_module_hom(cheb, CFunction.constant(1.0))}
        )
        for mu in cheb_measures[:3]:
            res, scl = poly_residual(hat_derivation(fam, mu, (0,)), transform(cheb, mu))
            assert res <= 1e-12 * scl

    def test_derivative_family_at_zero(self, cheb):
        fam = derivation_from_moments(poly_derivative_moments(cheb, 0.0, 2))
        assert hat_derivation(fam, dirac(cheb, 2), (1,)).coeffs == ()  # T_2'(0) = 0
        assert hat_derivation(fam, dirac(cheb, 1), (1,)).coeffs == (0j, 1 + 0j)  # z


class TestFourierLeibniz:
    def test_derivative_family_passes(self, cheb, rng):
        fam = derivation_from_moments(poly_derivative_moments(cheb, 0.3, 3))
        measures = [random_measure(cheb, rng, range(5), max_support=2) for _ in range(10)]
        samples = [(measures[i], measures[(i + 1) % 10]) for i in range(10)]
        assert verify_fourier_leibniz(fam, samples).passed

    def test_failing_family_fails_at_same_alpha(self, cheb):
        entries = {
            (0,): make_module_hom(cheb, CFunction.constant(1.0)),
            (1,): make_module_hom(cheb, CFunction(lambda n: 2.0**n)),
        }
        fam = DerivationFamily(cheb, 1, 1, entries)
        samples = [(dirac(cheb, x), dirac(cheb, y)) for x in range(4) for y in range(4)]
        measure_side = verify_leibniz(fam, samples)
        transform_side = verify_fourier_leibniz(fam, samples)
        assert not measure_side.passed and not transform_side.passed
        assert [r.name.split("=")[1] for r in measure_side.failed_records] == [
            r.name.split("=")[1] for r in transform_side.failed_records
        ]

    def test_equivalence_with_measure_side(self, cheb, rng):
        fam = derivation_from_moments(poly_derivative_moments(cheb, -0.4, 2))
        measures = [random_measure(cheb, rng, range(4), max_support=2) for _ in range(6)]
        samples = [(measures[i], measures[(i + 1) % 6]) for i in range(6)]
        assert verify_leibniz(fam, samples).passed == verify_fourier_leibniz(fam, samples).passed


class TestFourierLeibnizHighDegree:
    """Samples holding the point 12 or 30 convolve to degree 24 or 60, where the
    monomial coefficients of a transform evaluated at z = 1 cancel to a false FAIL."""

    @staticmethod
    def family(hg, order, rank, eps=None):
        seq = poly_derivative_moments(hg, complex(0.35, -0.2), order)
        if rank == 2:
            seq = rank_lift(seq, [1.0, complex(0.5, 0.25)])
        if eps is not None:
            entries = dict(seq.entries)
            entries[(1,) * rank] = entries[(1,) * rank] + CFunction.constant(eps)
            seq = MomentSequence.build(hg, rank, order, entries, check_phi0=False)
        return derivation_from_moments(seq, skip_verification=True)

    @staticmethod
    def samples(hg, top, rng):
        ms = [Measure.from_items(hg, [(top, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),
                                      (rng.randrange(top), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))])
              for _ in range(6)]
        return [(ms[i], ms[(i + 1) % 6]) for i in range(6)]

    @pytest.mark.parametrize("make", [chebyshev, legendre])
    @pytest.mark.parametrize("order,rank", [(2, 1), (3, 2)])
    @pytest.mark.parametrize("top", [12, 30])
    def test_valid_family_passes(self, make, order, rank, top, rng):
        hg = make()
        fam, samples = self.family(hg, order, rank), self.samples(hg, top, rng)
        assert verify_leibniz(fam, samples).passed
        assert verify_fourier_leibniz(fam, samples).passed

    @pytest.mark.parametrize("make", [chebyshev, legendre])
    @pytest.mark.parametrize("top", [12, 30])
    def test_perturbed_family_fails_at_the_measure_side_alpha(self, make, top, rng):
        hg = make()
        fam, samples = self.family(hg, 3, 2, eps=0.05), self.samples(hg, top, rng)
        measure_side, transform_side = verify_leibniz(fam, samples), verify_fourier_leibniz(fam, samples)
        assert not measure_side.passed
        failed = [r.name.split("=")[1] for r in measure_side.failed_records]
        assert failed[0] == "[1, 1]"
        assert [r.name.split("=")[1] for r in transform_side.failed_records] == failed


class TestDerivativeIdentity:
    def test_frozen_values(self, cheb):
        assert fourier_derivative_identity(cheb, dirac(cheb, 2), 2, 0.0).passed
        assert transform_derivatives(cheb, dirac(cheb, 2), 2, [0.0])[2, 0] == 4.0
        mu = dirac(cheb, 1) + dirac(cheb, 2)
        report = fourier_derivative_identity(cheb, mu, 1, 0.5)
        assert report.passed
        assert transform_derivatives(cheb, mu, 1, [0.5])[1, 0] == pytest.approx(3.0)

    def test_order_zero_is_evaluation(self, cheb, cheb_measures):
        for mu in cheb_measures[:3]:
            assert fourier_derivative_identity(cheb, mu, 0, 0.7 + 0.1j).passed

    def test_random_orders_and_points(self, cheb, cheb_measures, rng):
        for mu in cheb_measures[:3]:
            for _ in range(5):
                k = rng.randrange(0, 5)
                z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1))
                assert fourier_derivative_identity(cheb, mu, k, z).passed


class TestTaylor:
    def test_frozen_reconstruction(self, cheb):
        rebuilt = taylor_reconstruct(cheb, [-1.0, 0.0, 4.0])
        assert rebuilt.coeffs == (-1 + 0j, 0j, 2 + 0j)
        assert taylor_reconstruct(cheb, [1.0, 0.0]).coeffs == (1 + 0j,)
        combined = taylor_reconstruct(cheb, [-1.0, 1.0, 4.0])
        assert combined.coeffs == (-1 + 0j, 1 + 0j, 2 + 0j)

    def test_round_trip_from_derivative_moments(self, cheb, rng):
        for _ in range(10):
            mu = random_measure(cheb, rng, range(7), max_support=4)
            top = max(mu.points, default=0)
            values = derivative_moments(cheb, mu, top, z=0.0)
            res, scl = poly_residual(taylor_reconstruct(cheb, values), transform(cheb, mu))
            assert res <= 1e-9 * scl

    def test_truncation(self, cheb):
        values = derivative_moments(cheb, dirac(cheb, 3), 3, z=0.0)
        truncated = taylor_reconstruct(cheb, values, degree=1)
        assert truncated.degree <= 1


class TestModuleActionCompatibility:
    def test_transform_of_reweighted_measure(self, cheb, cheb_measures):
        phi = CFunction(lambda n: n + 0.5j)
        fam = derivation_from_moments(poly_derivative_moments(cheb, 0.3, 1))
        d1 = fam.op((1,))
        for mu in cheb_measures[:3]:
            # transferred module homogeneity: D(phi mu)^ = (phi D mu)^
            lhs = transform(cheb, d1(module_action(phi, mu)))
            rhs = transform(cheb, module_action(phi, d1(mu)))
            res, scl = poly_residual(lhs, rhs)
            assert res <= 1e-12 * scl


class TestTransformEval:
    def test_mass_at_zero(self, realline, dyadic_measures):
        for mu in dyadic_measures[:3]:
            assert transform_eval(mu)(0.0) == pytest.approx(mu.total_mass())

    def test_derivative_is_the_moment_pairing(self, realline, dyadic_measures):
        # the k-th derivative of the transform at lambda is <D_k mu, 1> for the moment
        # family at lambda, D_k multiplication by phi_k(x) = x^k e^{lambda x}
        for lam in (0.4, -1.5 + 0.25j):
            seq = realline_moments(lam, 4, realline)
            for mu in dyadic_measures[:3]:
                hat = transform_eval(mu)
                assert hat.derivative(lam, 0) == pytest.approx(hat(lam), rel=1e-15)
                for k in range(5):
                    assert hat.derivative(lam, k) == pair(mu, seq.phi((k,)))

    def test_polynomial_carrier_rejected(self, cheb):
        with pytest.raises(DomainError):
            transform_eval(dirac(cheb, 1))


class TestTransformPolyOps:
    def test_pretty(self, cheb):
        assert transform(cheb, dirac(cheb, 2)).pretty() == "-1 + 2*z^2"
        assert TransformPoly.from_coeffs(cheb, []).pretty() == "0"
        assert TransformPoly.from_coeffs(cheb, [0, 1]).pretty() == "z"


class TestFloatRange:
    """A transform whose monomial coefficients, derivative moments, P-basis
    derivatives or Taylor factorials leave the float range is refused, not checked."""

    def test_taylor_with_overflowing_derivative_moments_is_refused(self, capsys):
        # P_n^(k)(0) = k! c_k is above the float range from k = 148 at n = 160;
        # the reconstruction once passed with residual 4.5e44
        argv = ["transform", "--hypergroup", "chebyshev", "--measure", "[[160,1]]", "--taylor"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: derivative moments up to order 160 at z=0j leave the float range\n"

    def test_taylor_past_the_factorial_range_is_refused(self, capsys):
        # 171! is above the float range; this once ended in an OverflowError traceback
        assert main(["transform", "--hypergroup", "chebyshev", "--measure", "[[175,1]]", "--taylor"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        with pytest.raises(DomainError, match=r"factorials up to 171! leave the float range"):
            taylor_reconstruct(chebyshev(), [1.0] * 172)
        assert taylor_reconstruct(chebyshev(), [1.0] * 171).degree == 170

    def test_multiplicativity_with_overflowing_coefficients_is_refused(self, capsys):
        # the monomial coefficients of T_1100 are about 2^1099, so `transform` and its CLI refuse them;
        # the multiplicativity check reads values at its d + 1 points and forms no coefficients
        cheb = chebyshev()
        assert verify_transform_multiplicativity(cheb, dirac(cheb, 1100), dirac(cheb, 1)).passed
        zs = np.cos(np.pi * np.arange(1102) / 1101)
        for n in (1101, 1100):
            got = transform_derivatives(cheb, dirac(cheb, n), 0, zs)[0]
            assert np.max(np.abs(got - C.chebval(zs, [0.0] * n + [1.0]))) <= 1e-12
        assert verify_transform_multiplicativity(cheb, dirac(cheb, 60), dirac(cheb, 1)).passed
        assert main(["transform", "--hypergroup", "chebyshev", "--measure", "[[1100,1]]"]) == 2
        err = capsys.readouterr().err
        assert err == "error: transform of degree 1100: monomial coefficients leave the float range\n"

    def test_derivative_identity_with_overflowing_moments_is_refused(self):
        cheb = chebyshev()
        with pytest.raises(DomainError, match="derivative moments up to order 150"):
            fourier_derivative_identity(cheb, dirac(cheb, 160), 150, 0.0)

    def test_overflowing_p_basis_derivatives_are_refused(self):
        # T_160^(150)(0) = 150! c_150 is above the float range: a DomainError, not a NaN residual
        cheb = chebyshev()
        with pytest.raises(DomainError, match=r"transform derivatives up to order 150 at z=0j leave the float range"):
            transform_derivatives(cheb, dirac(cheb, 160), 150, [0.0])


class TestPolyResidual:
    def test_nan_and_inf_propagate(self, cheb):
        p = TransformPoly(cheb, (1 + 0j, complex(math.nan, 0.0), 2 + 0j))
        q = TransformPoly(cheb, (1 + 0j, 3 + 0j))
        residual, scale = poly_residual(p, q)
        assert math.isnan(residual) and math.isnan(scale)
        record = Report(title="t").check("nan", "p = q", residual, scale, Tolerance(), lambda: "witness")
        assert record.status == "fail" and record.counterexample == "witness"
        assert poly_residual(TransformPoly(cheb, (complex(math.inf, 0.0),)), q) == (math.inf, math.inf)

    def test_finite_values_as_a_coefficient_loop(self, cheb):
        p = TransformPoly(cheb, (1 + 2j, -3 + 0j, 0.5j))
        q = TransformPoly(cheb, (1 + 1j, 4 + 0j))
        assert poly_residual(p, q) == (7.0, 4.0)
        assert poly_residual(TransformPoly(cheb, ()), TransformPoly(cheb, ())) == (0.0, 1.0)
