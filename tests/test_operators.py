"""Module homomorphisms: symbol characterization and multiplicativity.

The two characterizations under test, at desk scale:
* an operator passes the module-homomorphism checks iff it is multiplication
  by its symbol x -> <F(dx), 1>;
* a module homomorphism preserves convolution (total-mass sense) iff its
  symbol is an exponential.
"""

from __future__ import annotations

import math

import pytest

from hypermoment import (
    CFunction,
    Measure,
    MeasureOperator,
    chebyshev,
    convolve,
    dirac,
    exponential_function,
    identity_operator,
    is_exponential,
    is_module_hom,
    is_multiplicative_hom,
    make_module_hom,
    measure_residual,
    module_action,
    pair,
    real_line,
    symbol_of,
    two_point,
    zero_operator,
)


def rank_one_functional(hg) -> MeasureOperator:
    """mu -> <mu, 1> d_o: additive but not module-homogeneous."""
    one = CFunction.constant(1.0)
    return MeasureOperator(
        hypergroup=hg,
        fn=lambda mu: pair(mu, one) * dirac(hg, hg.identity),
        name="rank-one",
    )


def translation_by(hg, point) -> MeasureOperator:
    """mu -> mu * d_point: additive but not module-homogeneous."""
    return MeasureOperator(
        hypergroup=hg,
        fn=lambda mu: convolve(mu, dirac(hg, point)),
        name=f"translate[{point}]",
    )


@pytest.fixture
def hom_samples(cheb, cheb_measures):
    probes = [
        CFunction.constant(1.0),
        CFunction(lambda n: n),
        CFunction(lambda n: (-1.0) ** n + 0.25j * n),
    ]
    return [(mu, probes[i % len(probes)]) for i, mu in enumerate(cheb_measures)]


@pytest.fixture
def conv_samples(cheb):
    pts = range(4)
    return [(dirac(cheb, x), dirac(cheb, y)) for x in pts for y in pts]


class TestIsModuleHom:
    def test_module_hom_passes(self, cheb, hom_samples):
        op = make_module_hom(cheb, CFunction(lambda n: n * n + 1j))
        assert is_module_hom(op, hom_samples).passed

    def test_identity_passes(self, cheb, hom_samples):
        assert is_module_hom(identity_operator(cheb), hom_samples).passed

    def test_rank_one_fails_homogeneity(self, cheb, hom_samples):
        report = is_module_hom(rank_one_functional(cheb), hom_samples)
        status = {r.name: r.status for r in report.records}
        assert status["module-homogeneity"] == "fail"
        assert status["additivity"] == "pass"

    def test_translation_fails(self, cheb, hom_samples):
        report = is_module_hom(translation_by(cheb, 1), hom_samples)
        assert not report.passed

    @pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)])
    def test_a_signed_zero_reads_its_own_symbol_value(self, order):
        # multiplication by copysign(1, x) is multiplication by its symbol, -1 at -0.0 and 1 at 0.0; only
        # additivity fails, as mu + nu merges -0.0 into 0.0 (the package's merge convention)
        hg, one = real_line(), CFunction.constant(1.0)
        op = make_module_hom(hg, CFunction(lambda x: math.copysign(1.0, x)))
        report = is_module_hom(op, [(dirac(hg, x), one) for x in order])
        records = {r.name: (r.status, r.residual) for r in report.records}
        assert records == {"additivity": ("fail", 2.0), "module-homogeneity": ("pass", 0.0),
                           "symbol-identity": ("pass", 0.0)}


class TestSymbolOf:
    def test_round_trip(self, cheb):
        phi = CFunction(lambda n: 2.0**n - 1j * n)
        op = make_module_hom(cheb, phi)
        sym = symbol_of(op, range(6))
        for n in range(6):
            assert sym(n) == pytest.approx(phi(n))

    def test_zero_operator(self, cheb):
        sym = symbol_of(zero_operator(cheb), range(4))
        assert all(sym(n) == 0 for n in range(4))

    def test_symbol_reconstruction_on_samples(self, cheb, cheb_measures):
        phi = CFunction(lambda n: 1.0 / (1 + n) + 0.5j)
        op = make_module_hom(cheb, phi)
        points = sorted({x for mu in cheb_measures for x in mu.points})
        sym = symbol_of(op, points)
        for mu in cheb_measures:
            res, scl = measure_residual(op(mu), module_action(sym, mu))
            assert res <= 1e-12 * scl


class TestIsExponential:
    def test_constant_one(self, cheb):
        pairs = [(x, y) for x in range(5) for y in range(5)]
        assert is_exponential(cheb, CFunction.constant(1.0), pairs).passed

    def test_chebyshev_value_family(self, cheb):
        pairs = [(x, y) for x in range(6) for y in range(6)]
        for z in (0.3, -1.2, 0.5 + 0.5j):
            assert is_exponential(cheb, exponential_function(cheb, z), pairs).passed

    def test_dtheta_wrong_value_fails(self):
        hg = two_point(0.5)
        f = CFunction.from_table({0: 1.0, 1: 0.5})
        pairs = [(x, y) for x in range(2) for y in range(2)]
        report = is_exponential(hg, f, pairs)
        assert not report.passed

    def test_identity_normalization_enforced(self, cheb):
        f = CFunction(lambda n: 2.0 * chebyshev().eval_poly_derivative(n, 0.3, 0))
        report = is_exponential(cheb, f, [(1, 1)])
        status = {r.name: r.status for r in report.records}
        assert status["normalization-at-identity"] == "fail"


class TestIsMultiplicativeHom:
    def test_exponential_hom_passes(self, cheb, conv_samples):
        for z in (0.3, 1.5 - 0.25j):
            op = make_module_hom(cheb, exponential_function(cheb, z))
            assert is_multiplicative_hom(op, conv_samples).passed

    def test_non_exponential_symbol_fails(self, cheb, conv_samples):
        op = make_module_hom(cheb, CFunction(lambda n: n))
        assert not is_multiplicative_hom(op, conv_samples).passed

    def test_zero_operator_flagged_trivial(self, cheb, conv_samples):
        report = is_multiplicative_hom(zero_operator(cheb), conv_samples)
        assert report.passed
        assert "trivially" in report.records[0].detail

    def test_dtheta_second_exponential(self, conv_samples):
        hg = two_point(0.4)
        pairs = [(dirac(hg, x), dirac(hg, y)) for x in range(2) for y in range(2)]
        op = make_module_hom(hg, exponential_function(hg, 1))
        assert is_multiplicative_hom(op, pairs).passed


class TestEquivalence:
    """Multiplicativity of the hom <=> exponentiality of the symbol."""

    def test_both_directions(self, cheb, conv_samples):
        point_pairs = [(x, y) for x in range(4) for y in range(4)]
        candidates = [
            exponential_function(cheb, 0.3),
            exponential_function(cheb, -0.7 + 0.1j),
            CFunction.constant(1.0),
            # perturbed exponential
            CFunction(lambda n: chebyshev().eval_poly_derivative(n, 0.3, 0) + (0.01 if n == 2 else 0.0)),
            # random-looking tables
            CFunction.from_table({0: 1.0, 1: 0.5, 2: -0.25, 3: 1.5, 4: 0.1, 5: 2.0, 6: 0.0}),
            CFunction.from_table({0: 0.5, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 1.0}),
        ]
        for f in candidates:
            mult = is_multiplicative_hom(make_module_hom(cheb, f), conv_samples).passed
            expo = is_exponential(cheb, f, point_pairs).passed
            assert mult == expo, f.describe()
