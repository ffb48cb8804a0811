"""Fourier-Laplace transforms and the transfer of derivation families.

On a polynomial hypergroup the transform of a finitely supported measure is
the polynomial z -> sum_n mu({n}) P_n(z), so its P-basis coefficients are the
weights of mu.  One backward pass over the carrier's rows reads them
(`_taylor_rows`): `transform_derivatives` gives the values and derivatives
that the derivative identity and the multiplicativity check compare, and
`transform` the monomial coefficients with their a priori bounds, kept for
output, `hat_derivation` and the Taylor check, coefficient by coefficient.
The transform-side Leibniz check reads total masses, the values at z = 1.  On
the real line the transform has no finite coefficient form and is kept
evaluation-only.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .config import Tolerance, default_tolerance, scale_of
from .errors import DomainError
from .hypergroups import DerivativeRun, PolynomialHypergroup, RealLineHypergroup
from .measures import Measure, as_literal, complex_abs, complex_product, convolve, dirac, pair
from .moments import DerivationFamily, _identity_records, apply_family, as_index, binomial_terms
from .reports import Report


@dataclass(frozen=True)
class TransformPoly:
    """Transform of a measure on a polynomial hypergroup, in the monomial basis: an
    output form, not evaluated here (see `transform_derivatives`).

    Coefficients are lowest-degree first with exact trailing zeros trimmed.  `transform` also
    gives bounds[k], the a priori bound of coefficient k, for every k up to the measure's top point.
    """

    hypergroup: Any
    coeffs: tuple[complex, ...]
    bounds: tuple[float, ...] = field(default=(), compare=False)

    @classmethod
    def from_coeffs(cls, hg: Any, coeffs: Sequence[complex], bounds: Sequence[float] = ()) -> "TransformPoly":
        out = [complex(c) for c in coeffs]
        while out and out[-1] == 0:
            out.pop()
        return cls(hg, tuple(out), tuple(bounds))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def pretty(self, var: str = "z") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if c.imag == 0:
                num = f"{c.real:g}"
            else:
                num = f"({c.real:g}{c.imag:+g}i)"
            if j == 0:
                parts.append(num)
            else:
                power = var if j == 1 else f"{var}^{j}"
                parts.append(power if num == "1" else f"{num}*{power}")
        return " + ".join(parts) if parts else "0"


def poly_residual(p: TransformPoly, q: TransformPoly) -> tuple[float, float]:
    """Worst coefficientwise difference and the scale max(1, |coeffs|); a NaN
    in either propagates, so the check of the pair fails."""
    size = max(len(p.coeffs), len(q.coeffs))
    a, b = (np.array(c + (0j,) * (size - len(c)), dtype=complex) for c in (p.coeffs, q.coeffs))
    top = np.maximum(complex_abs(a), complex_abs(b))
    return float(np.max(complex_abs(a - b), initial=0.0)), float(np.max(top, initial=1.0))


def p_to_monomial(hg: PolynomialHypergroup, n: int) -> tuple[float, ...]:
    """Monomial coefficients of P_n: the transform of the point mass at n."""
    return tuple(c.real for c in transform(hg, dirac(hg, n)).coeffs)


def _on_polynomial_carrier(hg: Any, mu: Measure) -> None:
    if not isinstance(hg, PolynomialHypergroup):
        raise DomainError("transform as a polynomial needs a polynomial hypergroup "
                          "(use transform_eval on the real line)")
    if mu.hypergroup != hg:
        raise DomainError("measure does not live on this hypergroup")


def transform(hg: PolynomialHypergroup, mu: Measure) -> TransformPoly:
    """Fourier-Laplace transform: z -> sum_n mu({n}) P_n(z), as monomial coefficients, the Taylor
    rows of `_taylor_rows` at z = 0, each with its a priori bound."""
    rows = _taylor_rows(hg, mu, max(mu.points, default=0), np.zeros(1), bound=True)
    if not np.isfinite(rows).all():
        raise DomainError(f"transform of degree {len(rows) - 1}: monomial coefficients leave the float range")
    return TransformPoly.from_coeffs(hg, rows[:, 0].tolist(), rows[:, 1].real.tolist())


def transform_derivatives(hg: PolynomialHypergroup, mu: Measure, k: int, zs: Sequence[complex]) -> np.ndarray:
    """mu^(i)(z) for i = 0..k (rows) and z in zs (columns): row i of `_taylor_rows` times i!,
    scaled exactly (as m 2^e), so a zero row stays zero past 170!."""
    zs = np.asarray(zs, dtype=complex)
    factorials = [1, *itertools.accumulate(range(1, k + 1), operator.mul)]  # i! = m_i 2^e_i, 1 <= m_i < 2
    e = [f.bit_length() - 1 for f in factorials]
    m = [f / (1 << b) for f, b in zip(factorials, e)]
    with np.errstate(over="ignore"):  # a non-finite derivative is refused below
        rows = np.ldexp(_taylor_rows(hg, mu, k, zs).view(float) * np.array(m)[:, None], np.array(e)[:, None])
    rows = rows.view(complex)
    bad = ~np.isfinite(rows).all(axis=0)
    if bad.any():
        raise DomainError(f"transform derivatives up to order {k} at z={complex(zs[bad][0])} leave the float range")
    return rows


def _taylor_rows(hg: PolynomialHypergroup, mu: Measure, k: int, zs: np.ndarray, bound: bool = False) -> np.ndarray:
    """mu^(i)(z)/i! for i = 0..k (rows) and z in zs (columns), from the P-basis weights w_n of mu by the
    differentiated Clenshaw backward recurrence (Clenshaw 1955; Smith 1965): with P_{n+1} = al_n P_n -
    be_n P_{n-1}, al_n = (P_1 - b_n)/a_n, be_n = c_n/a_n and al_0 = P_1, the sums s_n = w_n + al_n s_{n+1}
    - be_{n+1} s_{n+2} end in s_0 = mu^(z); row i drops w_n and adds al_n' times row i - 1 of s_{n+1}, where
    al_n' = 1/(a0 a_n) (1/a0 for n = 0).  With `bound`, len(zs) more columns run the same recurrence on
    |al_n|, be_n, al_n' and |w_n| with all terms added: each value's a priori bound (Higham 2002, ch. 5)."""
    _on_polynomial_carrier(hg, mu)
    if k < 0:
        raise DomainError("derivative order must be nonnegative")
    top = max(mu.points, default=0)
    rows = np.array([(1.0, 0.0, 0.0), *map(hg.coefficient_row, range(1, top))])  # row 0 is P_1 * P_0 = P_1
    slopes = (1.0 / (hg.a0 * rows[:, 0])).tolist()
    be = np.append(rows[1:, 2] / rows[1:, 0], 0.0)[:, None]  # be[n] is be_{n+1}
    weights = np.zeros((top + 1, 1), dtype=complex)
    weights[[n for n, _ in mu.support], 0] = [w for _, w in mu.support]
    al = ((zs - hg.b0) / hg.a0 - rows[:, 1:2]) / rows[:, :1]
    if bound:  # -be_n in the bound columns, so that s2's term is added
        al, be = np.hstack([al, np.abs(al)]), be * np.repeat([1.0, -1.0], len(zs))
        weights = np.hstack([weights, np.abs(weights)]).repeat(len(zs), axis=1)
    s1, s2 = np.zeros((2, k + 1, al.shape[1]), dtype=complex)
    s1[0] = weights[top]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused by the readers
        for n in range(top - 1, -1, -1):
            s = al[n] * s1 - be[n] * s2
            s[1:] += slopes[n] * s1[:-1]
            s[0] += weights[n]
            s1, s2 = s, s1
    return s1


@dataclass(frozen=True)
class TransformEval:
    """Evaluation-only transform of a real-line measure: lam -> sum mu({x}) e^{lam x}."""

    measure: Measure

    def __call__(self, lam: complex) -> complex:
        lam = complex(lam)
        return sum((w * cmath.exp(lam * x) for x, w in self.measure.support), 0j)

    def derivative(self, lam: complex, k: int) -> complex:
        """k-th derivative at lam, exactly: the sum over the support of w x^k e^{lam x}, as `pair` sums it."""
        lam = complex(lam)
        return pair(self.measure, lambda x: x**k * cmath.exp(lam * x))


def transform_eval(mu: Measure) -> TransformEval:
    if not isinstance(mu.hypergroup, RealLineHypergroup):
        raise DomainError("evaluation-only transform is for real-line measures")
    return TransformEval(mu)


def verify_transform_multiplicativity(
    hg: PolynomialHypergroup, mu: Measure, nu: Measure, tol: Tolerance | None = None,
) -> Report:
    """Transform of a convolution equals the product of the transforms, compared at the
    d + 1 points z_j = b0 + a0 cos(pi j / d), d = deg mu + deg nu, which fix a polynomial
    of degree d; the residual is the worst difference, the scale max(1, |values|)."""
    tol = tol or default_tolerance()
    report = Report(title="transform multiplicativity")
    both = convolve(mu, nu)
    _on_polynomial_carrier(hg, both)
    d = max(mu.points, default=0) + max(nu.points, default=0)
    zs = hg.b0 + hg.a0 * np.cos(np.pi * np.arange(d + 1) / max(d, 1))
    lhs, at_mu, at_nu = (transform_derivatives(hg, m, 0, zs)[0] for m in (both, mu, nu))
    rhs = complex_product(at_mu, at_nu)
    report.check(
        "transform-multiplicativity", "(mu*nu)^ = mu^ nu^", float(np.max(complex_abs(lhs - rhs))),
        float(np.max(np.maximum(complex_abs(lhs), complex_abs(rhs)), initial=1.0)), tol,
        lambda: [as_literal(mu), as_literal(nu)],
    )
    return report


def hat_derivation(family: DerivationFamily, mu: Measure, alpha: Sequence[int]) -> TransformPoly:
    """Transform-side derivation: the transform of D_alpha(mu)."""
    hg = family.hypergroup
    if not isinstance(hg, PolynomialHypergroup):
        raise DomainError("transfer to the transform side needs a polynomial hypergroup")
    return transform(hg, family.op(as_index(alpha))(mu))


@np.errstate(over="ignore", invalid="ignore")  # a product past the floats fails its case, as in `verify_leibniz`
def verify_fourier_leibniz(
    family: DerivationFamily,
    samples: list[tuple[Measure, Measure]],
    tol: Tolerance | None = None,
) -> Report:
    """Leibniz rule for the transferred family on the transform side.

    The transferred operator sends mu^ to (D_alpha mu)^; the rule is checked
    at the total-mass point z = 1, which mirrors the functional sense of the
    measure-side rule: a family passes here iff it passes `verify_leibniz`
    on the same samples, failing at the same alpha.  The transforms are read
    in the P-basis, where P_n(1) = 1 exactly: (D_b mu)^(1) is the total mass
    of D_b mu, so no monomial coefficients enter, and the right side is
    binom(a, b) times the product of those values.
    """
    if not samples:
        raise ValueError("samples must be nonempty")
    hg = family.hypergroup
    if not isinstance(hg, PolynomialHypergroup):
        raise DomainError("transfer to the transform side needs a polynomial hypergroup")
    tol = tol or default_tolerance()
    report = Report(
        title="transform-side Leibniz rule",
        meta={"rank": family.rank, "order": family.order, "samples": len(samples)},
    )
    app = apply_family(family, samples)
    # the total mass of every D_b m, summed in support order as `total_mass` sums
    mass = np.zeros((len(app.slot) + len(samples), len(family.alphas)), dtype=complex)
    np.add.at(mass, app.blocks, app.weights.T)
    beta, gamma, coef, _ = binomial_terms(tuple(family.alphas))
    at_mu, at_nu = (mass[[app.slot[id(sample[side])] for sample in samples]].T for side in (0, 1))
    law = "d_a(mu^ nu^) = sum_{b<=a} binom(a,b) d_b mu^ d_{a-b} nu^, at the total-mass point"
    _identity_records(
        report, "fourier-leibniz", law, family.alphas, mass[: len(samples)].T,
        coef[:, None] * complex_product(at_mu[beta], at_nu[gamma]), tol, lambda i: [*map(as_literal, samples[i])],
    )
    return report


def derivative_moments(
    hg: PolynomialHypergroup,
    mu: Measure,
    kmax: int,
    z: complex = 0.0,
) -> list[complex]:
    """Values <D_k mu, 1> = sum_n mu({n}) P_n^(k)(z) for k = 0..kmax, each summed in
    support order from the rows of one `DerivativeRun` to the top support point."""
    z = complex(z)
    rows = DerivativeRun(hg, z, kmax).upto(max(mu.points, default=0)) if kmax >= 0 else []
    values = [sum((w * rows[n][k] for n, w in mu.support), 0j) for k in range(kmax + 1)]
    if not all(map(cmath.isfinite, values)):
        raise DomainError(f"derivative moments up to order {kmax} at z={z} leave the float range")
    return values


def check_derivative_identity(
    report: Report, hg: PolynomialHypergroup, mu: Measure, orders: Sequence[int], z: complex, tol: Tolerance,
) -> complex:
    """Record <D_k mu, 1> = (mu^)^(k)(z) for each k in `orders` and return mu^(z).  The left
    side sums the forward rows of `derivative_moments`, the right side runs the backward
    recurrence of `transform_derivatives`, so the two sides are computed independently."""
    top = max(orders)
    lhs = derivative_moments(hg, mu, top, z)
    rhs = transform_derivatives(hg, mu, top, [z])[:, 0].tolist()
    for k in orders:
        report.check(
            f"derivative-identity k={k}", "<D_k mu, 1> = (mu^)^(k)(z)", abs(lhs[k] - rhs[k]), scale_of(lhs[k], rhs[k]),
            tol, lambda: [as_literal(mu), lhs[k], rhs[k]],
        )
    return rhs[0]


def fourier_derivative_identity(
    hg: PolynomialHypergroup, mu: Measure, k: int, z: complex, tol: Tolerance | None = None,
) -> Report:
    """<D_k mu, 1> for the derivative family at z equals the k-th derivative of mu^ at z."""
    z = complex(z)
    report = Report(title="derivative identity of the transform", meta={"k": k, "z": [z.real, z.imag]})
    check_derivative_identity(report, hg, mu, [k], z, tol or default_tolerance())
    return report


def taylor_reconstruct(hg: PolynomialHypergroup, moment_values: Sequence[complex]) -> TransformPoly:
    """Polynomial sum_k (lam^k / k!) <D_k mu, 1> from derivative moments at z = 0.

    Equals the transform of mu when the values are complete up to the source
    measure's maximal support index.
    """
    values = [complex(v) for v in moment_values]
    try:
        return TransformPoly.from_coeffs(hg, [v / math.factorial(k) for k, v in enumerate(values)])
    except OverflowError:
        raise DomainError(f"Taylor factorials up to {len(values) - 1}! leave the float range") from None
