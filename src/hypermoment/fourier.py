"""Fourier-Laplace transforms and the transfer of derivation families.

On a polynomial hypergroup the transform of a finitely supported measure is
the polynomial z -> sum_n mu({n}) P_n(z).  `transform` holds it in the
monomial basis so that analytic differentiation and multiplication are exact
operations; `hat_derivation`, `verify_transform_multiplicativity`, the
derivative identity and the Taylor reconstruction use that form, whose
coefficients grow with the degree (their evaluation loses accuracy from about
degree 24 on Chebyshev).  The transform-side Leibniz check reads the
transforms in the P-basis instead, where the value at z = 1 is the total mass.
On the real line the transform has no finite coefficient form and is kept
evaluation-only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .config import Tolerance, default_tolerance, scale_of
from .errors import DomainError
from .hypergroups import PolynomialHypergroup, RealLineHypergroup
from .measures import Measure, as_literal, complex_abs, complex_product, convolve
from .moments import DerivationFamily, _identity_records, apply_family, as_index, binomial_terms
from .reports import Report


def _trim(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    out = list(complex(c) for c in coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class TransformPoly:
    """Transform of a measure on a polynomial hypergroup, in the monomial basis.

    Coefficients are lowest-degree first with exact trailing zeros trimmed.
    """

    hypergroup: Any
    coeffs: tuple[complex, ...]

    @classmethod
    def from_coeffs(cls, hg: Any, coeffs: Sequence[complex]) -> "TransformPoly":
        return cls(hg, _trim(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self, k: int = 1) -> "TransformPoly":
        if k < 0:
            raise DomainError("derivative order must be nonnegative")
        coeffs = list(self.coeffs)
        for _ in range(k):
            coeffs = [j * coeffs[j] for j in range(1, len(coeffs))]
        return TransformPoly.from_coeffs(self.hypergroup, coeffs)

    def __add__(self, other: "TransformPoly") -> "TransformPoly":
        a, b = list(self.coeffs), list(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return TransformPoly.from_coeffs(self.hypergroup, a)

    def __sub__(self, other: "TransformPoly") -> "TransformPoly":
        return self + (-1.0) * other

    def __mul__(self, other: Any) -> "TransformPoly":
        if isinstance(other, TransformPoly):
            if not self.coeffs or not other.coeffs:
                return TransformPoly.from_coeffs(self.hypergroup, [])
            out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return TransformPoly.from_coeffs(self.hypergroup, out)
        c = complex(other)
        return TransformPoly.from_coeffs(self.hypergroup, [c * v for v in self.coeffs])

    __rmul__ = __mul__

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
    """Monomial coefficients of P_n, by running the recurrence on coefficient lists."""
    if not isinstance(hg, PolynomialHypergroup):
        raise DomainError("monomial conversion needs a polynomial hypergroup")
    if n < 0:
        raise DomainError("index must be nonnegative")
    prev = [1.0]  # P_0
    if n == 0:
        return tuple(prev)
    cur = [-hg.b0 / hg.a0, 1.0 / hg.a0]  # P_1
    for m in range(1, n):
        a, b, c = hg.coefficient_row(m)
        # P_{m+1} = ((x - b0)/a0 * P_m - b_m P_m - c_m P_{m-1}) / a_m
        nxt = [0.0] * (m + 2)
        for j, v in enumerate(cur):
            nxt[j + 1] += v / hg.a0
            nxt[j] -= v * hg.b0 / hg.a0
            nxt[j] -= b * v
        for j, v in enumerate(prev):
            nxt[j] -= c * v
        prev, cur = cur, [v / a for v in nxt]
    return tuple(cur)


def transform(hg: PolynomialHypergroup, mu: Measure) -> TransformPoly:
    """Fourier-Laplace transform: z -> sum_n mu({n}) P_n(z), as a polynomial."""
    if not isinstance(hg, PolynomialHypergroup):
        raise DomainError("transform as a polynomial needs a polynomial hypergroup "
                          "(use transform_eval on the real line)")
    if mu.hypergroup != hg:
        raise DomainError("measure does not live on this hypergroup")
    coeffs: list[complex] = []
    for n, w in mu.support:
        mono = p_to_monomial(hg, n)
        if len(mono) > len(coeffs):
            coeffs.extend([0j] * (len(mono) - len(coeffs)))
        for j, v in enumerate(mono):
            coeffs[j] += w * v
    if not all(map(cmath.isfinite, coeffs)):
        raise DomainError(f"transform of degree {len(coeffs) - 1}: monomial coefficients leave the float range")
    return TransformPoly.from_coeffs(hg, coeffs)


@dataclass(frozen=True)
class TransformEval:
    """Evaluation-only transform of a real-line measure: lam -> sum mu({x}) e^{lam x}."""

    measure: Measure

    def __call__(self, lam: complex) -> complex:
        lam = complex(lam)
        return sum((w * cmath.exp(lam * x) for x, w in self.measure.support), 0j)

    def derivative_fd(self, lam: complex, k: int, step: float = 3e-3) -> complex:
        """k-th derivative at lam by the central finite-difference stencil."""
        if k == 0:
            return self(lam)
        acc = 0j
        for i in range(k + 1):
            acc += (-1) ** i * math.comb(k, i) * self(lam + (k / 2 - i) * step)
        return acc / step**k


def transform_eval(mu: Measure) -> TransformEval:
    if not isinstance(mu.hypergroup, RealLineHypergroup):
        raise DomainError("evaluation-only transform is for real-line measures")
    return TransformEval(mu)


def verify_transform_multiplicativity(
    hg: PolynomialHypergroup,
    mu: Measure,
    nu: Measure,
    tol: Tolerance | None = None,
) -> Report:
    """Transform of a convolution equals the product of the transforms."""
    tol = tol or default_tolerance()
    report = Report(title="transform multiplicativity")
    lhs = transform(hg, convolve(mu, nu))
    rhs = transform(hg, mu) * transform(hg, nu)
    report.check(
        "transform-multiplicativity", "(mu*nu)^ = mu^ nu^", *poly_residual(lhs, rhs), tol,
        lambda: [as_literal(mu), as_literal(nu)],
    )
    return report


def hat_derivation(family: DerivationFamily, mu: Measure, alpha: Sequence[int]) -> TransformPoly:
    """Transform-side derivation: the transform of D_alpha(mu)."""
    hg = family.hypergroup
    if not isinstance(hg, PolynomialHypergroup):
        raise DomainError("transfer to the transform side needs a polynomial hypergroup")
    return transform(hg, family.op(as_index(alpha))(mu))


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
    support order from one row of derivatives per support point."""
    z = complex(z)
    rows = [hg.poly_derivatives(n, z, kmax) for n, _ in mu.support] if kmax >= 0 else []
    values = [sum((w * row[k] for (_, w), row in zip(mu.support, rows)), 0j) for k in range(kmax + 1)]
    if not all(map(cmath.isfinite, values)):
        raise DomainError(f"derivative moments up to order {kmax} at z={z} leave the float range")
    return values


def fourier_derivative_identity(
    hg: PolynomialHypergroup,
    mu: Measure,
    k: int,
    z: complex,
    tol: Tolerance | None = None,
) -> Report:
    """<D_k mu, 1> for the derivative family at z equals the k-th derivative of mu^ at z."""
    tol = tol or default_tolerance()
    z = complex(z)
    lhs = derivative_moments(hg, mu, k, z)[k]
    rhs = transform(hg, mu).derivative(k)(z)
    report = Report(title="derivative identity of the transform", meta={"k": k, "z": [z.real, z.imag]})
    _derivative_identity(report, mu, k, lhs, rhs, tol)
    return report


def _derivative_identity(report: Report, mu: Measure, k: int, lhs: complex, rhs: complex, tol: Tolerance) -> None:
    report.check(
        f"derivative-identity k={k}", "<D_k mu, 1> = (mu^)^(k)(z)", abs(lhs - rhs), scale_of(lhs, rhs), tol,
        lambda: [as_literal(mu), lhs, rhs],
    )


def taylor_reconstruct(
    hg: PolynomialHypergroup,
    moment_values: Sequence[complex],
    degree: int | None = None,
) -> TransformPoly:
    """Polynomial sum_k (lam^k / k!) <D_k mu, 1> from derivative moments at z = 0.

    Equals the transform of mu when the values are complete up to the source
    measure's maximal support index; a shorter `degree` truncates.
    """
    values = [complex(v) for v in moment_values]
    if degree is not None:
        if degree < 0:
            raise DomainError("degree must be nonnegative")
        values = values[: degree + 1]
    try:
        return TransformPoly.from_coeffs(hg, [v / math.factorial(k) for k, v in enumerate(values)])
    except OverflowError:
        raise DomainError(f"Taylor factorials up to {len(values) - 1}! leave the float range") from None
