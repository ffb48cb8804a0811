"""Answer-key oracles that never import the package under test.

Polynomial values come from ``numpy.polynomial`` (chebval/legval and their
derivatives), Chebyshev linearization from the closed form
T_m T_n = (T_{m+n} + T_{|m-n|}) / 2, Legendre linearization from ``legmul``,
and linearization of an arbitrary rational recurrence from exact
``fractions.Fraction`` arithmetic on monomial coefficients.  Finite tables
are checked through their structure tensor C[i, j, k].
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

TOL = 1e-9


def unit(n: int) -> np.ndarray:
    e = np.zeros(n + 1)
    e[n] = 1.0
    return e


def poly_value(family: str, n: int, z: complex, k: int = 0) -> complex:
    """P_n^(k)(z) for the chebyshev or legendre carrier (P_n(1) = 1 for both)."""
    return series_value(family, {n: 1.0}, z, k)


def series_value(family: str, weights: dict[int, complex], z: complex, k: int = 0) -> complex:
    """k-th derivative at z of sum_n w_n P_n, the transform of a measure on N."""
    if not weights:
        return 0j
    c = np.zeros(max(weights) + 1, dtype=complex)
    for n, w in weights.items():
        c[n] += w
    if family == "chebyshev":
        return complex(npcheb.chebval(z, npcheb.chebder(c, k)))
    return complex(npleg.legval(z, npleg.legder(c, k)))


def series_monomial(family: str, weights: dict[int, complex]) -> np.ndarray:
    """Monomial coefficients (lowest degree first) of sum_n w_n P_n."""
    c = np.zeros(max(weights, default=0) + 1, dtype=complex)
    for n, w in weights.items():
        c[n] += w
    conv = npcheb.cheb2poly if family == "chebyshev" else npleg.leg2poly
    out = np.zeros(len(c), dtype=complex)
    for part, unit_ in ((c.real, 1.0), (c.imag, 1j)):
        mono = conv(part)  # numpy trims trailing zeros
        out[: len(mono)] += unit_ * mono
    return out


def cheb_linearization(m: int, n: int) -> dict[int, float]:
    """Closed form: T_m T_n = (T_{m+n} + T_{|m-n|}) / 2."""
    out: dict[int, float] = {}
    for l in (m + n, abs(m - n)):
        out[l] = out.get(l, 0.0) + 0.5
    return out


def numpy_linearization(family: str, m: int, n: int) -> dict[int, float]:
    """P-basis coefficients of P_m P_n from numpy's series multiplication."""
    mul = npcheb.chebmul if family == "chebyshev" else npleg.legmul
    c = mul(unit(m), unit(n))
    return {l: float(w) for l, w in enumerate(c) if abs(w) > 1e-14}


def linearization(family: str, m: int, n: int) -> dict[int, float]:
    if family == "chebyshev":
        return cheb_linearization(m, n)
    return numpy_linearization(family, m, n)


class RationalRecurrence:
    """Exact polynomial family from a0, b0 and rows (a_n, b_n, c_n), in Fractions.

    P_0 = 1, P_1 = (x - b0)/a0, P_1 P_n = a_n P_{n+1} + b_n P_n + c_n P_{n-1}.
    """

    def __init__(self, a0, b0, rows):
        self.a0 = Fraction(a0)
        self.b0 = Fraction(b0)
        self.rows = [tuple(Fraction(v) for v in row) for row in rows]
        self._mono: list[list[Fraction]] = [[Fraction(1)], [-self.b0 / self.a0, 1 / self.a0]]

    def monomial(self, n: int) -> list[Fraction]:
        while len(self._mono) <= n:
            m = len(self._mono) - 1
            a, b, c = self.rows[m - 1]
            cur, prev = self._mono[m], self._mono[m - 1]
            nxt = [Fraction(0)] * (m + 2)
            for j, v in enumerate(cur):
                nxt[j + 1] += v / self.a0
                nxt[j] -= v * self.b0 / self.a0 + b * v
            for j, v in enumerate(prev):
                nxt[j] -= c * v
            self._mono.append([v / a for v in nxt])
        return self._mono[n]

    def linearization(self, m: int, n: int) -> dict[int, Fraction]:
        """Exact c(m, n, l), by back-substitution from the top degree."""
        prod = [Fraction(0)] * (m + n + 1)
        for i, u in enumerate(self.monomial(m)):
            for j, v in enumerate(self.monomial(n)):
                prod[i + j] += u * v
        out: dict[int, Fraction] = {}
        for l in range(m + n, -1, -1):
            pl = self.monomial(l)
            c = prod[l] / pl[l]
            if c:
                out[l] = c
                for j, v in enumerate(pl):
                    prod[j] -= c * v
        return out

    def first_negative(self, bound: int) -> tuple[int, int, int, Fraction] | None:
        """First (m, n, l, c) with c(m, n, l) < 0 and m <= n <= bound."""
        for m in range(bound + 1):
            for n in range(m, bound + 1):
                for l, c in sorted(self.linearization(m, n).items()):
                    if c < 0:
                        return m, n, l, c
        return None


# ---------------------------------------------------------------------------
# finite tables


def structure_tensor(size: int, table: list) -> np.ndarray:
    """C[i, j, k] from a table given as [[i, j, [[k, w], ...]], ...], mirrored when one-sided."""
    c = np.full((size, size, size), np.nan)
    for i, j, row in table:
        c[i, j] = 0.0
        for k, w in row:
            c[i, j, k] += w
    for i, j in itertools.product(range(size), repeat=2):
        if np.isnan(c[i, j, 0]):
            c[i, j] = c[j, i]
    return c


def finite_axiom_failures(size: int, identity: int, table: list) -> list[str]:
    """Axioms the table violates, in the order check_axioms reports them."""
    c = structure_tensor(size, table)
    bad = []
    if (c < -TOL).any():
        bad.append("nonnegativity")
    if (np.abs(c.sum(axis=2) - 1.0) > TOL).any():
        bad.append("normalization")
    if (np.abs(c[identity] - np.eye(size)) > TOL).any():
        bad.append("identity")
    if (np.abs(c - c.transpose(1, 0, 2)) > TOL).any():
        bad.append("commutativity")
    left = np.einsum("ijl,lkm->ijkm", c, c)
    right = np.einsum("jkl,ilm->ijkm", c, c)
    if (np.abs(left - right) > TOL).any():
        bad.append("associativity")
    return bad


def translations_commute(size: int, table: list) -> bool:
    """Whether the translation matrices T_x[j, k] = C[x, j, k] pairwise commute."""
    c = structure_tensor(size, table)
    return all(
        np.allclose(c[x] @ c[y], c[y] @ c[x], atol=1e-9)
        for x in range(size)
        for y in range(x + 1, size)
    )


def cyclic_table(n: int) -> list:
    return [[i, j, [[(i + j) % n, 1.0]]] for i in range(n) for j in range(n)]


def cyclic_characters(n: int) -> list[list[complex]]:
    return [[cmath.exp(2j * math.pi * r * x / n) for x in range(n)] for r in range(n)]


def two_point_table(theta: float) -> list:
    return [[0, 0, [[0, 1.0]]], [0, 1, [[1, 1.0]]], [1, 0, [[1, 1.0]]],
            [1, 1, [[0, theta], [1, 1.0 - theta]]]]


def two_point_exponentials(theta: float) -> list[list[complex]]:
    """Roots of a^2 = theta + (1 - theta) a, so m(1) is 1 or -theta."""
    return [[1.0 + 0j, 1.0 + 0j], [1.0 + 0j, complex(-theta)]]


def product_table(t1: list, n1: int, t2: list, n2: int) -> list:
    """Table of the product carrier; point (i1, i2) is numbered i1 + n1 * i2."""
    c1, c2 = structure_tensor(n1, t1), structure_tensor(n2, t2)
    out = []
    for i1, i2, j1, j2 in itertools.product(range(n1), range(n2), range(n1), range(n2)):
        row = [[k1 + n1 * k2, float(c1[i1, j1, k1] * c2[i2, j2, k2])]
               for k1 in range(n1) for k2 in range(n2) if c1[i1, j1, k1] * c2[i2, j2, k2] != 0.0]
        out.append([i1 + n1 * i2, j1 + n1 * j2, row])
    return out


def product_exponentials(e1: list, e2: list) -> list[list[complex]]:
    n1, n2 = len(e1[0]), len(e2[0])
    return [[f[x % n1] * g[x // n1] for x in range(n1 * n2)] for f in e1 for g in e2]


def same_function_sets(got: list[list[complex]], want: list[list[complex]], tol: float = 1e-7) -> bool:
    """Equal as multisets of value vectors, up to tol in each value."""
    if len(got) != len(want):
        return False
    left = list(want)
    for g in got:
        for i, w in enumerate(left):
            if len(g) == len(w) and all(abs(a - b) <= tol for a, b in zip(g, w)):
                del left[i]
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# moment families


def family_value(kind: str, param: complex, x, k: int) -> complex:
    """phi_k(x) of the built-in rank-1 families, from closed forms."""
    if kind == "realline":
        return (x**k) * cmath.exp(param * x)
    if kind == "twopoint":
        # phi_0 is the exponential with m(1) = param; higher entries are zero
        return (1.0 if x == 0 else param) if k == 0 else 0j
    return poly_value(kind, x, param, k)


def point_convolution(kind: str, x, y, theta: float = 0.0) -> dict:
    """dx * dy as {point: weight} on each moment carrier."""
    if kind == "realline":
        return {x + y: 1.0}
    if kind == "twopoint":
        if x == 0 or y == 0:
            return {x + y: 1.0}
        return {0: theta, 1: 1.0 - theta}
    return linearization(kind, min(x, y), max(x, y))


def moment_entry(fam: dict, alpha: tuple[int, ...], x) -> complex:
    """phi_alpha(x) for a family spec, including its perturbation when present."""
    factor = 1.0 + 0j
    for w, a in zip(fam.get("weights") or (1.0,), alpha):
        factor *= complex(w) ** a
    value = factor * family_value(fam["kind"], fam["param"], x, sum(alpha))
    pert = fam.get("perturb")
    if pert is not None and tuple(pert["alpha"]) == tuple(alpha):
        value += pert["eps"]
    return value


def lower(alpha: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [tuple(b) for b in itertools.product(*(range(a + 1) for a in alpha))]


def moment_defect(fam: dict, alpha: tuple[int, ...], x, y) -> tuple[float, float]:
    """|lhs - rhs| of the moment identity at (x, y), and the scale max(1, |terms|)."""
    lhs = sum(w * moment_entry(fam, alpha, p) for p, w in point_convolution(
        fam["kind"], x, y, fam.get("theta", 0.0)).items())
    top = abs(lhs)
    rhs = 0j
    for beta in lower(alpha):
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        term = math.prod(math.comb(a, b) for a, b in zip(alpha, beta)) * \
            moment_entry(fam, beta, x) * moment_entry(fam, gamma, y)
        rhs += term
        top = max(top, abs(term))
    return abs(lhs - rhs), max(1.0, top)


def leibniz_defect(fam: dict, alpha: tuple[int, ...], mu: dict, nu: dict) -> tuple[float, float]:
    """Leibniz rule paired with 1: sum_{x,y} mu_x nu_y (moment defect at x, y), signed.

    Pairing with 1 turns D_b mu * D_c nu into <D_b mu, 1><D_c nu, 1>, so the
    rule's residual is the bilinear extension of the moment identity.
    """
    def mass(m, beta):
        return sum(w * moment_entry(fam, beta, x) for x, w in m.items())

    lv = 0j
    for (x, wx), (y, wy) in itertools.product(mu.items(), nu.items()):
        for p, w in point_convolution(fam["kind"], x, y, fam.get("theta", 0.0)).items():
            lv += wx * wy * w * moment_entry(fam, alpha, p)
    terms = []
    for beta in lower(alpha):
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        binom = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
        terms.append(binom * mass(mu, beta) * mass(nu, gamma))
    rv = sum(terms, 0j)
    return abs(lv - rv), max([1.0, abs(lv)] + [abs(t) for t in terms])
