"""Hypergroup carriers and their point-mass convolution.

Three built-in families:

* :class:`FiniteHypergroup` -- explicit convolution table on {0, ..., n-1};
* :class:`PolynomialHypergroup` -- carrier N, convolution given by the
  linearization coefficients of a polynomial family P_m * P_n = sum c(m,n,l) P_l
  generated by a three-term recurrence;
* :class:`RealLineHypergroup` -- the group (R, +) viewed as a hypergroup.

Axioms (nonnegativity, normalization, identity, commutativity, associativity)
are *checked*, not assumed: defective tables and recurrences are constructible
and `check_axioms` reports the first counterexample per axiom.  Each carrier
states its point convolutions once, as flat entries (`_pairs`, one
:class:`PairSupports`): per pair of points, the (point, weight) entries of
delta_x * delta_y.  Only the associativity check scatters them into a dense
C[i, j, k] (`_dense`).
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .config import Tolerance, default_tolerance
from .errors import DecompositionError, DomainError
from .measures import CFunction, Measure, Point
from .reports import Report

CoeffRow = tuple[float, float, float]

# associativity sample of an infinite carrier, in points
ASSOC_CAP = 48
# entries of one dense structure array (64 MB of float64); larger ones are refused, and a
# polynomial carrier keeps its linearization table only while it fits (`_lin_rows`)
DENSE_CAP = 1 << 23


def _capped(shape: tuple[int, ...]) -> tuple[int, ...]:
    if math.prod(shape) > DENSE_CAP:
        raise DomainError(f"structure array of shape {shape} exceeds {DENSE_CAP} entries; use a smaller sample")
    return shape


def _defined(count: int) -> np.ndarray:
    return np.full(count, "", dtype=object)


class PairSupports(NamedTuple):
    """Point convolutions of `count` pairs as flat entries, in pair order and
    within a pair in point order, as `convolve_points` lists its support: the
    convolution of pair ``rows[e]`` has weight ``weights[e]`` at ``points[e]``
    (an array from `_pairs`, Python scalars from `pair_supports`); ``err[p]``
    is the message of an undefined pair p, which has no entries ("" if defined)."""

    rows: np.ndarray
    points: Any
    weights: np.ndarray
    count: int
    err: np.ndarray

    def pairings(self, values: np.ndarray) -> np.ndarray:
        """<dx*dy, f> of every pair from f's values at the entries (last axis),
        each summed in support order, as `measures.pair` sums."""
        out = np.zeros(values.shape[:-1] + (self.count,), dtype=complex)
        np.add.at(out.T, self.rows, (values * self.weights).T)
        return out


class Hypergroup:
    """Base class: carrier + identity + point-mass convolution rule."""

    kind: str = "abstract"
    identity: Point = 0

    def _pairs(self, xs: np.ndarray, ys: np.ndarray) -> PairSupports:
        """Point convolutions of the pairs (xs[p], ys[p]) of validated points."""
        raise NotImplementedError

    def validate_point(self, x: Any) -> Point:
        raise NotImplementedError

    @property
    def signature(self) -> tuple:
        raise NotImplementedError

    def pair_supports(self, pairs: Sequence[tuple[Point, Point]]) -> PairSupports:
        """The point convolutions of `pairs`, from one `_pairs` call.

        Raises the DomainError that a loop over the pairs meets first: an
        invalid point or an undefined convolution.
        """
        valid, failure = [], None
        for x, y in pairs:
            try:
                valid.append((self.validate_point(x), self.validate_point(y)))
            except DomainError as exc:
                failure = exc
                break
        empty = PairSupports(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0), 0, _defined(0))
        flat = self._pairs(*np.array(valid).T) if valid else empty
        bad = flat.err.astype(bool)
        if bad.any():
            raise DomainError(flat.err[np.argmax(bad)])
        if failure is not None:
            raise failure
        return flat._replace(points=flat.points.tolist())

    def convolve_points(self, x: Point, y: Point) -> Measure:
        """Convolution of the point masses at x and y, as a probability measure."""
        sup = self.pair_supports([(x, y)])
        return Measure.from_items(self, zip(sup.points, sup.weights.tolist()))

    def sample_points(self, bound: int) -> list[Point]:
        """Deterministic point sample used by axiom and identity checks."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind

    def __eq__(self, other: Any) -> bool:
        return self is other or (isinstance(other, Hypergroup) and self.signature == other.signature)

    def __hash__(self) -> int:
        return hash(self.signature)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class FiniteHypergroup(Hypergroup):
    """Hypergroup on {0, ..., size-1} with an explicit convolution table.

    The table maps each ordered pair (i, j) to a weight list [(k, w), ...].
    A pair missing from the input is mirrored from (j, i) so symmetric tables
    can be given once per unordered pair; if both orientations are present
    they are kept as given (commutativity stays checkable).
    """

    kind = "finite"

    def __init__(self, size: int, identity: int, table: Any):
        if size < 1:
            raise DomainError("size must be positive")
        if not 0 <= identity < size:
            raise DomainError("identity index out of range")
        self.size = int(size)
        self.identity = int(identity)
        entries: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
        for i, j, row in _table_entries(table):
            if not (0 <= i < size and 0 <= j < size):
                raise DomainError(f"table pair ({i},{j}) out of range")
            entries[(i, j)] = _canonical_row(row, size)
        self._table: dict[tuple[int, int], tuple[tuple[int, float], ...]] = {}
        for i in range(size):
            for j in range(size):
                row = entries.get((i, j), entries.get((j, i)))
                if row is None:
                    raise DomainError(f"table entry for pair ({i},{j}) missing")
                self._table[(i, j)] = row
        rows = tuple(self._table.values())  # pair (i, j) at i * size + j
        self._signature = ("finite", self.size, self.identity, rows)
        # the table as CSR arrays: the entries of pair p are starts[p]..starts[p + 1] of points and weights
        self._starts = np.cumsum([0] + [len(row) for row in rows])
        self._points = np.array([k for row in rows for k, _ in row], dtype=np.intp)
        self._weights = np.array([w for row in rows for _, w in row], dtype=float)

    @cached_property
    def tensor(self) -> np.ndarray:
        """Structure constants C[i, j, k] = weight at k of delta_i * delta_j."""
        c = np.zeros(_capped((self.size,) * 3))
        pairs = np.repeat(np.arange(self.size**2), np.diff(self._starts))
        c.reshape(-1, self.size)[pairs, self._points] = self._weights
        return c

    def _pairs(self, xs: np.ndarray, ys: np.ndarray) -> PairSupports:
        p = xs * self.size + ys
        counts = self._starts[p + 1] - self._starts[p]
        at = np.repeat(self._starts[p] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        rows = np.repeat(np.arange(len(p)), counts)
        return PairSupports(rows, self._points[at], self._weights[at], len(p), _defined(len(p)))

    def validate_point(self, x: Any) -> int:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise DomainError(f"point {x!r} is not a carrier index")
        i = int(x)
        if not 0 <= i < self.size:
            raise DomainError(f"index {i} outside carrier of size {self.size}")
        return i

    def sample_points(self, bound: int = 0) -> list[Point]:
        return list(range(self.size))

    @property
    def signature(self) -> tuple:
        return self._signature

    def describe(self) -> str:
        return f"finite(size={self.size}, identity={self.identity})"


def _table_entries(table: Any) -> Iterable[tuple[int, int, Any]]:
    if isinstance(table, Mapping):
        for (i, j), row in table.items():
            yield int(i), int(j), row
    else:
        for item in table:
            i, j, row = item
            yield int(i), int(j), row


def _canonical_row(row: Any, size: int) -> tuple[tuple[int, float], ...]:
    acc: dict[int, float] = {}
    for k, w in row:
        k = int(k)
        w = float(w)
        if not 0 <= k < size:
            raise DomainError(f"support index {k} outside carrier of size {size}")
        if not math.isfinite(w):
            raise DomainError("non-finite table weight")
        acc[k] = acc.get(k, 0.0) + w
    return tuple(sorted((k, w) for k, w in acc.items() if w != 0.0))


class PolynomialHypergroup(Hypergroup):
    """Hypergroup on N induced by a polynomial family with P_n(1) = 1.

    Parametrisation: P_0 = 1, P_1(x) = (x - b0)/a0 with a0 > 0, a0 + b0 = 1,
    and for n >= 1 the recurrence P_1 * P_n = a_n P_{n+1} + b_n P_n + c_n P_{n-1}
    with a_n, c_n > 0, b_n >= 0, a_n + b_n + c_n = 1.  The convolution of point
    masses at m, n is the linearization of P_m * P_n in the P-basis.  A named
    family (the presets) compares equal by name, a0 and b0.
    """

    kind = "polynomial"
    identity = 0

    def __init__(
        self,
        a0: float,
        b0: float,
        coeffs: Callable[[int], CoeffRow] | Sequence[CoeffRow],
        name: str | None = None,
    ):
        a0 = float(a0)
        b0 = float(b0)
        if a0 <= 0:
            raise DomainError("a0 must be positive")
        if abs(a0 + b0 - 1.0) > 1e-12:
            raise DomainError("a0 + b0 must equal 1")
        self.a0 = a0
        self.b0 = b0
        self.name = name
        if callable(coeffs):
            self._coeff_fn: Callable[[int], CoeffRow] | None = coeffs
            self._coeff_list: tuple[CoeffRow, ...] | None = None
        else:
            self._coeff_fn = None
            self._coeff_list = tuple((float(a), float(b), float(c)) for a, b, c in coeffs)
        self._rows: dict[int, CoeffRow] = {}
        # recurrence rows as an array for `_lin_table`; row 0 is P_1 * P_0 = P_1
        self._abc = np.array([[1.0, 0.0, 0.0]])
        self._row_errors: dict[int, str] = {}
        # linearization table: the slot of column n (-1 if not held), rows[c, m, l] and errs[c, m]
        self._lin: tuple[np.ndarray, ...] = ()
        self._lin_bound: float | None = None  # the tolerance bound it was built for

    def coefficient_row(self, n: int) -> CoeffRow:
        """Recurrence row (a_n, b_n, c_n) for n >= 1, validated on first use."""
        if n < 1:
            raise DomainError("coefficient rows are indexed from 1")
        row = self._rows.get(n)
        if row is not None:
            return row
        if self._coeff_fn is not None:
            raw = self._coeff_fn(n)
        else:
            assert self._coeff_list is not None
            if n > len(self._coeff_list):
                raise DomainError(
                    f"coefficient list has {len(self._coeff_list)} rows, row {n} requested"
                )
            raw = self._coeff_list[n - 1]
        a, b, c = (float(v) for v in raw)
        if not (a > 0 and c > 0):
            raise DomainError(f"row {n}: a_n and c_n must be positive, got ({a}, {b}, {c})")
        if b < 0:
            raise DomainError(f"row {n}: b_n must be nonnegative, got {b}")
        if abs(a + b + c - 1.0) > 1e-12:
            raise DomainError(f"row {n}: a_n + b_n + c_n must equal 1, got {a + b + c}")
        self._rows[n] = (a, b, c)
        return self._rows[n]

    def _row_block(self, hi: int) -> np.ndarray:
        """Rows 0..hi as an array; an invalid row is zeros, its error kept aside."""
        fresh = []
        for n in range(len(self._abc), hi + 1):
            try:
                fresh.append(self.coefficient_row(n))
            except DomainError as exc:
                self._row_errors[n] = str(exc)
                fresh.append((0.0, 0.0, 0.0))
        if fresh:
            self._abc = np.concatenate([self._abc, fresh])
        return self._abc[: hi + 1]

    def linearization(self, m: int, n: int) -> tuple[tuple[int, float], ...]:
        """Coefficients [(l, c(m,n,l)), ...] of P_m * P_n in the P-basis, by the
        recurrence in m (`_lin_rows`).  A coefficient that is negative, or
        outside [|n-m|, n+m], beyond tolerance raises rather than being accepted.
        """
        if m < 0 or n < 0:
            raise DomainError("linearization indices must be nonnegative")
        vals, err = self._lin_rows(np.array([m]), np.array([n]))
        if err[0]:
            raise DomainError(err[0])
        nz = np.flatnonzero(vals[0])
        return tuple(zip(nz.tolist(), vals[0, nz].tolist()))

    def _lin_rows(self, ms: np.ndarray, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`_lin_table(ms, ns)` read from the carrier's table of the current default
        tolerance: its columns, ``rows[c, m, l]`` and ``errs[c, m]`` for every step m below
        its height.  A pair outside the table rebuilds it over the union of columns up to
        the larger height, in one `_lin_table` call on that (step, column) grid, kept if it
        fits DENSE_CAP; otherwise `_lin_table` runs on the pairs and the table stays."""
        bound, width = default_tolerance().bound(1.0), int(ms.max() + ns.max()) + 1
        if bound != self._lin_bound:
            self._lin, self._lin_bound = (np.zeros(0, dtype=np.intp), np.zeros((0, 0, 0)), _defined(0)), bound
        _capped((len(ms), width))
        slot, rows, errs = self._lin
        if ns.max() >= len(slot) or ms.max() >= rows.shape[1] or (slot[ns] < 0).any():
            cols, height = np.union1d(np.flatnonzero(slot >= 0), ns), max(rows.shape[1], int(ms.max()) + 1)
            if len(cols) * height * (int(cols[-1]) + height) > DENSE_CAP:
                return self._lin_table(ms, ns, bound)
            vals, err = self._lin_table(np.tile(np.arange(height), len(cols)), np.repeat(cols, height), bound)
            slot = np.full(int(cols[-1]) + 1, -1)
            slot[cols] = np.arange(len(cols))
            self._lin = slot, vals.reshape(len(cols), height, -1), err.reshape(len(cols), height)
            slot, rows, errs = self._lin
        at = slot[ns]
        return rows[at, ms, :width], errs[at, ms]

    def _lin_table(self, ms: np.ndarray, ns: np.ndarray, bound: float) -> tuple[np.ndarray, ...]:
        """Dense rows of P_ms[i] * P_ns[i] and their errors ("" where defined).

        The recurrence runs in m, without recursion, over every requested
        column n at once, as numpy vectors over l and in the float order of
        the scalar recurrence: P_0 * P_n = P_n and, with (a_0, b_0, c_0) = (1, 0, 0),
        P_m * P_n = [P_1*(P_{m-1}*P_n) - b_{m-1} P_{m-1}*P_n - c_{m-1} P_{m-2}*P_n] / a_{m-1}.
        A pair (m, n) first needs rows m-1, ..., 1: the highest invalid one is
        its error.  Otherwise a step that leaves the axioms (a coefficient below
        -bound, or above bound outside [|n-m|, n+m]) or uses an invalid row ends
        its column: every pair read from the column afterwards gets that step's message.
        """
        order = np.argsort(ms, kind="stable")  # pairs are read step by step
        top, width = int(ms.max()), int(ns.max() + ms.max()) + 1
        reads = np.searchsorted(ms[order], np.arange(top + 2))
        cols, col_of = np.unique(ns, return_inverse=True)
        rows = np.append(self._row_block(width - 2), np.zeros((1, 3)), axis=0)  # the last row only meets zeros
        a_l, b_l, c_l = rows.T
        bad_l = np.zeros(width, dtype=bool)
        bad_l[[r for r in self._row_errors if r < width]] = True
        highest_bad = np.maximum.accumulate(np.where(bad_l, np.arange(width), 0))[np.maximum(ms - 1, 0)]
        vals, err = np.zeros(_capped((len(ms), width))), _defined(len(ms))
        dead, alive = _defined(len(cols)), np.ones(len(cols), dtype=bool)
        low, mid = np.zeros((2, len(cols), width))
        mid[np.arange(len(cols)), cols] = 1.0
        for m in range(top + 1):
            if m > 1 and bad_l[m - 1]:
                break  # every pair read from here on has an invalid row below it
            if m:
                a, b, c = rows[m - 1] if m > 1 else (1.0, 0.0, 0.0)
                new = mid * b_l  # the b_l term; float addition commutes with the a_l term
                new[:, 1:] += mid[:, :-1] * a_l[:-1]
                if b:
                    new -= b * mid
                new[:, :-1] += mid[:, 1:] * c_l[1:]
                new -= c * low
                new /= a
                below = np.arange(width) < np.abs(cols - m)[:, None]
                viol = (new < -bound) | (below & (new > bound))
                uses_bad = (mid != 0) & bad_l
                for i in np.flatnonzero(alive & (viol.any(axis=1) | uses_bad.any(axis=1))):
                    dead[i], alive[i] = self._step_error(m, int(cols[i]), new[i], viol[i], uses_bad[i]), False
                new[below] = 0.0
                new[~alive] = 0.0
                low, mid = mid, new
            at = order[reads[m] : reads[m + 1]]
            vals[at] = mid[col_of[at]]
            err[at] = dead[col_of[at]]
        for i in np.flatnonzero(highest_bad):
            err[i] = self._row_errors[int(highest_bad[i])]
        return vals, err

    def _step_error(self, m: int, n: int, new: np.ndarray, viol: np.ndarray, uses_bad: np.ndarray) -> str:
        """Message for the first failure of step m in column n."""
        if uses_bad.any():
            return self._row_errors[int(np.argmax(uses_bad))]
        l = int(np.argmax(viol))
        w, lo = float(new[l]), abs(n - m)
        if l < lo:
            return f"linearization({m},{n}) produced coefficient {w} at l={l} outside [{lo},{n + m}]"
        return (
            f"linearization({m},{n}) produced negative coefficient {w} at l={l}; "
            "the recurrence does not define a hypergroup"
        )

    def _pairs(self, xs: np.ndarray, ys: np.ndarray) -> PairSupports:
        # sorted pairs make every point convolution exactly symmetric in (x, y)
        ms, ns = np.minimum(xs, ys), np.maximum(xs, ys)
        step = max(1, DENSE_CAP // int(ms.max() + ns.max() + 1))
        if len(ms) > step:  # blocks within DENSE_CAP in column order, so that each runs its own columns
            blocks = np.split(np.argsort(ns, kind="stable"), range(step, len(ms), step))
            parts = [self._pairs(ms[at], ns[at]) for at in blocks]
            rows = np.concatenate([at[part.rows] for at, part in zip(blocks, parts)])
            back = np.argsort(rows, kind="stable")  # pair order, each pair's entries in point order
            points, weights = (np.concatenate([part[f] for part in parts])[back] for f in (1, 2))
            err = np.concatenate([part.err for part in parts])[np.argsort(np.concatenate(blocks))]
            return PairSupports(rows[back], points, weights, len(ms), err)
        vals, err = self._lin_rows(ms, ns)
        r, k = np.nonzero(vals)
        return PairSupports(r, k, vals[r, k], len(ms), err)

    def validate_point(self, x: Any) -> int:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise DomainError(f"point {x!r} is not a nonnegative integer")
        i = int(x)
        if i < 0:
            raise DomainError(f"point {i} is negative")
        return i

    def sample_points(self, bound: int) -> list[Point]:
        return list(range(bound + 1))

    def poly_derivatives(self, n: int, z: complex, k: int) -> list[complex]:
        """[P_n(z), P_n'(z), ..., P_n^(k)(z)] by the differentiated three-term recurrence.

        P_1 is affine, so (P_1 * P_m)^(i) = P_1(z) P_m^(i) + i P_1' P_m^(i-1)
        with P_1' = 1/a0; all orders 0..k are carried jointly forward in n, and
        order i never reads an order above i, so it does not depend on k.
        """
        if n < 0 or k < 0:
            raise DomainError("indices must be nonnegative")
        z = complex(z)
        prev = [1.0 + 0j] + [0j] * k  # P_0 and its derivatives
        if n == 0:
            return prev
        p1 = (z - self.b0) / self.a0
        dp1 = 1.0 / self.a0
        cur = [p1] + ([dp1] if k >= 1 else []) + [0j] * max(0, k - 1)
        for m in range(1, n):
            a, b, c = self.coefficient_row(m)
            nxt = [0j] * (k + 1)
            for i in range(k + 1):
                s = p1 * cur[i] - b * cur[i] - c * prev[i]
                if i >= 1:
                    s += i * dp1 * cur[i - 1]
                nxt[i] = s / a
            prev, cur = cur, nxt
        return cur

    def eval_poly_derivative(self, n: int, z: complex, k: int) -> complex:
        """P_n^(k)(z), the last entry of `poly_derivatives`."""
        return self.poly_derivatives(n, z, k)[-1]

    @property
    def signature(self) -> tuple:
        if self.name is not None:
            src: Any = ("named", self.name)
        elif self._coeff_list is not None:
            src = ("rows", self._coeff_list)
        else:
            src = ("fn", id(self._coeff_fn))
        return ("polynomial", self.a0, self.b0, src)

    def describe(self) -> str:
        return f"polynomial({self.name})" if self.name else "polynomial"


class RealLineHypergroup(Hypergroup):
    """The group (R, +) as a hypergroup: delta_x * delta_y = delta_{x+y}.

    Measures stay dict-based and merge support points bitwise.  The point
    convolution of x and y is the one entry x + y, exact on the dyadic sample
    points; a sum keeps the sign of a zero, so -0.0 and 0.0 stay apart.
    """

    kind = "realline"
    identity = 0.0

    def _pairs(self, xs: np.ndarray, ys: np.ndarray) -> PairSupports:
        with np.errstate(over="ignore"):  # a sum past the floats is refused later as a point that is not finite
            sums = xs + ys
        return PairSupports(np.arange(len(xs)), sums, np.ones(len(xs)), len(xs), _defined(len(xs)))

    def validate_point(self, x: Any) -> float:
        if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
            raise DomainError(f"point {x!r} is not a real number")
        v = float(x)
        if not math.isfinite(v):
            raise DomainError(f"point {x!r} is not finite")
        return v

    def sample_points(self, bound: int) -> list[Point]:
        # dyadic grid: float addition on these points is exact, so the
        # bitwise support-merging convention makes group axioms exact
        return [0.5 * k for k in range(-bound, bound + 1)]

    @property
    def signature(self) -> tuple:
        return ("realline",)


# ---------------------------------------------------------------------------
# built-in carriers


def chebyshev() -> PolynomialHypergroup:
    """Chebyshev hypergroup on N: P_1(x) = x, P_1 * P_n = (P_{n+1} + P_{n-1})/2."""
    return PolynomialHypergroup(1.0, 0.0, lambda n: (0.5, 0.0, 0.5), name="chebyshev")


def legendre() -> PolynomialHypergroup:
    """Legendre hypergroup on N: x P_n = (n+1)/(2n+1) P_{n+1} + n/(2n+1) P_{n-1}.

    Linearization coefficients are nonnegative by the classical product
    formula for Legendre polynomials, so the recurrence defines a hypergroup.
    """
    return PolynomialHypergroup(
        1.0, 0.0, lambda n: ((n + 1) / (2 * n + 1), 0.0, n / (2 * n + 1)), name="legendre"
    )


def two_point(theta: float) -> FiniteHypergroup:
    """Two-point hypergroup on {0,1}: delta_1 * delta_1 = theta d0 + (1-theta) d1."""
    theta = float(theta)
    if not 0.0 < theta <= 1.0:
        raise DomainError("theta must lie in (0, 1]")
    table = {
        (0, 0): ((0, 1.0),),
        (0, 1): ((1, 1.0),),
        (1, 0): ((1, 1.0),),
        (1, 1): ((0, theta), (1, 1.0 - theta)),
    }
    return FiniteHypergroup(2, 0, table)


def real_line() -> RealLineHypergroup:
    return RealLineHypergroup()


def exponential_function(hg: Hypergroup, param: Any) -> CFunction:
    """The exponential family of a built-in carrier.

    polynomial: n -> P_n(z) with param z; real line: x -> exp(lambda x) with
    param lambda; finite: param is an index into `enumerate_exponentials`.
    """
    if isinstance(hg, PolynomialHypergroup):
        z = complex(param)
        return CFunction(lambda n: hg.eval_poly_derivative(n, z, 0), kind="exponential", params={"z": z})
    if isinstance(hg, RealLineHypergroup):
        lam = complex(param)
        return CFunction(lambda x: cmath.exp(lam * x), kind="exponential", params={"lambda": lam})
    if isinstance(hg, FiniteHypergroup):
        idx = int(param)
        expos = enumerate_exponentials(hg)
        if not 0 <= idx < len(expos):
            raise DomainError(f"exponential index {idx} out of range (found {len(expos)})")
        return expos[idx]
    raise DomainError(f"no exponential family for carrier kind {hg.kind!r}")


# ---------------------------------------------------------------------------
# axiom checking


def assoc_sample(hg: Hypergroup, n_points: int) -> np.ndarray:
    """Indices into the point sample used for the associativity check.

    Every point on a finite carrier.  On an infinite carrier every point up to
    ASSOC_CAP (48) points, beyond that ASSOC_CAP evenly spaced points with
    both ends included, so the sample never shrinks as the bound grows.
    """
    if isinstance(hg, FiniteHypergroup) or n_points <= ASSOC_CAP:
        return np.arange(n_points)
    return np.rint(np.linspace(0, n_points - 1, ASSOC_CAP)).astype(np.int64)


def _residuals(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per case, over the last axis: worst weight difference and max(1, |weights|)."""
    scl = np.maximum(1.0, np.maximum(np.abs(lhs).max(axis=-1), np.abs(rhs).max(axis=-1)))
    return np.abs(lhs - rhs).max(axis=-1).ravel(), scl.ravel()


def check_axioms(hg: Hypergroup, sample_bound: int = 8, tol: Tolerance | None = None) -> Report:
    """Check the hypergroup axioms on a bounded sample; failures become report entries.

    For finite carriers the check is exhaustive; for infinite carriers points
    are restricted by `sample_bound`, and associativity uses `assoc_sample`.
    The other checks reduce over flat entries.  Records, statuses and
    counterexamples are those of a case-by-case loop that stops at the first
    failure.  An undefined convolution gives an error record.
    """
    if sample_bound < 1:
        raise DomainError("sample_bound must be >= 1")
    tol = tol or default_tolerance()
    pts = hg.sample_points(sample_bound)
    report = Report(
        title=f"hypergroup axioms: {hg.describe()}",
        meta={"sample_bound": sample_bound, "points": len(pts)},
    )
    n, grid = len(pts), np.asarray(pts)
    idx = assoc_sample(hg, n)
    small, s = grid[idx], len(idx)
    pair = _grid(hg, small, small)
    assoc = _associativity(hg, small, pair, 3 * n)  # raises on an oversized sample before any check runs
    flat, points, at = pair if s == n else _grid(hg, grid, grid)
    rows, w, err = flat.rows, flat.weights, flat.err
    bad = err.astype(bool)

    # nonnegativity and normalization of every sampled point convolution; absent entries weigh 0.0
    low, mass = np.zeros(n * n), np.zeros(n * n)
    np.minimum.at(low, rows, w)
    np.add.at(mass, rows, w)  # summed in support order, as total_mass
    k = int(np.argmax(bad))
    for name, law, res, witness in (
        ("nonnegativity", "weights of dx*dy are >= 0", -low,
         lambda k: [pts[k // n], pts[k % n], hg.pair_supports([(pts[k // n], pts[k % n])]).points]),
        ("normalization", "weights of dx*dy sum to 1", np.abs(mass - 1.0),
         lambda k: [pts[k // n], pts[k % n], [float(mass[k]), 0.0]]),
    ):
        if bad.any():
            report.add(name, law, False, error=True, detail=f"({pts[k // n]},{pts[k % n]}): {err[k]}")
        else:
            report.add_worst(name, law, res, np.ones(res.shape), tol, witness)

    ident = hg._pairs(np.full(n, hg.identity), grid)
    hit = ident.points == grid[ident.rows]
    res, top = np.ones(n), np.zeros(n)
    res[ident.rows[hit]] = 0.0  # 1.0 where dx is absent from do * dx
    np.maximum.at(res, ident.rows, np.abs(ident.weights - hit))
    np.maximum.at(top, ident.rows, np.abs(ident.weights))
    blocks = [(res, np.maximum(1.0, top), ident.err)]
    report.add_first_failure("identity", "do * dx = dx", blocks, tol, lambda i: ["o", pts[i]])

    # each entry of dx*dy against the entry of dy*dx at its point, found by its key (pair, point)
    mirror = np.arange(n * n).reshape(n, n).T.ravel()
    keys, wanted = rows * len(points) + at, mirror[rows] * len(points) + at
    found = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    res, top = np.zeros(n * n), np.zeros(n * n)
    np.maximum.at(res, rows, np.abs(w - np.where(keys[found] == wanted, w[found], 0.0)))
    np.maximum.at(top, rows, np.abs(w))
    blocks = [(np.maximum(res, res[mirror]), np.maximum(1.0, np.maximum(top, top[mirror])),
               np.where(bad, err, err[mirror]))]
    report.add_first_failure("commutativity", "dx * dy = dy * dx", blocks, tol, lambda k: [pts[k // n], pts[k % n]])
    report.add_first_failure(
        "associativity", "(dx*dy)*dz = dx*(dy*dz)", assoc, tol,
        lambda k: [small[k // (s * s)].item(), small[k // s % s].item(), small[k % s].item()],
    )
    return report


def _index(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points of C[..., k] holding entries at `points`, and each entry's k: every index
    from 0 up to the largest on a carrier of indices (k the point), else the distinct points."""
    if points.dtype.kind == "i":
        return np.arange(points.max(initial=0) + 1), points
    return np.unique(points, return_inverse=True)


def _grid(hg: Hypergroup, xs: np.ndarray, ys: np.ndarray) -> tuple[PairSupports, np.ndarray, np.ndarray]:
    """The flat entries of xs against ys, pair i * len(ys) + j, and their `_index`."""
    flat = hg._pairs(np.repeat(xs, len(ys)), np.tile(ys, len(xs)))
    return (flat, *_index(flat.points))


def _dense(grid: tuple, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `_grid` of xs against ys, shape (len(xs), len(ys)), scattered into C[i, j, k], the weight at
    points[k] of delta_xs[i] * delta_ys[j], with the points and err[i, j]; refused over DENSE_CAP entries."""
    flat, points, at = grid
    c = np.zeros(_capped((shape[0] * shape[1], len(points))))
    c[flat.rows, at] = flat.weights
    return c.reshape(*shape, len(points)), points, flat.err.reshape(shape)


def _reached(mask: np.ndarray) -> np.ndarray:
    """Closure points reached, as a mask; the first point if none is."""
    return mask if mask.any() else np.arange(len(mask)) == 0


def _on(c: np.ndarray, points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Weights c over the sorted `points` moved onto their sorted superset `target`."""
    if len(points) == len(target):
        return c
    out = np.zeros(c.shape[:-1] + (len(target),))
    out[..., np.searchsorted(target, points)] = c
    return out


def _associativity(hg: Hypergroup, small: np.ndarray, pair: tuple, width: int) -> Iterator[tuple]:
    """Case blocks of (dx*dy)*dz against dx*(dy*dz), one x of the sample at a time.

    With C[y, z, k] the convolutions `pair` (a `_grid`) of the sample, the left side contracts
    C[x, y, k] with C[k, z, .] and the right side C[y, z, k] with C[x, k, .].
    Runs of x share the tensors dk*dz and dx*dk, kept within DENSE_CAP by
    `width`, a bound on the points they reach; an x that does not fit on that
    bound runs alone, and one whose arrays exceed DENSE_CAP raises DomainError
    here, before any block, unless a convolution that an earlier x needs is
    undefined: the scan stops there first.  A case that needs an undefined
    convolution errs with the first message in the structures of its run.
    """
    s = len(small)
    c, points, err = _dense(pair, (s, s))
    nz, bad = c != 0, err.astype(bool)
    used, reach = _reached(nz.any(axis=(0, 1))), nz.any(axis=1)
    lone = np.flatnonzero((reach.sum(axis=1) * s + used.sum()) * width > DENSE_CAP)
    if lone.size:  # dk * dz for every k reached up to the last such x, and dx * dk
        held = np.flatnonzero(reach[: lone[-1] + 1].any(axis=0) | (np.arange(len(points)) == 0))
        right, left = _grid(hg, points[held], small)[0], _grid(hg, small, points[used])[0]
    for i in lone.tolist():
        ks = _reached(reach[i])
        shapes = [(int(ks.sum()) * s, len(_index(right.points[ks[held[right.rows // s]]])[0])),
                  (int(used.sum()), len(_index(left.points[left.rows // used.sum() == i])[0]))]
        if all(math.prod(shape) <= DENSE_CAP for shape in shapes):
            continue
        if reach[:i].any(axis=0)[held[np.flatnonzero(right.err) // s]].any() or left.err[: i * used.sum()].any():
            break
        for shape in shapes:
            _capped(shape)
    closure = c[:, :, used].reshape(s * s, -1)
    closure_nz = closure != 0

    def blocks() -> Iterator[tuple]:
        first = 0
        while first < s:
            reach = np.logical_or.accumulate(nz[first:].any(axis=1), axis=0).sum(axis=1)
            cost = (reach * s + np.arange(1, s - first + 1) * used.sum()) * width
            end = first + max(1, int(np.sum(cost <= DENSE_CAP)))
            mask = _reached(nz[first:end].any(axis=(0, 1)))
            right, right_points, right_err = _dense(_grid(hg, points[mask], small), (int(mask.sum()), s))  # dk * dz
            left, left_points, left_err = _dense(  # dx * dk
                _grid(hg, small[first:end], points[used]), (end - first, int(used.sum())))
            target = np.union1d(right_points, left_points)
            right_bad, left_bad = right_err.astype(bool), left_err.astype(bool)
            msg = next((m for e in (err, right_err, left_err) for m in e[e.astype(bool)]), None)
            right, run = right.reshape(mask.sum(), -1), c[first:end][:, :, mask]
            for i in range(first, end):
                t = run[i - first]
                lhs = _on((t @ right).reshape(s, s, -1), right_points, target)
                rhs = _on((closure @ left[i - first]).reshape(s, s, -1), left_points, target)
                if msg is None:
                    yield (*_residuals(lhs, rhs), None)
                    continue
                errs = bad[i][:, None] | ((t != 0) @ right_bad) | bad | (closure_nz @ left_bad[i - first]).reshape(s, s)
                yield (*_residuals(lhs, rhs), np.where(errs.ravel(), msg, "").astype(object))
            first = end

    return blocks()


# ---------------------------------------------------------------------------
# exponentials on finite carriers


def _cluster_indices(values: np.ndarray, tol: float) -> list[list[int]]:
    order = sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag))
    groups: list[list[int]] = []
    for i in order:
        if groups and abs(values[i] - values[groups[-1][-1]]) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def enumerate_exponentials(hg: FiniteHypergroup, tol: Tolerance | None = None) -> list[CFunction]:
    """All exponentials of a finite hypergroup.

    An exponential is a joint eigenvector of the translation matrices
    T_x = C[x], normalised to 1 at the identity.  Eigenspaces are intersected
    across all generators; if the refinement does not end in one-dimensional
    joint eigenspaces, or a candidate fails re-verification against the
    defining equation, a DecompositionError names the defect.
    """
    tol = tol or default_tolerance()
    n = hg.size
    c = hg.tensor
    blocks: list[np.ndarray] = [np.eye(n, dtype=complex)]
    for x, T in enumerate(c.astype(complex)):
        refined: list[np.ndarray] = []
        for basis in blocks:
            if basis.shape[1] == 1:
                refined.append(basis)
                continue
            # restriction of T to the (T-invariant) subspace spanned by basis
            restricted, *_ = np.linalg.lstsq(basis, T @ basis, rcond=None)
            try:
                evals, evecs = np.linalg.eig(restricted)
            except np.linalg.LinAlgError as exc:
                raise DecompositionError(f"eigendecomposition of T_{x} failed: {exc}") from exc
            cluster_tol = 1e-8 * max(1.0, float(np.max(np.abs(evals))))
            for group in _cluster_indices(evals, cluster_tol):
                vecs = basis @ evecs[:, group]
                q, _ = np.linalg.qr(vecs)
                refined.append(q[:, : len(group)])
        blocks = refined
    for basis in blocks:
        if basis.shape[1] != 1:
            raise DecompositionError(
                f"joint eigenspace of dimension {basis.shape[1]} remains after refining over "
                "all translations; the translation algebra is not (numerically) semisimple"
            )
    o = hg.identity
    found: list[np.ndarray] = []
    for basis in blocks:
        v = basis[:, 0]
        pivot = v[o]
        if abs(pivot) < 1e-10 * float(np.linalg.norm(v)):
            break
        found.append(v / pivot)
    # re-verification: <dx*dy, v> = v(x) v(y) for every pair, per candidate
    vs = np.array(found).reshape(len(found), n)
    lhs = np.einsum("xyk,bk->bxy", c, vs)
    rhs = vs[:, :, None] * vs[:, None, :]
    res = np.abs(lhs - rhs).reshape(len(found), -1)
    scl = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs))).reshape(len(found), -1)
    fails = tol.fails(res, scl)
    if fails.any():  # reported at the worst failing case of the first failing candidate
        b = int(np.argmax(fails.any(axis=1)))
        i = np.argmax(np.where(fails[b], res[b] / scl[b], -np.inf))
        raise DecompositionError(f"joint eigenvector failed exponential re-verification (residual {res[b, i]:.3e})")
    if len(found) < len(blocks):
        raise DecompositionError("joint eigenvector vanishes at the identity")
    functions = [CFunction.from_table({x: complex(v[x]) for x in range(n)}, kind="exponential") for v in found]
    functions.sort(
        key=lambda f: tuple(
            (-round(f(x).real, 10), -round(f(x).imag, 10)) for x in range(n)
        )
    )
    return functions
