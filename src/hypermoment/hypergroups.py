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
delta_x * delta_y, from a finite table's flat rows (its only form), from the
rows a polynomial carrier has run (each column on its own band), or x + y.
Only the associativity check scatters them into dense arrays (`_dense`).
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .config import Tolerance, default_tolerance
from .errors import DecompositionError, DomainError
from .measures import CFunction, Measure, Point, _points, complex_abs, complex_product
from .reports import Report

CoeffRow = tuple[float, float, float]

# associativity sample of an infinite carrier, in points
ASSOC_CAP = 48
# entries of one dense array (64 MB of float64), over which associativity and the extension system are refused;
# a polynomial carrier runs a read's band of columns while that recurrence grid fits, and keeps at most as many entries
DENSE_CAP = 1 << 23
# row (m, n) of a polynomial carrier's linearization table has the int64 key m * COLUMNS + n: n < 2^40, m < 2^23
COLUMNS = 1 << 40
# entries of one block: of the candidates (candidates x entries or pairs) `_exponentials` re-verifies at once, and
# of the ring of rows a `_lin_table` run holds between two reads of its pairs
BLOCK_ENTRIES = 1 << 18


def _capped(shape: tuple[int, ...], what: str = "structure array") -> tuple[int, ...]:
    if math.prod(shape) > DENSE_CAP:
        raise DomainError(f"{what} of shape {shape} exceeds {DENSE_CAP} entries; use a smaller sample")
    return shape


def _defined(count: int) -> np.ndarray:
    return np.full(count, "", dtype=object)


class PairSupports(NamedTuple):
    """Point convolutions of `count` pairs as flat entries, in pair order and
    within a pair in point order, as `convolve_points` lists its support: the
    convolution of pair ``rows[e]`` has weight ``weights[e]`` at ``points[e]``;
    ``err[p]`` is the message of an undefined pair p, which has no entries ("" if defined)."""

    rows: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    count: int
    err: np.ndarray

    def pairings(self, values: np.ndarray) -> np.ndarray:
        """<dx*dy, f> of every pair from f's values at the entries (last axis),
        each summed in support order, as `measures.pair` sums."""
        out = np.zeros(values.shape[:-1] + (self.count,), dtype=complex)
        np.add.at(out.T, self.rows, (values * self.weights).T)
        return out

    def products(self, values: np.ndarray, at_k: np.ndarray, at_x: np.ndarray, at_y: np.ndarray) -> tuple:
        """<dx*dy, f> against f(x) f(y) per row f of `values` (functions x points), gathered by at_k at the entries
        and by at_x, at_y at the pairs: lhs, rhs, res, scale."""
        with np.errstate(over="ignore", invalid="ignore"):  # a product past the floats fails its case
            lhs, rhs = self.pairings(values[:, at_k]), complex_product(values[:, at_x], values[:, at_y])
            return lhs, rhs, complex_abs(lhs - rhs), np.maximum(1.0, np.maximum(complex_abs(lhs), complex_abs(rhs)))


def _gather(table: PairSupports, starts: np.ndarray, p: np.ndarray) -> PairSupports:
    """Rows p of a flat table whose row r holds the entries starts[r]..starts[r + 1]."""
    counts = starts[p + 1] - starts[p]
    rows = np.repeat(np.arange(len(p)), counts)
    at = (starts[p] - np.cumsum(counts) + counts)[rows] + np.arange(len(rows))
    return PairSupports(rows, table.points[at], table.weights[at], len(p), table.err[p])


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

    @cached_property
    def _pair_tables(self) -> dict:  # kept by `operators._pair_table`, least recently used first
        return {}

    def pair_supports(self, pairs: Sequence[tuple[Point, Point]]) -> PairSupports:
        """The point convolutions of `pairs`: their points validated, then one `_read`.  Raises the
        DomainError that a loop over the pairs meets first: an invalid point or an undefined convolution."""
        valid, failure, seen, pairs = [], None, {}, list(pairs)  # held, so each point keeps its id
        for x, y in pairs:
            try:  # each point object validated once, keyed by id: -0.0 and 0.0 stay apart
                valid.append((seen[id(x)] if id(x) in seen else seen.setdefault(id(x), self.validate_point(x)),
                              seen[id(y)] if id(y) in seen else seen.setdefault(id(y), self.validate_point(y))))
            except DomainError as exc:
                failure = exc
                break
        sup = self._read(valid)
        if failure is not None:
            raise failure
        return sup

    def _read(self, pairs: list[tuple[Point, Point]]) -> PairSupports:
        """The point convolutions of `pairs` of valid points, from one `_pairs` call; raises the
        DomainError of the first undefined convolution."""
        points = _points(pairs)  # an int past int64 kept whole, so a refusal names the point given
        empty = PairSupports(np.zeros(0, dtype=np.intp), np.zeros(0, type(self.identity)), np.zeros(0), 0, _defined(0))
        flat = self._pairs(*points.T) if pairs else empty
        bad = flat.err.astype(bool)
        if bad.any():
            raise DomainError(flat.err[np.argmax(bad)])
        return flat

    def convolve_points(self, x: Point, y: Point) -> Measure:
        """Convolution of the point masses at x and y, as a probability measure."""
        sup = self.pair_supports([(x, y)])
        return Measure.from_items(self, zip(sup.points.tolist(), sup.weights.tolist()))

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
        # the table as flat rows: the entries of pair p are starts[p]..starts[p + 1]
        self._starts = np.cumsum([0] + [len(row) for row in rows])
        points = np.array([k for row in rows for k, _ in row], dtype=np.intp)
        weights = np.array([w for row in rows for _, w in row], dtype=float)
        pairs = np.repeat(np.arange(len(rows)), np.diff(self._starts))
        self._entries = PairSupports(pairs, points, weights, len(rows), _defined(len(rows)))

    def _pairs(self, xs: np.ndarray, ys: np.ndarray) -> PairSupports:
        return _gather(self._entries, self._starts, xs * self.size + ys)

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
        self._row_errors: dict[int, str] = {}
        # the linearization table of one tolerance bound: key m * COLUMNS + n of each row, their order, starts, rows
        self._lin: dict[float, tuple] = {}

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

    def _row_block(self, ls: np.ndarray) -> np.ndarray:
        """Rows ls as a (len(ls), 3) array: row 0 is (1, 0, 0), for P_1 * P_0 = P_1; an invalid row zeros, error kept"""
        distinct, at = np.unique(ls, return_inverse=True)
        fetched = []
        for n in distinct.tolist():
            try:
                fetched.append(self.coefficient_row(n) if n and n not in self._row_errors else (n == 0, 0, 0))
            except DomainError as exc:
                self._row_errors[n] = str(exc)
                fetched.append((0.0, 0.0, 0.0))
        return np.array(fetched, dtype=float)[at]

    def linearization(self, m: int, n: int) -> tuple[tuple[int, float], ...]:
        """Coefficients [(l, c(m,n,l)), ...] of P_m * P_n in the P-basis, by the
        recurrence in m (`_lin_rows`).  A coefficient that is negative, or
        outside [|n-m|, n+m], beyond tolerance raises rather than being accepted.
        """
        if m < 0 or n < 0:
            raise DomainError("linearization indices must be nonnegative")
        sup = self._lin_rows(np.array([m]), np.array([n]))
        if sup.err[0]:
            raise DomainError(sup.err[0])
        return tuple(zip(sup.points.tolist(), sup.weights.tolist()))

    def _lin_rows(self, ms: np.ndarray, ns: np.ndarray) -> PairSupports:
        """The rows of P_ms[i] * P_ns[i] as flat entries (`_lin_table`), gathered from the carrier's table of the
        current default tolerance.  Its missing rows run in one `_lin_table` call: every missing row below their
        top step h on the band of their columns (P_m * P_n lies on l in [|n-m|, n+m]: n-(h-1)..n+(h-1), clipped
        at 0) if that grid (columns x height x width) fits DENSE_CAP, so that an axiom check's sample grid also
        runs the rows its associativity reads; else they alone.  A run is kept while the table holds at most
        DENSE_CAP entries.  A pair whose key would leave int64 is refused."""

        def row_of(keys: np.ndarray) -> np.ndarray:  # the row of each key in the table `lin`, -1 if absent
            if not lin:
                return np.full(len(keys), -1)
            at = lin[1].take(np.searchsorted(lin[0], keys, sorter=lin[1]), mode="wrap")  # past the last: the first
            return np.where(lin[0][at] == keys, at, -1)

        bound = default_tolerance().bound(1.0)
        if ns.max() >= COLUMNS or ms.max() >= (1 << 63) // COLUMNS:  # m * COLUMNS + n would leave int64
            i = int(np.argmax((ns >= COLUMNS) | (ms >= (1 << 63) // COLUMNS)))
            raise DomainError(f"linearization({int(ms[i])},{int(ns[i])}) is too large for the int64 table keys")
        keys = ms * COLUMNS + ns
        lin = self._lin.get(bound, ())  # rows checked against another tolerance bound are not read
        at = row_of(keys)
        if (at < 0).any():
            want = np.unique(keys[at < 0], return_inverse=True)[0]  # by step, then column; no numpy.ma
            m, n = np.divmod(want, COLUMNS)
            height = int(m[-1]) + 1
            if height * (int(n.max()) + height) <= DENSE_CAP:  # the top column's grid alone bounds the band's
                band = np.flatnonzero(np.convolve(np.bincount(n), np.ones(2 * height - 1))[height - 1 :])
                if len(band) * height * (int(band[-1]) + height) <= DENSE_CAP:
                    want = (np.arange(height)[:, None] * COLUMNS + band).ravel()
                    m, n = np.divmod(want := want[row_of(want) < 0], COLUMNS)
            run = self._lin_table(m, n, bound)
            starts = np.searchsorted(run.rows, np.arange(run.count + 1))
            if lin:  # the held rows first, then the run's: no copy into an empty table
                want = np.concatenate([lin[0], want])
                starts = np.concatenate([lin[2][:-1], lin[2][-1] + starts])
                run = PairSupports(None, np.concatenate([lin[3].points, run.points]), np.concatenate(
                    [lin[3].weights, run.weights]), lin[3].count + run.count, np.concatenate([lin[3].err, run.err]))
            lin = want, np.argsort(want), starts, run._replace(rows=None)  # the starts hold the rows
            if len(run.points) <= DENSE_CAP:
                self._lin = {bound: lin}
            at = row_of(keys)
        return _gather(lin[3], lin[2], at)

    def _lin_table(self, ms: np.ndarray, ns: np.ndarray, bound: float) -> PairSupports:
        """Flat rows of P_ms[i] * P_ns[i], distinct pairs sorted by step m, then column n: the nonzeros
        of each row in point order, and its error ("" where defined).

        The recurrence runs in m, without recursion, over every requested
        column n at once, as numpy vectors over l and in the float order of
        the scalar recurrence: P_0 * P_n = P_n and, with (a_0, b_0, c_0) = (1, 0, 0),
        P_m * P_n = [P_1*(P_{m-1}*P_n) - b_{m-1} P_{m-1}*P_n - c_{m-1} P_{m-2}*P_n] / a_{m-1}.
        Each column n holds its own band of l, from max(n - top, 0) and top + min(max n, top) + 1 wide:
        every row it reaches lies there, and a term from outside it is a product with zero.  A step is
        one flat row, each band followed by a guard slot whose coefficients are 0, so that l - 1 and l + 1
        are shifts of the whole row.  Step m lies in row m % ring of a ring of at most BLOCK_ENTRIES
        entries (3 rows at least); its pairs are read (one gather, one nonzero) before the row is reused.
        A pair (m, n) first needs rows m-1, ..., 1: the highest invalid one is
        its error.  Otherwise a step that leaves the axioms (a coefficient below
        -bound, or above bound outside [|n-m|, n+m]) or uses an invalid row ends
        its column: every pair of the column from that step on gets that step's message.
        Only a step that may fail is checked in full: its least value is below -bound, a value on the slots
        l = m-n-1, m-n-2 of a column n < m (the only ones below |n-m| that the step reaches) exceeds
        bound, or, once the carrier has met an invalid row, the previous row is nonzero on one.
        """
        top = int(ms[-1])
        reads = np.searchsorted(ms, np.arange(top + 2))  # step m reads the pairs reads[m]..reads[m + 1]
        cols, col_of = np.unique(ns, return_inverse=True)
        ls = np.maximum(cols - top, 0)[:, None] + np.arange(top + min(int(cols[-1]), top) + 1)  # each column's band
        rows = self._row_block(np.concatenate([np.arange(top), ls.ravel()]))  # the step rows 0..top-1, then the bands'
        width, span = ls.shape[1], len(cols) * (ls.shape[1] + 1)
        coef = np.zeros((3, len(cols), width + 1))  # a_l, b_l, c_l of each band, then its guard slot
        coef[:, :, :width] = rows[top:].T.reshape(3, *ls.shape)
        (a_l, b_l, c_l), steps, b_any = coef.reshape(3, span), rows[:top].tolist(), coef[1].any()
        bad = np.flatnonzero(rows[:top, 0] == 0)  # the invalid rows below the top step
        ring = max(3, min(top + 1, BLOCK_ENTRIES // span))  # row -1 (step -1) stays 0 until step ring - 1
        buf = np.zeros((ring, span))
        grid = buf.reshape(ring, len(cols), width + 1)
        grid[0, np.arange(len(cols)), cols - ls[:, 0]] = 1.0
        reach = ((np.arange(len(cols)) * (width + 1) - cols)[:, None] - [1, 2]).ravel()  # + m: slots m-n-1, m-n-2
        lows = np.searchsorted(cols, np.arange(top + 1)).tolist()  # the columns n < m at step m
        on_bad = np.flatnonzero(a_l == 0) if self._row_errors else ()  # invalid rows (zeros) and the guards, held 0
        entries = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)]  # none read yet
        end, dead, gone, unread = np.full(len(cols), top + 1), _defined(len(cols)), (), 0

        def read(stop: int) -> None:  # the pairs of the steps unread..stop-1, from their rows in the ring
            if reads[stop] > reads[unread]:
                at = slice(reads[unread], reads[stop])
                r, j = np.divmod(np.flatnonzero((got := grid[ms[at] % ring, col_of[at], :width]) != 0), width)
                entries.append((r + reads[unread], ls[col_of[at][r], j], got[r, j]))

        for m in range(1, top + 2):
            if m > top or m > 1 and m - 1 in self._row_errors:
                break  # past the top, or every pair read from here on has an invalid row below it
            if m - unread == ring:  # row m % ring holds step m - ring, not read yet
                read(m)
                unread = m
            low, mid, new = buf[(m - 2) % ring], buf[(m - 1) % ring], buf[m % ring]
            a, b, c = steps[m - 1]
            np.multiply(mid[:-1], a_l[:-1], out=new[1:])  # the a_l term; float addition commutes with the b_l term
            new[0] = 0.0
            if b_any:
                new += mid * b_l
            if b:
                new -= b * mid
            new[:-1] += mid[1:] * c_l[1:]
            new -= c * low
            new /= a
            if len(gone):
                grid[m % ring, gone] = 0.0  # an ended column stays 0
            at = reach[: 2 * lows[m]] + m
            if (np.fmin.reduce(new) < -bound or np.fmax.reduce(new[at], initial=0.0) > bound
                    or len(on_bad) and mid[on_bad].any()):
                row, prev = grid[m % ring, :, :width], grid[(m - 1) % ring, :, :width]
                viol = (row < -bound) | ((ls < np.abs(cols - m)[:, None]) & (row > bound))
                failing = viol.any(axis=1)
                if self._row_errors:  # an invalid row is zeros; a valid one has a_l > 0
                    failing |= ((prev != 0) & (coef[0, :, :width] == 0)).any(axis=1)
                for i in np.flatnonzero(failing & (end > m)):
                    dead[i], end[i] = self._step_error(m, cols[i], ls[i], row[i], viol[i], prev[i]), m
                gone = np.flatnonzero(end <= m)
                grid[m % ring, gone] = 0.0
            new[at] = 0.0
        read(m)
        err, late = _defined(len(ms)), ms >= end[col_of]  # read at or after the step that ended its column
        err[late] = dead[col_of[late]]
        under = np.searchsorted(bad, ms - 1, side="right")  # the invalid rows below each pair's step
        for i in np.flatnonzero(under):
            err[i] = self._row_errors[bad[under[i] - 1]]
        return PairSupports(*(np.concatenate(part) for part in zip(*entries)), len(ms), err)

    def _step_error(self, m: int, n: int, ls: np.ndarray, new: np.ndarray, viol: np.ndarray, mid: np.ndarray) -> str:
        """Message for the first failure of step m in column n, on the band ls, whose previous row is `mid`."""
        uses_bad = [l for l in ls[mid != 0].tolist() if l in self._row_errors]
        if uses_bad:
            return self._row_errors[uses_bad[0]]
        j = int(np.argmax(viol))
        l, w, lo = int(ls[j]), float(new[j]), abs(n - m)
        if l < lo:
            return f"linearization({m},{n}) produced coefficient {w} at l={l} outside [{lo},{n + m}]"
        return (
            f"linearization({m},{n}) produced negative coefficient {w} at l={l}; "
            "the recurrence does not define a hypergroup"
        )

    def _pairs(self, xs: np.ndarray, ys: np.ndarray) -> PairSupports:
        # sorted pairs make every point convolution exactly symmetric in (x, y)
        return self._lin_rows(np.minimum(xs, ys), np.maximum(xs, ys))

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
        """[P_n(z), P_n'(z), ..., P_n^(k)(z)]: row n of a `DerivativeRun` to n."""
        if n < 0 or k < 0:
            raise DomainError("indices must be nonnegative")
        run = DerivativeRun(self, z, k)
        return run.upto(n)[n] if n else run.rows[0]  # any n equal to 0 (0.0, False) reads row 0

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


class DerivativeRun:
    """One forward run of the differentiated three-term recurrence at z: ``rows[n][i]`` is
    P_n^(i)(z), i = 0..k.  P_1 is affine, so (P_1 * P_m)^(i) = P_1(z) P_m^(i) + i P_1' P_m^(i-1)
    with P_1' = 1/a0; order i never reads an order above i, so row n depends neither on k nor on
    how far the run has gone.  `upto` grows it; an invalid row raises there, the rows below stay."""

    def __init__(self, hg: PolynomialHypergroup, z: complex, k: int):
        self.hg, self.k, self.p1, self.dp1 = hg, k, (complex(z) - hg.b0) / hg.a0, 1.0 / hg.a0
        self.rows = [[1.0 + 0j] + [0j] * k, [self.p1] + ([self.dp1] if k >= 1 else []) + [0j] * max(0, k - 1)]

    def upto(self, top: int) -> list[list[complex]]:
        """The rows, grown to hold row `top`."""
        rows, k, p1, dp1 = self.rows, self.k, self.p1, self.dp1
        for m in range(len(rows) - 1, top):
            a, b, c = self.hg.coefficient_row(m)
            prev, cur = rows[-2], rows[-1]
            nxt = [0j] * (k + 1)
            for i in range(k + 1):
                s = p1 * cur[i] - b * cur[i] - c * prev[i]
                if i >= 1:
                    s += i * dp1 * cur[i - 1]
                nxt[i] = s / a
            rows.append(nxt)
        return rows


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
    """Per case, over the points (axis 1 of [x, point, case]): worst weight difference and max(1, |weights|),
    each max one vectorized pass over the cases; lhs is overwritten by the differences."""
    scl = np.maximum(1.0, np.maximum.reduce([lhs.max(axis=1), -lhs.min(axis=1), rhs.max(axis=1), -rhs.min(axis=1)]))
    return np.abs(np.subtract(lhs, rhs, out=lhs), out=lhs).max(axis=1), scl


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
         lambda k: [pts[k // n], pts[k % n], flat.points[rows == k].tolist()]),
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


def _grid(hg: Hypergroup, xs: np.ndarray, ys: np.ndarray, by_y: bool = False) -> tuple[PairSupports, Any, Any]:
    """The flat entries of xs against ys, pair i * len(ys) + j (j * len(xs) + i if `by_y`), and their `_index`."""
    i, j = (np.tile(xs, len(ys)), np.repeat(ys, len(xs))) if by_y else (np.repeat(xs, len(ys)), np.tile(ys, len(xs)))
    flat = hg._pairs(i, j)
    return (flat, *_index(flat.points))


def _dense(grid: tuple, shape: tuple[int, int], points: np.ndarray | None = None,
           points_first: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A `_grid` of `shape` pairs scattered into C[pair, k], the weight at points[k] (a sorted superset of the
    grid's points, by default its own) of that pair's convolution, or into C[k, pair] if `points_first`; with
    the points and err[pair] in `shape`.  Refused over DENSE_CAP entries."""
    flat, own, at = grid
    points, pairs = (own if points is None else points), shape[0] * shape[1]
    if len(own) and points[len(own) - 1] != own[-1]:  # the grid's points are not the first of `points`
        at = np.searchsorted(points, own)[at]
    c = np.zeros(_capped((len(points), pairs) if points_first else (pairs, len(points))))
    (c.T if points_first else c)[flat.rows, at] = flat.weights
    return c, points, flat.err.reshape(shape)


def _reached(mask: np.ndarray) -> np.ndarray:
    """Closure points reached, as a mask; the first point if none is."""
    return mask if mask.any() else np.arange(len(mask)) == 0


def _associativity(hg: Hypergroup, small: np.ndarray, pair: tuple, width: int) -> Iterator[tuple]:
    """Case blocks of (dx*dy)*dz against dx*(dy*dz), in (x, y, z) order, one block of x at a time.

    With C[y, z, k] the convolutions `pair` (a `_grid`) of the sample, the left side contracts dk*dz as
    [(point, z), k] with C[x, k, y], the right side dx*dk as [x, point, k] with C[y, z, k] as [k, (z, y)]:
    both come out as [x, point, (z, y)], so each max over the points is one pass over the cases of a block.
    Runs of x share dk*dz and dx*dk on the points either reaches, kept within DENSE_CAP by `width`, a
    bound on those points; an x that does not fit on that bound runs alone, and one whose arrays exceed
    DENSE_CAP raises DomainError here, before any block, unless a convolution that an earlier x needs is
    undefined: the scan stops there first.  A block holds the x of a run whose lhs, rhs and scratch
    arrays fit BLOCK_ENTRIES, and ends at the first x with a case that needs an undefined convolution;
    such a case errs with the first message in the structures of its run.
    """
    s = len(small)
    c, points, err = _dense(pair, (s, s))
    c, bad = c.reshape(s, s, -1), err.astype(bool)
    nz = c != 0
    used, reach = _reached(nz.any(axis=(0, 1))), nz.any(axis=1)
    u = int(used.sum())
    lone = np.flatnonzero((reach.sum(axis=1) * s + u) * width > DENSE_CAP)
    if lone.size:  # dk * dz for every k reached up to the last such x, and dx * dk
        held = np.flatnonzero(reach[: lone[-1] + 1].any(axis=0) | (np.arange(len(points)) == 0))
        right, left = _grid(hg, points[held], small)[0], _grid(hg, small, points[used])[0]
    for i in lone.tolist():
        ks = _reached(reach[i])
        t = len(np.unique(np.concatenate([_index(right.points[ks[held[right.rows // s]]])[0],
                                          _index(left.points[left.rows // u == i])[0]]), return_inverse=True)[0])
        shapes = [(int(ks.sum()) * s, t), (u, t)]
        if all(math.prod(shape) <= DENSE_CAP for shape in shapes):
            continue
        if reach[:i].any(axis=0)[held[np.flatnonzero(right.err) // s]].any() or left.err[: i * u].any():
            break
        for shape in shapes:
            _capped(shape)

    def blocks() -> Iterator[tuple]:
        first, closure = 0, None
        while first < s:
            reach = np.logical_or.accumulate(nz[first:].any(axis=1), axis=0).sum(axis=1)
            end = first + max(1, int(np.sum((reach * s + np.arange(1, s - first + 1) * u) * width <= DENSE_CAP)))
            mask = _reached(nz[first:end].any(axis=(0, 1)))
            k, n = int(mask.sum()), end - first
            grids = [_grid(hg, points[mask], small, by_y=True), _grid(hg, small[first:end], points[used])]
            target = np.unique(np.concatenate([grids[0][1], grids[1][1]]), return_inverse=True)[0]  # no numpy.ma
            t = len(target)
            right, _, right_err = _dense(grids.pop(0), (s, k), target, points_first=True)  # popped: freed once dense
            left, _, left_err = _dense(grids.pop(), (n, u), target)  # dx * dk as [x, k, p]
            right, left, right_err = right.reshape(-1, k), left.reshape(n, u, t), right_err.T
            if closure is None:  # C[y, z, k] as [k, (z, y)], made after the first run's dense arrays, off their peak
                closure = np.take(c.transpose(2, 1, 0), np.flatnonzero(used), axis=0).reshape(u, s * s)
                closure_nz = closure != 0
            run = np.take(c[first:end].transpose(0, 2, 1), np.flatnonzero(mask), axis=1)  # C[x, k, y]
            # the cases of x reach no k past ends[x]; dx * dk has no point past pend[x], nor dk * dz past
            # kend[k - 1] in its first k columns: a block contracts and compares up to its last k and point
            live = run.any(axis=2)
            ends, pend = k - np.argmax(live[:, ::-1], axis=1), t - np.argmax(left.any(axis=1)[:, ::-1], axis=1)
            kend = np.maximum.accumulate(t - np.argmax(right.reshape(t, s, k).any(axis=1)[::-1], axis=0))
            right_bad, left_bad = right_err.astype(bool), left_err.astype(bool)
            msg = next((m for e in (err, right_err, left_err) for m in e[e.astype(bool)]), None)
            erring = np.flatnonzero(bad[first:end].any(axis=1) | bad.any() | (live @ right_bad.any(axis=1))
                                    | (left_bad @ closure_nz.any(axis=1))) if msg is not None else []  # x that err
            stop = int(erring[0]) + 1 if len(erring) else n
            step = max(1, BLOCK_ENTRIES // max(1, 4 * s * s * t))
            out = np.empty((2, min(step, n) * t * s * s))  # lhs and rhs of each block
            for i, j in ((i, min(i + step, hi)) for lo, hi in ((0, stop), (stop, n)) for i in range(lo, hi, step)):
                top = int(ends[i:j].max())
                p = max(int(kend[top - 1]), int(pend[i:j].max()))
                lhs, rhs = (o[: (j - i) * p * s * s].reshape(j - i, p, s * s) for o in out)
                np.matmul(right[: p * s, :top], run[i:j, :top], out=lhs.reshape(j - i, -1, s))
                np.matmul(left[i:j, :, :p].transpose(0, 2, 1), closure, out=rhs)
                res, scl = (r.reshape(-1, s, s).transpose(0, 2, 1).ravel() for r in _residuals(lhs, rhs))  # (x, y, z)
                if msg is not None:  # [x, y, z]: dx*dy, dk*dz for k of dx*dy, dy*dz or dx*dk for k of dy*dz undefined
                    errs = (bad[first + i : first + j, :, None] | (run[i:j].transpose(0, 2, 1) != 0) @ right_bad | bad
                            | (left_bad[i:j] @ closure_nz).reshape(-1, s, s).transpose(0, 2, 1))
                yield res, scl, None if msg is None else np.where(errs.ravel(), msg, "").astype(object)
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


def _joint_eigenbases(hg: FiniteHypergroup) -> list[np.ndarray]:
    """Orthonormal bases of the joint eigenspaces of the translations T_x[y, k] = C[x, y, k], scattered from
    the flat rows of the pairs (x, .), refined over x until every block is one-dimensional: each eigenvalue
    cluster of T_x on a block gives a block.  The clusters of one size are orthonormalized by one QR call on
    their stacked vectors (LAPACK factors each matrix of a stack on its own, as a call per cluster would)."""
    n, table = hg.size, hg._entries
    blocks: list[np.ndarray] = [np.eye(n, dtype=complex)]
    for x in range(n):
        if all(basis.shape[1] == 1 for basis in blocks):
            break
        own = slice(hg._starts[x * n], hg._starts[(x + 1) * n])  # the entries of the pairs (x, .)
        T = np.zeros((n, n), dtype=complex)
        T[table.rows[own] - x * n, table.points[own]] = table.weights[own]
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
            groups = _cluster_indices(evals, 1e-8 * max(1.0, float(np.max(np.abs(evals)))))
            vecs, qs = [basis @ evecs[:, group] for group in groups], {}
            for size in {len(group) for group in groups}:
                at = [i for i, group in enumerate(groups) if len(group) == size]
                qs.update(zip(at, np.linalg.qr(np.stack([vecs[i] for i in at]))[0]))
            refined.extend(qs[i] for i in range(len(groups)))
        blocks = refined
    return blocks


def enumerate_exponentials(hg: FiniteHypergroup, tol: Tolerance | None = None) -> list[CFunction]:
    """All exponentials of a finite hypergroup (`_exponentials`)."""
    return [f for f, _ in _exponentials(hg, tol)]


def _exponentials(hg: FiniteHypergroup, tol: Tolerance | None = None) -> list[tuple[CFunction, float]]:
    """All exponentials of a finite hypergroup, each with the worst residual/scale of its re-verification.

    An exponential is a joint eigenvector of the translation matrices
    T_x = C[x], normalised to 1 at the identity.  Eigenspaces are intersected
    across the generators (`_joint_eigenbases`); if the refinement does not end in one-dimensional
    joint eigenspaces, or a candidate fails re-verification against the defining equation
    (`PairSupports.products` on the table's entries), a DecompositionError names the defect.
    """
    tol = tol or default_tolerance()
    n = hg.size
    blocks = _joint_eigenbases(hg)
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
    # re-verification: <dx*dy, v> = v(x) v(y) for every pair (x, y) at x * n + y, per candidate
    xs, ys = np.divmod(np.arange(n * n), n)
    vs, sup = np.array(found).reshape(len(found), n), hg._entries
    step = max(1, BLOCK_ENTRIES // max(1, len(sup.points), n * n))
    worst: list[float] = []
    for first in range(0, len(vs), step):
        *_, res, scl = sup.products(vs[first : first + step], sup.points, xs, ys)
        fails = tol.fails(res, scl)
        if fails.any():  # reported at the worst failing case of the first failing candidate
            b = int(np.argmax(fails.any(axis=1)))
            i = np.argmax(np.where(fails[b], res[b] / scl[b], -np.inf))
            raise DecompositionError(f"joint eigenvector failed exponential re-verification (residual {res[b, i]:.3e})")
        worst += (res / scl).max(axis=1, initial=0.0).tolist()
    if len(found) < len(blocks):
        raise DecompositionError("joint eigenvector vanishes at the identity")
    # sorted on their values, read from the eigenvectors: v.tolist()[x] is the complex(v[x]) `from_table` stores
    judged = sorted(zip(found, worst), key=lambda p: [(-round(c.real, 10), -round(c.imag, 10)) for c in p[0].tolist()])
    return [(CFunction.from_table(dict(enumerate(v.tolist())), kind="exponential"), w) for v, w in judged]
