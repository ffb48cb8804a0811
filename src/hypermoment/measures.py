"""Finitely supported complex measures and evaluable functions on a carrier.

A :class:`Measure` is the computational stand-in for a compactly supported
complex measure: a canonical, sorted tuple of (point, weight) pairs with exact
zeros removed.  Support points are merged by exact equality; on the real line
this means bitwise float equality after arithmetic, which keeps convolution
associative at the cost of not merging nearly-equal points.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

from .errors import DomainError

Point = Union[int, float]


def _to_complex(w: Any) -> complex:
    z = complex(w)
    if not cmath.isfinite(z):
        raise DomainError(f"non-finite weight {w!r}")
    return z


@dataclass(frozen=True)
class Measure:
    """Finitely supported complex measure on a hypergroup carrier."""

    hypergroup: Any
    support: tuple[tuple[Point, complex], ...]

    @staticmethod
    def from_items(hypergroup: Any, items: Iterable[tuple[Point, Any]]) -> "Measure":
        """Canonicalise: validate points, merge duplicates, drop exact zeros, sort."""
        acc: dict[Point, complex] = {}
        for x, w in items:
            x = hypergroup.validate_point(x)
            acc[x] = acc.get(x, 0j) + _to_complex(w)
        cleaned = [(x, w) for x, w in acc.items() if w != 0]
        cleaned.sort(key=lambda item: item[0])
        return Measure(hypergroup, tuple(cleaned))

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(x for x, _ in self.support)

    @property
    def is_zero(self) -> bool:
        return not self.support

    def weight(self, x: Point) -> complex:
        for p, w in self.support:
            if p == x:
                return w
        return 0j

    def total_mass(self) -> complex:
        return sum((w for _, w in self.support), 0j)

    def prune(self, threshold: float) -> "Measure":
        """Drop weights with |w| <= threshold (opt-in; default pruning is exact-zero only)."""
        return Measure(self.hypergroup, tuple((x, w) for x, w in self.support if abs(w) > threshold))

    def __add__(self, other: "Measure") -> "Measure":
        _require_same(self, other)
        return Measure.from_items(self.hypergroup, list(self.support) + list(other.support))

    def __sub__(self, other: "Measure") -> "Measure":
        return self + (-1.0) * other

    def __neg__(self) -> "Measure":
        return (-1.0) * self

    def __rmul__(self, scalar: Any) -> "Measure":
        c = _to_complex(scalar)
        return Measure.from_items(self.hypergroup, [(x, c * w) for x, w in self.support])

    def __repr__(self) -> str:
        inner = " + ".join(f"({w:.6g})d[{x}]" for x, w in self.support) or "0"
        return f"Measure({inner})"


def dirac(hypergroup: Any, x: Point) -> Measure:
    """Point mass at x."""
    return Measure.from_items(hypergroup, [(x, 1.0)])


def _require_same(mu: Measure, nu: Measure) -> None:
    if mu.hypergroup != nu.hypergroup:
        raise DomainError("measures live on different hypergroups")


class CFunction:
    """Evaluable complex-valued function on a hypergroup carrier.

    Backed by a callable plus a descriptor (`kind`, `params`) used for
    serialisation and reporting.  Evaluation is deterministic.  A built-in moment
    entry's callable is its `TableRow`; `_exponential_on` is set by `MomentSequence.build`.
    """

    __slots__ = ("_fn", "kind", "params", "_exponential_on")

    def __init__(self, fn: Callable[[Point], Any], kind: str = "callable", params: Mapping[str, Any] | None = None):
        self._fn = fn
        self.kind = kind
        self.params = dict(params or {})
        self._exponential_on = None

    def __call__(self, x: Point) -> complex:
        return _evaluate(self._fn, x)

    @classmethod
    def constant(cls, value: Any) -> "CFunction":
        c = _to_complex(value)
        return cls(lambda _x: c, kind="constant", params={"value": c})

    @classmethod
    def from_table(cls, values: Mapping[Point, Any], kind: str = "table") -> "CFunction":
        table = {x: _to_complex(v) for x, v in values.items()}

        def lookup(x: Point) -> complex:
            try:
                return table[x]
            except KeyError:
                raise DomainError(f"function table has no value at point {x!r}") from None

        return cls(lookup, kind=kind, params={"values": dict(table)})

    def __add__(self, other: "CFunction") -> "CFunction":
        return CFunction(lambda x: self(x) + other(x), kind="composite")

    def __mul__(self, other: Any) -> "CFunction":
        if isinstance(other, CFunction):
            return CFunction(lambda x: self(x) * other(x), kind="composite")
        c = _to_complex(other)
        return CFunction(lambda x: c * self(x), kind="composite")

    __rmul__ = __mul__

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant {self.params['value']:.6g}"
        if self.kind == "table":
            return "table"
        if self.params:
            inner = ", ".join(f"{k}={v}" for k, v in self.params.items() if k != "values")
            return f"{self.kind}({inner})" if inner else self.kind
        return self.kind

    def __repr__(self) -> str:
        return f"CFunction<{self.describe()}>"


def _evaluate(f: CFunction | Callable[[Point], Any], x: Point) -> complex:
    """f(x) as a complex number; any failure other than a DomainError is wrapped in one."""
    try:
        return complex(f(x))
    except DomainError:
        raise
    except Exception as exc:
        raise DomainError(f"function evaluation failed at point {x!r}: {exc}") from exc


class TableRow(NamedTuple):
    """A family entry's callable: row `alpha` of its family's table rule, which gives the entries at a
    list of points as (alphas x points) lists of complex values, or raises.  At one point it is the entry."""

    rule: Callable[[list, list], list]
    alpha: tuple[int, ...]

    def __call__(self, x: Point) -> complex:
        return self.rule([x], [self.alpha])[0][0]


def table_rows(fns: list, points: list) -> dict[int, list]:
    """The values at `points` of every f in `fns` whose callable is a `TableRow`, from one call of
    each rule: {index in fns: values}.  A rule that raises gives no rows (`evaluate` finds its error)."""
    rules: dict[Any, list[int]] = {}
    for i, f in enumerate(fns if points else ()):
        if isinstance(fn := getattr(f, "_fn", None), TableRow):
            rules.setdefault(fn.rule, []).append(i)
    out = {}
    for rule, rows in rules.items():
        try:
            out.update(zip(rows, rule(points, [fns[i]._fn.alpha for i in rows])))
        except Exception:  # each entry's own `evaluate` raises the error the loop meets first
            pass
    return out


def evaluate(f: CFunction | Callable[[Point], Any], points: list) -> tuple[np.ndarray, DomainError | None]:
    """f at the points, in order, by `_evaluate` point by point: the values before the first DomainError and
    that error (None if none).  This is the loop every table (`table_rows`) is tested against."""
    values, failure = [], None
    try:
        for x in points:
            values.append(_evaluate(f, x))
    except DomainError as exc:
        failure = exc
    return np.array(values, dtype=complex), failure


def values_at(f: CFunction | Callable[[Point], Any], points: list) -> np.ndarray:
    """f at every point of `points`, point by point (`_evaluate`), raising the first DomainError."""
    return np.array([_evaluate(f, x) for x in points], dtype=complex)


def complex_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, rounded as Python rounds a complex product (NumPy's
    own complex product can differ in the last bit)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = (a.real * b.real - a.imag * b.imag).astype(complex)  # the real part sets the broadcast shape
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def complex_abs(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, as Python's abs of a complex number computes it."""
    return np.hypot(z.real, z.imag)


def pair(mu: Measure, f: CFunction | Callable[[Point], Any]) -> complex:
    """Integrate f against mu: sum of f(x) * mu({x}) over the support."""
    total = 0j
    for x, w in mu.support:
        total += _evaluate(f, x) * w
    return total


def convolve(mu: Measure, nu: Measure) -> Measure:
    """Convolution, extended bilinearly from the hypergroup's point convolution."""
    points, _, weights = convolutions(mu.hypergroup, [(mu, nu)])
    return Measure(mu.hypergroup, tuple(zip(points.tolist(), weights.tolist())))


def convolutions(hg: Any, samples: list[tuple[Measure, Measure]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mu*nu of every sample (mu, nu), on one table: weights[e] at the point points[e] of sample
    blocks[e], from one `pair_supports` call of the pairs (x, y) of every sample, x in mu's support,
    y in nu's, in that order.  The items wx * wy * w of every pair, in pair order, are merged per
    point as `Measure.from_items` merges them: points validated, exact zeros dropped, a non-finite
    item refused, points sorted.  For one sample the DomainError is the one `from_items` raises;
    over several it need not be the first sample's."""
    pairs, wxy, owner = [], [], []
    for s, (mu, nu) in enumerate(samples):
        _require_same(mu, nu)
        pairs += [(x, y) for x, _ in mu.support for y, _ in nu.support]
        wxy += [wx * wy for _, wx in mu.support for _, wy in nu.support]
        owner += [s] * (len(mu.support) * len(nu.support))
    sup = hg.pair_supports(pairs)
    with np.errstate(all="ignore"):  # a non-finite item is refused below
        items = complex_product(np.array(wxy, dtype=complex)[sup.rows], sup.weights)
    bad = np.flatnonzero(~np.isfinite(items))
    met = sup.points[: bad[0] + 1] if len(bad) else sup.points
    for x in met[_distinct(met)[1]].tolist():
        hg.validate_point(x)  # `from_items` validates each point before its weight
    if len(bad):
        raise DomainError(f"non-finite weight {complex(items[bad[0]])!r}")
    blocks = np.array(owner, dtype=np.intp)[sup.rows]
    first, weights = merge(blocks, sup.points, items)
    keep = weights != 0
    return sup.points[first[keep]], blocks[first[keep]], weights[keep]


def _points(points: list) -> np.ndarray:
    """Points, or pairs of points, as an array: ints past int64, which NumPy makes floats, kept whole as objects."""
    array = np.array(points)
    if array.dtype.kind == "f" and points and type(points[0][0] if array.ndim > 1 else points[0]) is int:
        return np.array(points, dtype=object)
    return array


def _distinct(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct points of an int or float array, told apart by their bits (a float -0.0 apart from 0.0),
    numbered in the order they are first met: each point's number, and where each number is first met."""
    keys = points.view(np.int64) if points.dtype.kind == "f" else points
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    head = np.empty(len(keys), dtype=bool)
    head[:1], head[1:] = True, ranked[1:] != ranked[:-1]
    first = order[head]
    rank = first.argsort()
    ids = np.empty(len(keys), dtype=np.intp)
    ids[order] = rank.argsort()[np.add.accumulate(head, dtype=np.intp) - 1]
    return ids, first[rank]


def merge(owner: np.ndarray, points: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The items (along the first axis) summed per owner and point in item order, as `Measure.from_items` merges
    them (-0.0 with 0.0, the first point met kept): the index of that first item, sorted by owner, then point."""
    order = np.lexsort((points, owner))
    owned, ranked = owner[order], points[order]
    head = np.empty(len(order), dtype=bool)
    head[:1], head[1:] = True, (owned[1:] != owned[:-1]) | (ranked[1:] != ranked[:-1])
    at = np.empty(len(order), dtype=np.intp)
    at[order] = np.add.accumulate(head, dtype=np.intp) - 1
    merged = np.zeros((np.count_nonzero(head),) + items.shape[1:], dtype=complex)
    np.add.at(merged, at, items)
    return order[head], merged


def module_action(phi: CFunction | Callable[[Point], Any], mu: Measure) -> Measure:
    """Multiplication of a measure by a function: weight at x becomes phi(x)*mu({x}),
    weighed by `multiply` once phi is evaluated at every point, exact zeros dropped."""
    return weigh(mu, values_at(phi, [x for x, _ in mu.support]))


def weigh(mu: Measure, values: np.ndarray) -> Measure:
    """mu with the weight at its i-th support point multiplied by values[i] (`multiply`), exact zeros dropped."""
    weights = multiply(values, np.array([w for _, w in mu.support], dtype=complex)).tolist()
    return Measure(mu.hypergroup, tuple((x, w) for (x, _), w in zip(mu.support, weights) if w != 0))


def multiply(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """values * weights elementwise, as a canonical measure holds the products: each
    added to 0j (so a zero part is never -0.0), the first non-finite one refused."""
    with np.errstate(all="ignore"):  # a non-finite product is refused below
        raw = complex_product(values, weights)
    bad = np.flatnonzero(~np.isfinite(raw))
    if len(bad):
        raise DomainError(f"non-finite weight {complex(raw.flat[bad[0]])!r}")
    return 0j + raw


def measure_residual(mu: Measure, nu: Measure) -> tuple[float, float]:
    """Worst pointwise weight difference and the scale max(1, |weights|)."""
    wa = dict(mu.support)
    wb = dict(nu.support)
    residual = 0.0
    scale = 1.0
    for p in set(wa) | set(wb):
        a = wa.get(p, 0j)
        b = wb.get(p, 0j)
        residual = max(residual, abs(a - b))
        scale = max(scale, abs(a), abs(b))
    return residual, scale


def as_literal(mu: Measure) -> list[list[Any]]:
    """Measure in the JSON literal shape [[point, [re, im]], ...]."""
    return [[x, [w.real, w.imag]] for x, w in mu.support]
