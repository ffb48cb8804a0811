"""Measure operators: module homomorphisms and their verification.

Operator identity is tested extensionally on sample sets.  Sample sets that
include the point masses appearing in an assertion separate operators, so the
checks here decide the characterizations at desk scale: an operator is a
module homomorphism iff it is multiplication by its symbol, and a module
homomorphism is multiplicative iff its symbol is an exponential.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .config import Tolerance, default_tolerance
from .hypergroups import PairSupports
from .measures import (
    CFunction,
    Measure,
    Point,
    _distinct,
    as_literal,
    dirac,
    measure_residual,
    module_action,
    pair,
    table_rows,
    values_at,
)
from .reports import Report


@dataclass(frozen=True)
class MeasureOperator:
    """A self-map of the measure algebra, with construction metadata."""

    hypergroup: Any
    fn: Callable[[Measure], Measure]
    name: str = "operator"
    module_hom: bool = False  # additive and module-homogeneous by construction
    symbol: CFunction | None = field(default=None, compare=False)  # set only where fn multiplies by it

    def __call__(self, mu: Measure) -> Measure:
        return self.fn(mu)

    def __repr__(self) -> str:
        return f"MeasureOperator<{self.name}>"


def make_module_hom(hg: Any, phi: CFunction, name: str | None = None) -> MeasureOperator:
    """Multiplication by a fixed function: mu -> phi * mu."""
    return MeasureOperator(
        hypergroup=hg,
        fn=lambda mu: module_action(phi, mu),
        name=name or f"mult[{phi.describe()}]",
        module_hom=True,
        symbol=phi,
    )


def zero_operator(hg: Any) -> MeasureOperator:
    return make_module_hom(hg, CFunction.constant(0.0), name="zero")


def identity_operator(hg: Any) -> MeasureOperator:
    return make_module_hom(hg, CFunction.constant(1.0), name="identity")


def symbol_of(op: MeasureOperator, points: Iterable[Point]) -> CFunction:
    """Tabulate x -> <F(dx), 1>: the unique symbol when F is a module homomorphism."""
    hg = op.hypergroup
    values = {hg.validate_point(x): pair(op(dirac(hg, x)), CFunction.constant(1.0)) for x in points}
    return CFunction.from_table(values)


def is_module_hom(
    op: MeasureOperator,
    samples: list[tuple[Measure, CFunction]],
    tol: Tolerance | None = None,
) -> Report:
    """Check additivity, module homogeneity, and the symbol identity on samples."""
    if not samples:
        raise ValueError("samples must be nonempty")
    tol = tol or default_tolerance()
    report = Report(title=f"module homomorphism: {op.name}")

    measures = [mu for mu, _ in samples]
    sums = [(mu, nu) for i, mu in enumerate(measures) for nu in measures[i + 1 :]] or [(measures[0],) * 2]
    res, scl = np.array([measure_residual(op(mu + nu), op(mu) + op(nu)) for mu, nu in sums]).T
    report.add_worst("additivity", "F(mu+nu) = F(mu) + F(nu)", res, scl, tol, lambda i: [*map(as_literal, sums[i])])

    res, scl = np.array([measure_residual(op(module_action(phi, mu)), module_action(phi, op(mu))) for mu, phi in samples]).T
    report.add_worst(
        "module-homogeneity", "F(phi mu) = phi F(mu)", res, scl, tol,
        lambda i: [as_literal(samples[i][0]), samples[i][1].describe()],
    )

    support = list(dict.fromkeys(x for mu in measures for x in mu.points))
    sym = symbol_of(op, support) if support else CFunction.constant(0.0)
    res, scl = np.array([measure_residual(op(mu), module_action(sym, mu)) for mu in measures]).T
    report.add_worst(
        "symbol-identity", "F(mu) = symbol(F) mu with symbol(F)(x) = <F(dx), 1>", res, scl, tol,
        lambda i: as_literal(measures[i]),
    )
    return report


def is_exponential(
    hg: Any,
    f: CFunction,
    samples: list[tuple[Point, Point]],
    tol: Tolerance | None = None,
) -> Report:
    """Check f(o) = 1 and <dx*dy, f> = f(x) f(y) on sampled point pairs."""
    return exponential_reports(hg, [f], samples, tol)[0]


def exponential_reports(
    hg: Any, fns: Sequence[CFunction], samples: list[tuple[Point, Point]], tol: Tolerance | None = None,
) -> list[Report]:
    """`is_exponential` of every f in `fns` on the same pairs: each f evaluated at the
    identity, then all of them by one `tabulate_on_pairs`, judged in blocks (`PairSupports.products`)."""
    if not samples:
        raise ValueError("samples must be nonempty")
    tol = tol or default_tolerance()
    at_identity = [f(hg.identity) for f in fns]
    sup, *table = tabulate_on_pairs(hg, samples, fns)
    reports = [Report(title=f"exponential: {f.describe()}") for f in fns]
    for first, lhs, rhs, res, scl in sup.products(*table):
        for b in range(len(lhs)):
            report, one = reports[first + b], at_identity[first + b]
            report.check("normalization-at-identity", "f(o) = 1", abs(one - 1.0), 1.0, tol, lambda: [hg.identity, one])
            report.add_worst(
                "multiplicativity-on-pairs", "<dx*dy, f> = f(x) f(y)", res[b], scl[b], tol,
                lambda i: [*samples[i], complex(lhs[b, i]), complex(rhs[b, i])],
            )
    return reports


def tabulate_on_pairs(
    hg: Any, pairs: Sequence[tuple[Point, Point]], fns: Sequence[CFunction]
) -> tuple[PairSupports, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs' point convolutions, and every f in `fns` evaluated once per distinct point.

    Returns the supports, the values (fns x distinct points) and the indices that gather them at
    the entries, at each x and at each y.  The family entries among `fns` take one call of their
    table rule (`table_rows`).  Each other f, and each entry whose rule raises, takes one
    `values_at` over the points in the order a loop over the pairs first meets them: each
    pair's support, then x and y, y first for every function after the first, as the lower terms
    of the moment identity reach them.
    """
    sup, orders, size, scatter, at_k, at_x, at_y = _pair_table(hg, pairs)
    values = np.empty((len(fns), size), dtype=complex)
    rows = table_rows(fns, orders[1])
    for a, f in enumerate(fns):
        if a in rows:
            values[a] = rows[a]
        else:
            values[a, scatter if a == 0 else slice(None)] = values_at(f, orders[a > 0])
    return sup, values, at_k, at_x, at_y


# pair tables a carrier keeps: at most PAIR_TABLES lists of int points, none over PAIR_TABLE_CAP entries
PAIR_TABLES, PAIR_TABLE_CAP = 8, 1 << 14


def _pair_table(hg: Any, pairs: Sequence[tuple[Point, Point]]) -> tuple:
    """The part of `tabulate_on_pairs` that reads the pairs alone: `pair_supports`, the two
    first-meet orders of the points, the number of points, the scatter of the first order
    into the second, and the gather indices of the entries, the x's and the y's.  A list of `int`
    points with at most PAIR_TABLE_CAP entries is kept on the carrier (`_pair_tables`), read-only, under
    the tolerance bound its linearization table follows; a list whose supports raise is not kept."""
    key = (tuple(map(tuple, pairs)), default_tolerance().bound(1.0))
    keep = {*map(type, itertools.chain.from_iterable(key[0]))} == {int}
    tables = hg._pair_tables
    if keep and key in tables:
        tables[key] = table = tables.pop(key)  # most recently used last
        return table
    sup = hg.pair_supports(pairs)
    count, end = len(pairs), len(sup.rows)
    met = sup.points.tolist() + [x for x, _ in pairs] + [y for _, y in pairs]  # the entries, then the x's and y's
    at_pair = np.concatenate([sup.rows, np.arange(count), np.arange(count)])
    # the two walks a loop makes: each pair's support, then x and y (first order) or y and x (second)
    meets = [np.lexsort((np.repeat(kind, [end, count, count]), at_pair)) for kind in ((0, 1, 2), (0, 2, 1))]
    points = np.array(met)
    (_, first_xy), (ids, first_yx) = (_distinct(points[meet]) for meet in meets)
    at = ids[np.argsort(meets[1])]  # each point's number in the second order
    orders = tuple([met[i] for i in meet[first].tolist()] for meet, first in zip(meets, (first_xy, first_yx)))
    table = (sup, orders, len(first_yx), at[meets[0][first_xy]], at[:end], at[end : end + count], at[end + count :])
    if keep and len(sup.rows) <= PAIR_TABLE_CAP:  # read-only, as `apply_family` holds its table
        for array in (sup.rows, sup.points, sup.weights, sup.err, *table[3:]):
            array.flags.writeable = False
        tables[key] = table
        if len(tables) > PAIR_TABLES:
            del tables[next(iter(tables))]
    return table
