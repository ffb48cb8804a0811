"""Moment function sequences of higher rank and derivation families.

A moment sequence of rank r assigns to each multi-index alpha (|alpha| <= N)
a function phi_alpha with phi_0 an exponential and

    <dx*dy, phi_alpha> = sum_{beta <= alpha} binom(alpha, beta) phi_beta(x) phi_{alpha-beta}(y).

Such a sequence induces a derivation family D_alpha = multiplication by
phi_alpha obeying the generalized Leibniz rule

    D_alpha(mu*nu) = sum_{beta <= alpha} binom(alpha, beta) D_beta mu * D_{alpha-beta} nu

in the functional sense (both sides paired with the constant 1; on group
carriers the canonical measures agree outright), and conversely
phi_alpha(x) = <D_alpha dx, 1> recovers the sequence.  The truncation at
order N is exact, not approximate: every identity involves only indices
beta <= alpha.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .config import Tolerance, default_tolerance
from .errors import DomainError, PreconditionError
from .hypergroups import DerivativeRun, FiniteHypergroup, Hypergroup, PolynomialHypergroup, RealLineHypergroup, _capped
from .measures import (
    CFunction, Measure, Point, TableRow, _distinct, _points, as_literal, complex_abs, complex_product,
    convolutions, evaluate, merge, multiply, table_rows, values_at,
)
from .operators import (
    MeasureOperator,
    is_exponential,
    make_module_hom,
    symbol_of,
    tabulate_on_pairs,
)
from .reports import Report

MultiIndex = tuple[int, ...]

def as_index(alpha: Sequence[int] | int) -> MultiIndex:
    """Coerce to a multi-index tuple of nonnegative integers."""
    if isinstance(alpha, int):
        alpha = (alpha,)
    out = tuple(int(a) for a in alpha)
    if not out:
        raise DomainError("multi-index must have rank >= 1")
    if any(a < 0 for a in out):
        raise DomainError(f"multi-index {out} has negative components")
    return out


def index_order(alpha: MultiIndex) -> int:
    return sum(alpha)


def index_leq(beta: MultiIndex, alpha: MultiIndex) -> bool:
    return len(beta) == len(alpha) and all(b <= a for b, a in zip(beta, alpha))


def index_sub(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    return tuple(a - b for a, b in zip(alpha, beta))


def multi_binomial(alpha: Sequence[int], beta: Sequence[int]) -> int:
    """Product of componentwise binomial coefficients; requires beta <= alpha."""
    a = as_index(alpha)
    b = as_index(beta)
    if len(a) != len(b):
        raise DomainError(f"rank mismatch: {a} vs {b}")
    if not index_leq(b, a):
        raise DomainError(f"{b} is not componentwise <= {a}")
    out = 1
    for ai, bi in zip(a, b):
        out *= math.comb(ai, bi)
    return out


def lower_indices(alpha: Sequence[int]) -> list[MultiIndex]:
    """All beta <= alpha in lexicographic order; length prod(alpha_i + 1)."""
    a = as_index(alpha)
    return [tuple(b) for b in itertools.product(*(range(ai + 1) for ai in a))]


def indices_up_to(rank: int, order: int) -> list[MultiIndex]:
    """All alpha in N^rank with |alpha| <= order, graded lexicographically."""
    if rank < 1:
        raise DomainError("rank must be >= 1")
    if order < 0:
        raise DomainError("order must be >= 0")
    out = [
        alpha
        for alpha in itertools.product(range(order + 1), repeat=rank)
        if sum(alpha) <= order
    ]
    out.sort(key=lambda a: (sum(a), a))
    return out


def _default_pairs(hg: Hypergroup, bound: int = 4) -> list[tuple[Point, Point]]:
    pts = hg.sample_points(bound)
    return [(x, y) for x in pts for y in pts]


@dataclass
class MomentSequence:
    """Rank-r, order-truncated family alpha -> phi_alpha."""

    hypergroup: Any
    rank: int
    order: int
    entries: dict[MultiIndex, CFunction]
    meta: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        hg: Hypergroup,
        rank: int,
        order: int,
        phi_of: Callable[[MultiIndex], CFunction] | Mapping[MultiIndex, CFunction],
        check_phi0: bool = True,
        check_pairs: list[tuple[Point, Point]] | None = None,
        tol: Tolerance | None = None,
    ) -> "MomentSequence":
        """Assemble entries for all |alpha| <= order; phi_0 must be an exponential.  A phi_0 entry
        that passed on the default pairs of an equal hypergroup under an equal tolerance (its
        `_exponential_on`) is not checked again."""
        getter = phi_of.__getitem__ if isinstance(phi_of, Mapping) else phi_of
        entries: dict[MultiIndex, CFunction] = {}
        for alpha in indices_up_to(rank, order):
            try:
                entries[alpha] = getter(alpha)
            except KeyError:
                raise DomainError(f"no entry provided for multi-index {alpha}") from None
        seq = cls(hypergroup=hg, rank=rank, order=order, entries=entries)
        if check_phi0:
            phi0, tol = seq.phi((0,) * rank), tol or default_tolerance()
            if check_pairs is not None or phi0._exponential_on != (hg, tol):
                rep = is_exponential(hg, phi0, check_pairs if check_pairs is not None else _default_pairs(hg), tol)
                if not rep.passed:
                    worst = max(rep.failed_records, key=lambda r: r.residual / max(r.scale, 1.0))
                    raise PreconditionError(f"phi_0 is not an exponential (residual {worst.residual:.3e} "
                                            f"on {worst.name})")
                if check_pairs is None:
                    phi0._exponential_on = hg, tol
            seq.meta["phi0"] = "exponential verified"
        else:
            seq.meta["phi0"] = "check skipped"
        return seq

    @functools.cached_property
    def alphas(self) -> list[MultiIndex]:
        return indices_up_to(self.rank, self.order)

    def phi(self, alpha: Sequence[int]) -> CFunction:
        key = alpha if isinstance(alpha, tuple) and alpha in self.entries else as_index(alpha)
        try:
            return self.entries[key]
        except KeyError:
            raise DomainError(f"no entry for multi-index {key} (order {self.order})") from None


@dataclass
class DerivationFamily:
    """Rank-r, order-truncated family alpha -> D_alpha of measure operators."""

    hypergroup: Any
    rank: int
    order: int
    entries: dict[MultiIndex, MeasureOperator]
    meta: dict[str, Any] = field(default_factory=dict)
    _applied: tuple = field(default=((), None), init=False, compare=False, repr=False)  # see `apply_family`

    @functools.cached_property
    def alphas(self) -> list[MultiIndex]:
        return indices_up_to(self.rank, self.order)

    def op(self, alpha: Sequence[int]) -> MeasureOperator:
        key = alpha if isinstance(alpha, tuple) and alpha in self.entries else as_index(alpha)
        try:
            return self.entries[key]
        except KeyError:
            raise DomainError(f"no operator for multi-index {key} (order {self.order})") from None


# ---------------------------------------------------------------------------
# built-in families


def realline_moments(lam: complex, order: int, hg: RealLineHypergroup | None = None) -> MomentSequence:
    """Rank-1 family phi_k(x) = x^k exp(lam x) on the real line, each entry a row of one table rule."""
    hg = hg or RealLineHypergroup()
    lam = complex(lam)

    def rule(xs: list, alphas: list) -> list:
        return [[x**k * cmath.exp(lam * x) for x in xs] for (k,) in alphas]

    def entry(alpha: MultiIndex) -> CFunction:
        return CFunction(TableRow(rule, alpha), kind="moment", params={"k": alpha[0], "lambda": lam})

    return MomentSequence.build(hg, 1, order, entry)


def poly_derivative_moments(hg: PolynomialHypergroup, z: complex, order: int) -> MomentSequence:
    """Rank-1 family phi_k(n) = P_n^(k)(z) on a polynomial hypergroup.  The table rule reads, at each
    nonnegative int point, one `DerivativeRun` of rows P_n^(0..order)(z), grown on demand; any other
    point, such as 2.0 or -1, takes `poly_derivatives`, which fails as it did."""
    z = complex(z)
    run = DerivativeRun(hg, z, order)

    def rule(ns: list, alphas: list) -> list:  # an invalid row raises in `upto`
        rows = [run.upto(n)[n] if type(n) is int and n >= 0 else hg.poly_derivatives(n, z, order) for n in ns]
        return [[complex(row[k]) for row in rows] for (k,) in alphas]

    def entry(alpha: MultiIndex) -> CFunction:
        return CFunction(TableRow(rule, alpha), kind="moment", params={"k": alpha[0], "z": z})

    return MomentSequence.build(hg, 1, order, entry)


def rank_lift(seq: MomentSequence, weights: Sequence[complex]) -> MomentSequence:
    """Lift a rank-1 sequence to rank r: phi_alpha = (prod w_i^alpha_i) f_{|alpha|}.

    Valid because sum_{beta <= alpha, |beta| = s} binom(alpha, beta) = binom(|alpha|, s) reduces the
    rank-r identity to the rank-1 one.  The lift's phi_0 is the base's (times 1), so a base whose phi_0
    was verified is not checked again, and the lift's phi_0 carries the base's `_exponential_on`.  Its
    table rule reads the base rows its alphas need by one `table_rows` call (`values_at` for a base that
    is not a family entry) and multiplies each by each alpha's factor, as `factor * base(x)`.
    """
    if seq.rank != 1:
        raise DomainError("rank_lift starts from a rank-1 sequence")
    ws = tuple(complex(w) for w in weights)
    if not ws:
        raise DomainError("need at least one axis weight")
    bases, factors = [seq.phi((k,)) for k in range(seq.order + 1)], {}

    def rule(xs: list, alphas: list) -> list:
        ks = list(dict.fromkeys(sum(alpha) for alpha in alphas))
        rows = table_rows([bases[k] for k in ks], xs)
        at = {k: rows[i] if i in rows else values_at(bases[k], xs).tolist() for i, k in enumerate(ks)}
        return [[factors[alpha] * v for v in at[sum(alpha)]] for alpha in alphas]

    def entry(alpha: MultiIndex) -> CFunction:
        factors[alpha] = 1.0 + 0j
        for w, a in zip(ws, alpha):
            factors[alpha] *= w**a
        return CFunction(TableRow(rule, alpha), kind="composite")

    verified = seq.meta.get("phi0") == "exponential verified"
    lifted = MomentSequence.build(seq.hypergroup, len(ws), seq.order, entry, check_phi0=not verified)
    if verified:  # and a rebuild from the lift's entries reads the base's record
        lifted.phi((0,) * len(ws))._exponential_on = seq.phi((0,))._exponential_on
    lifted.meta["phi0"] = "exponential verified"
    return lifted


# ---------------------------------------------------------------------------
# verification


@functools.lru_cache(maxsize=32)
def binomial_terms(alphas: tuple[MultiIndex, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The terms binom(a, b) (b, a-b) of every alpha of `alphas`, a list closed
    under beta <= alpha: the rows of beta and of alpha - beta in that list, the
    binomial, and the row of alpha (betas run lexicographically within it)."""
    at = {alpha: i for i, alpha in enumerate(alphas)}
    lower = [lower_indices(alpha) for alpha in alphas]
    terms = [
        (at[beta], at[index_sub(alpha, beta)], math.prod(map(math.comb, alpha, beta)))
        for alpha, betas in zip(alphas, lower)
        for beta in betas
    ]
    beta, gamma, coef = (np.array(column) for column in zip(*terms))
    return beta, gamma, coef.astype(float), np.repeat(np.arange(len(alphas)), [len(b) for b in lower])


def _identity_records(
    report: Report, name: str, law: str, alphas: Sequence[MultiIndex], lhs: np.ndarray, terms: np.ndarray,
    tol: Tolerance, witness: Callable[[int], list], details: Sequence[str] = (),
) -> None:
    """One record per alpha of `alphas`, from one `Report.add_rows` pass: lhs[a] against
    the sum of its `binomial_terms` rows of `terms`, taken in order, scaled by
    max(1, |lhs|, |term|); cases run along the other axes."""
    owner = binomial_terms(tuple(alphas))[3]
    rhs, top = np.zeros(lhs.shape, dtype=complex), np.zeros(lhs.shape)
    with np.errstate(invalid="ignore"):  # a NaN term, from a probe that is not finite, fails its case
        np.add.at(rhs, owner, terms)
        np.maximum.at(top, owner, complex_abs(terms))
        res, scl = complex_abs(lhs - rhs), np.maximum(1.0, np.maximum(complex_abs(lhs), top))
    report.add_rows(
        [f"{name} alpha={list(alpha)}" for alpha in alphas], law, res, scl, tol,
        lambda a, i: [list(alphas[a]), *witness(i), complex(lhs[a].flat[i]), complex(rhs[a].flat[i])],
        [details[sum(alpha)] if sum(alpha) < len(details) else "" for alpha in alphas],
    )


def verify_moment_sequence(
    seq: MomentSequence,
    pairs: list[tuple[Point, Point]],
    tol: Tolerance | None = None,
) -> Report:
    """Check the defining binomial identity for every |alpha| <= N on the pairs.

    Each phi_alpha is evaluated once per distinct point and the structure
    constants of the pairs are read once; the left side contracts them with
    phi_alpha, the right side sums binom(a, b) phi_b(x) phi_{a-b}(y).
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    tol = tol or default_tolerance()
    report = Report(
        title="moment sequence identity",
        meta={"rank": seq.rank, "order": seq.order, "pairs": len(pairs)},
    )
    sup, values, at_k, at_x, at_y = tabulate_on_pairs(seq.hypergroup, pairs, [seq.phi(a) for a in seq.alphas])
    beta, gamma, coef, _ = binomial_terms(tuple(seq.alphas))
    law = "<dx*dy, phi_a> = sum_{b<=a} binom(a,b) phi_b(x) phi_{a-b}(y)"
    with np.errstate(over="ignore", invalid="ignore"):  # a value past the floats fails its case, as in `products`
        terms = complex_product(coef[:, None] * values[beta][:, at_x], values[gamma][:, at_y])
        lhs = sup.pairings(values[:, at_k])
    _identity_records(report, "moment-identity", law, seq.alphas, lhs, terms, tol, lambda i: pairs[i])
    return report


def derivation_from_moments(
    seq: MomentSequence,
    pairs: list[tuple[Point, Point]] | None = None,
    skip_verification: bool = False,
    tol: Tolerance | None = None,
) -> DerivationFamily:
    """Make D_alpha = multiplication by phi_alpha; the family obeys the Leibniz rule.

    The sequence is verified on `pairs` (defaults to a small deterministic
    sample) unless verification is explicitly skipped, which is recorded in
    the family metadata.
    """
    meta: dict[str, Any] = {}
    if skip_verification:
        meta["verification"] = "skipped"
    else:
        use = pairs if pairs is not None else _default_pairs(seq.hypergroup)
        rep = verify_moment_sequence(seq, use, tol)
        if not rep.passed:
            worst = max(rep.failed_records, key=lambda r: r.residual / max(r.scale, 1.0))
            raise PreconditionError(
                f"moment sequence fails its identity at {worst.name} (residual {worst.residual:.3e})"
            )
        meta["verification"] = "passed"
    entries = {
        alpha: make_module_hom(seq.hypergroup, seq.phi(alpha), name=f"D{list(alpha)}")
        for alpha in seq.alphas
    }
    return DerivationFamily(
        hypergroup=seq.hypergroup,
        rank=seq.rank,
        order=seq.order,
        entries=entries,
        meta=meta,
    )


def _checkable_pairs(hg: Hypergroup, points: Sequence[Point]) -> list[tuple[Point, Point]]:
    """Pairs whose point convolution stays inside the tabulated points."""
    available = set(points)
    out = []
    for x in points:
        for y in points:
            try:
                conv = hg.convolve_points(x, y)
            except DomainError:
                continue
            if all(p in available for p in conv.points):
                out.append((x, y))
    return out


def moments_from_derivation(
    family: DerivationFamily,
    points: Sequence[Point],
    tol: Tolerance | None = None,
) -> MomentSequence:
    """Tabulate phi_alpha(x) = <D_alpha dx, 1> at the given points."""
    hg = family.hypergroup
    tables = {alpha: symbol_of(family.op(alpha), points) for alpha in family.alphas}
    pairs = _checkable_pairs(hg, [hg.validate_point(x) for x in points])
    seq = MomentSequence.build(
        hg,
        family.rank,
        family.order,
        tables,
        check_phi0=bool(pairs),
        check_pairs=pairs or None,
        tol=tol,
    )
    if not pairs:
        seq.meta["phi0"] = "check skipped: no pairs stay inside the tabulated points"
    return seq


def verify_leibniz(
    family: DerivationFamily,
    samples: list[tuple[Measure, Measure]],
    f_probe: Sequence[CFunction] | None = None,
    tol: Tolerance | None = None,
) -> Report:
    """Check the generalized Leibniz rule on measure samples, per alpha.

    Both sides are compared through probe pairings; the default probe is the
    constant 1, under which the rule is the bilinear extension of the moment
    identity and holds exactly for families built from moment sequences.  On
    group carriers the canonical measures themselves agree, so arbitrary
    probes may be supplied there; on a proper hypergroup only constant probes
    are preserved.  The alpha = 0 row is plain multiplicativity of D_0;
    |alpha| = 1 rows are the two-term product rule relative to D_0.
    """
    tol = tol or default_tolerance()
    probes = list(f_probe) if f_probe else [CFunction.constant(1.0)]
    report = Report(
        title="generalized Leibniz rule",
        meta={"rank": family.rank, "order": family.order, "samples": len(samples)},
    )
    law = "D_a(mu*nu) = sum_{b<=a} binom(a,b) D_b mu * D_{a-b} nu, paired with probes"
    details = ("order 0: reduces to multiplicativity of D_0", "order 1: reduces to D_0 mu * D_a nu + D_a mu * D_0 nu")
    _identity_records(
        report, "leibniz", law, family.alphas, *_leibniz_sides(family, samples, probes), tol,
        lambda i: [*map(as_literal, samples[i // len(probes)])], details,
    )
    return report


@np.errstate(over="ignore", invalid="ignore")  # a value past the floats fails its case, as in `products`
def _leibniz_sides(family: DerivationFamily, samples: list, probes: list) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of the Leibniz rule from one `apply_family` table: <D_a(mu*nu), f> (alphas x samples
    x probes) and <binom(a, b) D_b mu * D_{a-b} nu, f> (`binomial_terms` x samples x probes)."""
    if not samples:
        raise ValueError("samples must be nonempty")
    app = apply_family(family, samples)
    n, count = len(family.alphas), len(samples)
    bounds = np.searchsorted(app.blocks, np.arange(count + len(app.slot) + 1)).tolist()
    beta, gamma, coef, _ = binomial_terms(tuple(family.alphas))
    # the pairs of entries of mu and of nu where some D_b weighs, per sample
    live = (app.weights != 0).any(axis=0)
    grid = {key: (np.flatnonzero(live[bounds[j] : bounds[j + 1]]) + bounds[j]).tolist() for key, j in app.slot.items()}
    cells = [(s, x, y) for s, (mu, nu) in enumerate(samples) for x in grid[id(mu)] for y in grid[id(nu)]]
    owner, ex, ey = np.array(cells, dtype=np.intp).reshape(-1, 3).T
    hg = family.hypergroup  # `convolutions` validated the grid's points, unless an operator without a symbol gave them
    read = hg.pair_supports if any(family.op(alpha).symbol is None for alpha in family.alphas) else hg._read
    sup = read([(app.points[x], app.points[y]) for _, x, y in cells])
    # each probe at the grid's distinct points (numbered first), then at the points of D_a(mu*nu) no
    # term reaches, where `pair` first meets them: by alpha, sample, probe, point
    points, lhs = _points(app.points[: bounds[count]]), app.weights[:, : bounds[count]]
    ids, first = _distinct(np.concatenate([sup.points, points]))
    reached, at = np.searchsorted(first, len(sup.points)), ids[len(sup.points) :]
    at_f, done = np.zeros((len(probes), len(first)), dtype=complex), np.arange(len(first)) < reached
    at_f[:, :reached] = [values_at(f, sup.points[first[:reached]].tolist()) for f in probes]
    late = sorted(set(app.blocks[: bounds[count]][at >= reached].tolist()))  # the samples holding such points
    for a, s in itertools.product(range(n), late):  # a block's points are distinct
        span = slice(bounds[s], bounds[s + 1])
        new = np.flatnonzero((lhs[a, span] != 0) & ~done[at[span]]) + bounds[s]
        at_f[:, at[new]], done[at[new]] = [values_at(f, points[new].tolist()) for f in probes], True
    # D_a(mu*nu) paired with each probe, summed in support order as `pair` sums
    lv = np.zeros((count, n, len(probes)), dtype=complex)
    paired = np.where(lhs[:, None] != 0, complex_product(at_f[:, at], lhs[:, None]), 0)  # masks inf * 0 where lhs is 0
    np.add.at(lv, app.blocks[: bounds[count]], paired.transpose(2, 0, 1))
    # D_b mu * D_c nu for every term, merged per point in the order `convolve` adds its items,
    # then paired with each probe, summed in point order
    items = complex_product(app.weights[beta[:, None], ex[sup.rows]], app.weights[gamma[:, None], ey[sup.rows]])
    kept, merged = merge(owner[sup.rows], sup.points, (items * sup.weights).T)
    terms = np.zeros((count, len(probes), len(beta)), dtype=complex)
    np.add.at(terms, owner[sup.rows][kept], complex_product(at_f[:, ids[kept]].T[:, :, None], (merged * coef)[:, None]))
    return lv.transpose(1, 0, 2), terms.transpose(2, 0, 1)


class Applied(NamedTuple):
    """D_a of mu*nu for every sample (blocks 0..S-1, in sample order) and of every distinct sample
    measure m (block slot[id(m)]) on one table: entry e is the point points[e] of block blocks[e], in
    support order, and weights[a, e] is the weight of D_a there, 0j where D_a drops the point."""

    points: list
    blocks: np.ndarray
    weights: np.ndarray
    slot: dict[int, int]


def apply_family(family: DerivationFamily, samples: list[tuple[Measure, Measure]]) -> Applied:
    """Apply the family as a loop over alphas and samples first needs it: D_a(mu*nu),
    then D_a mu and D_a nu (D_a nu first after alpha 0), each once, on one table.  An
    operator whose symbol is a family entry (`table_rows`) multiplies by one table of its
    family's rule at the distinct points, as `module_action` does.  The loop runs every
    other operator, and all of them where that table raises or gives a non-finite
    weight: an operator with a symbol takes one `evaluate` over the distinct
    points in the order the loop first meets them, so the first DomainError is the loop's,
    raised after the blocks the loop finished are multiplied.  Any other operator is called
    on each measure, and the support it returns joins the table.  A call on the last call's
    objects (hypergroup, operators, sample measures) reads the table the family keeps, read-only."""
    hg, alphas, failure = family.hypergroup, family.alphas, None
    inputs = (hg, *map(family.entries.get, alphas), *itertools.chain.from_iterable(samples))
    if len(family._applied[0]) == len(inputs) and all(a is b for a, b in zip(family._applied[0], inputs)):
        return family._applied[1]
    try:
        points, blocks, weights = convolutions(hg, samples)
    except DomainError:
        for s in range(len(samples)):  # the loop applies D_0 to the samples before the first it cannot convolve
            try:
                convolutions(hg, samples[s : s + 1])
            except DomainError as exc:
                failure, samples, alphas = exc, samples[:s], alphas[:1]
                break
        points, blocks, weights = convolutions(hg, samples)
    measures = list({id(m): m for sample in samples for m in sample}.values())
    slot = {id(m): len(samples) + j for j, m in enumerate(measures)}
    points = _points([*points.tolist(), *(x for m in measures for x, _ in m.support)])
    sizes = [len(m.support) for m in measures]
    blocks = np.concatenate([blocks, np.repeat(np.arange(len(measures)) + len(samples), sizes)])
    weights = np.concatenate([weights, np.array([w for m in measures for _, w in m.support], dtype=complex)])
    bounds = np.searchsorted(blocks, np.arange(len(samples) + len(measures) + 1)).tolist()
    symbols, (at, first) = [family.op(alpha).symbol for alpha in alphas], _distinct(points)  # a number per point
    covered = table_rows(symbols, points[first].tolist())
    table, calls, done = np.zeros((len(alphas), len(points)), dtype=complex), [], []
    if covered:
        try:
            table[list(covered)] = multiply(np.array(list(covered.values()))[:, at], weights)
        except DomainError:  # a non-finite weight: the loop finds the error it meets first
            covered = {}
    loop = [a for a in range(len(alphas)) if a not in covered]
    seqs = [dict.fromkeys(b for s, pair in enumerate(samples) for b in (s, *(slot[id(m)] for m in pair[::step])))
            for step in (1, -1)]
    walks = []  # per block order: its entries, where each one's block starts, each one's point's number, those points
    for seq in seqs if any(symbols[a] is not None for a in loop) else ():
        cols = np.array([e for j in seq for e in range(bounds[j], bounds[j + 1])], dtype=np.intp)
        sizes, (order, met) = np.diff(bounds)[list(seq)], _distinct(at[cols])
        walks.append((cols, np.repeat(np.cumsum(sizes) - sizes, sizes), order, points[cols[met]].tolist()))
    try:
        for a in loop:
            op = family.op(alphas[a])
            if op.symbol is None:
                for j in seqs[a > 0]:
                    span = slice(bounds[j], bounds[j + 1])
                    out = op(Measure(hg, tuple(zip(points[span].tolist(), weights[span].tolist()))))
                    calls += [(j, x, a, w) for x, w in out.support]
                continue
            cols, block_at, order, distinct = walks[a > 0]
            values, error = evaluate(op.symbol, distinct)  # the blocks before an error's are done
            end = len(cols) if error is None else block_at[np.argmax(order >= len(values))]
            done.append((np.full(end, a), cols[:end], values[order[:end]]))
            if error is not None:
                raise error
    finally:  # the loop multiplies each measure once its points are evaluated, so a non-finite
        # product on the measures before a failure is the error it raises
        if done:
            rows, cols, values = map(np.concatenate, zip(*done))
            table[rows, cols] = multiply(values, weights[cols])
    if failure:
        raise failure
    if calls:  # the supports the operators return join the table, each block's points sorted
        extra = np.zeros((len(calls), len(alphas)), dtype=complex)
        extra[np.arange(len(calls)), [a for _, _, a, _ in calls]] = [w for *_, w in calls]
        blocks = np.concatenate([blocks, [j for j, *_ in calls]])
        points = _points([*points.tolist(), *(x for _, x, _, _ in calls)])
        kept, table = merge(blocks, points, np.concatenate([table.T, extra]))
        points, blocks, table = points[kept], blocks[kept], table.T
    blocks.flags.writeable = table.flags.writeable = False  # the checks share it
    family._applied = inputs, Applied(points.tolist(), blocks, table, slot)
    return family._applied[1]


def _multiplicativity(report: Report, name: str, lhs: np.ndarray, rhs: np.ndarray, samples: list,
                      tol: Tolerance) -> None:
    """Record <F(mu*nu), 1> = <F(mu)*F(nu), 1> as `name`, from the alpha = 0 row of a Leibniz table."""
    size = np.maximum(complex_abs(lhs), complex_abs(rhs))
    zero = size.max() <= tol.bound(1.0)
    report.add_worst(
        name, "<F(mu*nu), 1> = <F(mu)*F(nu), 1>", complex_abs(lhs - rhs), np.maximum(1.0, size), tol,
        lambda i: [*map(as_literal, samples[i]), complex(lhs[i]), complex(rhs[i])],
        detail="operator is zero on all samples; multiplicativity holds trivially" if zero else "",
    )


def is_multiplicative_hom(
    op: MeasureOperator,
    samples: list[tuple[Measure, Measure]],
    tol: Tolerance | None = None,
) -> Report:
    """Check F(mu*nu) = F(mu)*F(nu) on sample pairs, through the total-mass pairing.

    Both sides are compared as <., 1> functionals: this is the sense in which
    multiplication by an exponential preserves convolution on a hypergroup
    (the canonical measures themselves differ whenever a point convolution has
    more than one support point).  On group carriers the two senses coincide.
    """
    family = DerivationFamily(op.hypergroup, 1, 0, {(0,): op})
    (lhs,), (rhs,) = (side[..., 0] for side in _leibniz_sides(family, samples, [CFunction.constant(1.0)]))
    report = Report(title=f"multiplicative homomorphism: {op.name}")
    _multiplicativity(report, "multiplicativity", lhs, rhs, samples, tol or default_tolerance())
    return report


def verify_d0_derivation(
    d0: MeasureOperator,
    d: MeasureOperator,
    samples: list[tuple[Measure, Measure]],
    tol: Tolerance | None = None,
) -> Report:
    """Check D(mu*nu) = D0 mu * D nu + D mu * D0 nu through the total-mass pairing.

    D0 must itself pass the multiplicativity check on the samples; that
    precondition is re-verified and included in the report.  With D0 the
    identity operator this is the ordinary derivation property.  The two records
    are the alpha = 0 and 1 rows of one Leibniz table of the family {D0, D}.
    """
    tol = tol or default_tolerance()
    family = DerivationFamily(d0.hypergroup, 1, 1, {(0,): d0, (1,): d})
    (m0, lv), (r0, t1, t2) = (side[..., 0] for side in _leibniz_sides(family, samples, [CFunction.constant(1.0)]))
    report = Report(title=f"{d0.name}-derivation: {d.name}")
    _multiplicativity(report, "precondition: multiplicativity", m0, r0, samples, tol)
    report.add_worst(
        "product-rule", "<D(mu*nu), 1> = <D0 mu * D nu, 1> + <D mu * D0 nu, 1>", complex_abs(lv - (t1 + t2)),
        np.maximum.reduce([np.ones(len(samples)), complex_abs(lv), complex_abs(t1), complex_abs(t2)]), tol,
        lambda i: [*map(as_literal, samples[i]), complex(lv[i]), complex(t1[i] + t2[i])],
    )
    return report


# ---------------------------------------------------------------------------
# extension solver (finite carriers)


@dataclass(frozen=True)
class AffineSolutionSet:
    """Solutions of the linear extension problem: particular + null space."""

    points: tuple[Point, ...]
    consistent: bool
    particular: tuple[complex, ...] | None
    nullspace: tuple[tuple[complex, ...], ...]  # basis vectors, one per row
    rank: int
    residual: float
    scale: float

    @property
    def nullity(self) -> int:
        return len(self.nullspace)

    def is_trivial(self, tol: Tolerance | None = None) -> bool:
        """True when the solution set is exactly {0}."""
        tol = tol or default_tolerance()
        if not self.consistent or self.nullspace or self.particular is None:
            return False
        return max(abs(v) for v in self.particular) <= tol.bound(self.scale)

    def describe(self) -> str:
        if not self.consistent:
            return "inconsistent"
        if self.nullspace:
            return f"affine: dimension {self.nullity}"
        return "unique: zero" if self.is_trivial() else "unique: nonzero"


def extend_moment_sequence(
    hg: FiniteHypergroup,
    lower: Mapping[MultiIndex, CFunction] | MomentSequence,
    alpha: Sequence[int],
    tol: Tolerance | None = None,
) -> AffineSolutionSet:
    """Solve for the vector (phi_alpha(x))_x extending a partial moment sequence.

    The unknown enters the defining identity linearly once all phi_beta with
    beta < alpha are fixed; the system runs over every ordered pair of carrier
    points.  The lower entries must satisfy their own identities, otherwise a
    PreconditionError is raised.
    """
    if not isinstance(hg, FiniteHypergroup):
        raise DomainError("extension is implemented for finite hypergroups only")
    tol = tol or default_tolerance()
    alpha = as_index(alpha)
    if index_order(alpha) == 0:
        raise DomainError("alpha must have positive order")
    entries: Mapping[MultiIndex, CFunction]
    entries = lower.entries if isinstance(lower, MomentSequence) else dict(lower)
    needed = [beta for beta in lower_indices(alpha) if beta != alpha]
    missing = [beta for beta in needed if beta not in entries]
    if missing:
        raise DomainError(f"lower entries missing for {missing}")

    n, sup = hg.size, hg._entries
    a_mat = np.zeros(_capped((n * n, n), "extension system"), dtype=complex)  # dense by nature: refused first
    pts = list(range(n))
    zero = (0,) * len(alpha)
    values = {beta: np.array([entries[beta](x) for x in pts], dtype=complex) for beta in needed}

    # precondition: identities of the fixed lower entries hold
    table = np.array([values[beta] for beta in needed])
    rows_b, rows_g, coef, _ = binomial_terms(tuple(needed))
    terms = (coef[:, None] * table[rows_b])[:, :, None] * table[rows_g][:, None, :]
    lhs = sup.pairings(table[:, sup.points]).reshape(len(needed), n, n)
    checked = Report(title="lower entries")
    _identity_records(checked, "", "", needed, lhs, terms, tol, lambda i: [divmod(i, n)])
    if checked.failed_records:
        rec = checked.failed_records[0]
        raise PreconditionError(
            f"lower entry phi_{rec.counterexample[0]} violates its moment identity at "
            f"{tuple(rec.counterexample[1])} (residual {rec.residual:.3e})"
        )

    # one row per ordered pair (x, y): <dx*dy, phi_alpha> - phi_alpha(y) phi_0(x) - phi_alpha(x) phi_0(y)
    phi0 = values[zero]
    xs, ys = np.divmod(np.arange(n * n), n)
    a_mat[sup.rows, sup.points] = sup.weights
    a_mat[xs * n + ys, ys] -= phi0[xs]
    a_mat[xs * n + ys, xs] -= phi0[ys]
    b_mat = np.zeros(n * n, dtype=complex)
    for beta in needed:
        if beta != zero:
            b_mat += (multi_binomial(alpha, beta) * values[beta])[xs] * values[index_sub(alpha, beta)][ys]
    # one thin SVD gives the least-squares solution V S^+ U^H b and the null space; the rank counts the singular
    # values above eps * max(shape) * s_max (lstsq's default rcond, scipy.linalg.null_space, numpy's matrix_rank)
    u, sing, vh = np.linalg.svd(a_mat, full_matrices=False)  # n^2 rows >= n columns
    rank = int(np.sum(sing > np.finfo(float).eps * max(a_mat.shape) * np.max(sing, initial=0.0)))
    solution = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ b_mat) / sing[:rank])
    residual = float(np.max(np.abs(a_mat @ solution - b_mat))) if len(b_mat) else 0.0
    scale = max(
        1.0,
        float(np.max(np.abs(b_mat))) if len(b_mat) else 0.0,
        float(np.max(np.abs(a_mat))) * float(np.max(np.abs(solution), initial=0.0)),
    )
    consistent = tol.ok(residual, scale)
    null = vh[rank:].conj().T
    return AffineSolutionSet(
        points=tuple(pts),
        consistent=consistent,
        particular=tuple(complex(v) for v in solution) if consistent else None,
        nullspace=tuple(tuple(complex(v) for v in null[:, j]) for j in range(null.shape[1])),
        rank=rank,
        residual=residual,
        scale=scale,
    )


def iterated_extension(
    hg: FiniteHypergroup,
    phi0: CFunction,
    alpha: Sequence[int],
    tol: Tolerance | None = None,
) -> tuple[Report, dict[MultiIndex, CFunction]]:
    """Extend phi_0 step by step to every beta <= alpha, adopting each solution.

    Each step solves the linear extension problem in graded order; a unique
    solution (zero or not) is adopted as the next entry.  The report carries
    one record per step with the solution-set shape in the detail.
    """
    tol = tol or default_tolerance()
    alpha = as_index(alpha)
    rank = len(alpha)
    entries: dict[MultiIndex, CFunction] = {(0,) * rank: phi0}
    report = Report(
        title="moment sequence extension",
        meta={"alpha": list(alpha), "rank": rank},
    )
    steps = [beta for beta in lower_indices(alpha) if index_order(beta) > 0]
    steps.sort(key=lambda b: (index_order(b), b))
    all_trivial = True
    for beta in steps:
        try:
            sol = extend_moment_sequence(hg, entries, beta, tol)
        except PreconditionError as exc:
            report.add(
                f"extend alpha={list(beta)}",
                "linear extension of the moment identity",
                False,
                counterexample=str(exc),
                detail="precondition failed",
            )
            all_trivial = False
            break
        trivial = sol.is_trivial(tol)
        all_trivial = all_trivial and trivial
        report.add(
            f"extend alpha={list(beta)}",
            "linear extension of the moment identity",
            sol.consistent,
            sol.residual,
            sol.scale,
            counterexample=None if sol.consistent else "inconsistent system",
            detail=sol.describe(),
        )
        if not sol.consistent:
            break
        values = dict(zip(sol.points, sol.particular or ()))
        entries[beta] = CFunction.from_table(values)
    report.meta["trivial"] = all_trivial and report.passed
    return report, entries
