"""The structure-tensor kernel against the case-by-case definitions it replaces.

`reference_check_axioms` is the pairwise loop that `check_axioms` ran before
the kernel: every case is a `Measure` convolution, compared with
`measure_residual`, stopping at the first failure.  The kernel must give the
same records in the same order, with the same statuses, counterexamples and
residuals (within 1e-15 of the scale), and the same details except on an
associativity error, which names the first undefined convolution of its run
of x.  `reference_linearization` is the recursive definition of the
linearization coefficients, errors included.  `reference_rule` is each
carrier's point convolution stated apart from `_pairs` (a finite table's row,
`reference_linearization`, x + y), and `reference_convolve` the per-pair loop
that `convolve` ran before it read all its pairs at once; the reference loops
convolve through these two only.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypermoment
from hypermoment import (
    DomainError,
    FiniteHypergroup,
    Measure,
    PolynomialHypergroup,
    RealLineHypergroup,
    Report,
    check_axioms,
    chebyshev,
    convolve,
    dirac,
    legendre,
    measure_residual,
    real_line,
    two_point,
)
from hypermoment.config import Tolerance, default_tolerance, set_default_tolerance
from hypermoment.hypergroups import assoc_sample
from hypermoment.io import load_hypergroup


def reference_rule(hg):
    """delta_x * delta_y on `hg` as a `Measure`, stated apart from `_pairs`: a
    finite table's row, `reference_linearization` of the sorted pair (its
    outcomes kept across calls), or x + y on the real line."""
    memo: dict = {}

    def conv(x, y) -> Measure:
        x, y = hg.validate_point(x), hg.validate_point(y)
        if isinstance(hg, FiniteHypergroup):
            items = hg._table[x, y]
        elif isinstance(hg, PolynomialHypergroup):
            items = reference_linearization(hg, min(x, y), max(x, y), memo).items()
        else:
            assert isinstance(hg, RealLineHypergroup)
            items = [(x + y, 1.0)]
        return Measure.from_items(hg, items)

    return conv


def reference_convolve(mu, nu, conv) -> Measure:
    """mu * nu by a loop over the pairs of support points and the point rule `conv`."""
    items = []
    for x, wx in mu.support:
        for y, wy in nu.support:
            for z, w in conv(x, y).support:
                items.append((z, wx * wy * w))
    return Measure.from_items(mu.hypergroup, items)


def reference_check_axioms(hg, sample_bound: int) -> Report:
    tol = default_tolerance()
    pts = hg.sample_points(sample_bound)
    report = Report(title="reference")
    conv = reference_rule(hg)

    worst_neg, neg_ce, worst_norm, norm_ce, error = 0.0, None, 0.0, None, None
    for x in pts:
        if error:
            break
        for y in pts:
            try:
                mu = conv(x, y)
            except DomainError as exc:
                error = f"({x},{y}): {exc}"
                break
            low = min((w.real for _, w in mu.support), default=0.0)
            if -low > worst_neg:
                worst_neg, neg_ce = -low, [x, y, list(mu.points)]
            drift = abs(mu.total_mass() - 1.0)
            if drift > worst_norm:
                worst_norm, norm_ce = drift, [x, y, [mu.total_mass().real, mu.total_mass().imag]]
    for name, worst, ce in (("nonnegativity", worst_neg, neg_ce), ("normalization", worst_norm, norm_ce)):
        if error:
            report.add(name, "", False, error=True, detail=error)
        else:
            report.add(name, "", tol.ok(worst), worst, 1.0, counterexample=None if tol.ok(worst) else ce)

    def first_failure(name, gen):
        worst, worst_scale, ce = 0.0, 1.0, None
        try:
            for label, lhs, rhs in gen:
                res, scl = measure_residual(lhs, rhs)
                if res / scl > worst / worst_scale:
                    worst, worst_scale = res, scl
                if not tol.ok(res, scl):
                    ce = label
                    break
        except DomainError as exc:
            report.add(name, "", False, error=True, detail=str(exc))
            return
        report.add(name, "", ce is None, worst, worst_scale, counterexample=ce)

    o = hg.identity
    first_failure("identity", ((["o", x], conv(o, x), dirac(hg, x)) for x in pts))
    first_failure("commutativity", (([x, y], conv(x, y), conv(y, x)) for x in pts for y in pts))
    small = [pts[i] for i in assoc_sample(hg, len(pts))]
    first_failure(
        "associativity",
        (
            ([x, y, z], reference_convolve(conv(x, y), dirac(hg, z), conv),
             reference_convolve(dirac(hg, x), conv(y, z), conv))
            for x in small
            for y in small
            for z in small
        ),
    )
    return report


def _python_scalars(value) -> bool:
    if isinstance(value, list):
        return all(_python_scalars(v) for v in value)
    return value is None or type(value) in (int, float, str)


def assert_matches_reference(make, bound: int = 8) -> None:
    got = check_axioms(make(), sample_bound=bound)
    want = reference_check_axioms(make(), bound)
    assert [r.name for r in got.records] == [r.name for r in want.records]
    for g, w in zip(got.records, want.records):
        assert (g.name, g.status, g.counterexample) == (w.name, w.status, w.counterexample)
        assert g.detail == w.detail or (g.name, g.status) == ("associativity", "error")
        assert _python_scalars(g.counterexample), g.counterexample
        assert abs(g.residual - w.residual) <= 1e-15 * w.scale
        assert abs(g.scale - w.scale) <= 1e-15 * w.scale


# ---------------------------------------------------------------------------
# tables


def cyclic(n: int) -> list:
    return [[a, b, [[(a + b) % n, 1.0]]] for a in range(n) for b in range(n)]


def redirected(n: int, i: int, j: int) -> list:
    """Z_n with the pair {i, j} sent one step further: commutative, not associative."""
    return [[a, b, [[(a + b + 1) % n if {a, b} == {i, j} else (a + b) % n, 1.0]]] for a in range(n) for b in range(n)]


def two_point_table(theta: float) -> list:
    return [[0, 0, [[0, 1.0]]], [0, 1, [[1, 1.0]]], [1, 0, [[1, 1.0]]], [1, 1, [[0, theta], [1, 1.0 - theta]]]]


def product(theta1: float, theta2: float) -> FiniteHypergroup:
    """D(theta1) x D(theta2) on {0,1,2,3}, the point (a, b) at index 2a + b."""
    t1, t2 = (dict(((a, b), row) for a, b, row in two_point_table(t)) for t in (theta1, theta2))
    table = [
        [2 * a1 + a2, 2 * b1 + b2, [[2 * k1 + k2, w1 * w2] for k1, w1 in t1[a1, b1] for k2, w2 in t2[a2, b2]]]
        for a1 in range(2) for a2 in range(2) for b1 in range(2) for b2 in range(2)
    ]
    return FiniteHypergroup(4, 0, table)


def chebyshev_dip(row: int, a: float, bound: int) -> PolynomialHypergroup:
    """Chebyshev rows with row `row` replaced by (a, 0, 1-a): some coefficient goes negative."""
    rows = [(0.5, 0.0, 0.5)] * (2 * bound + 2)
    return PolynomialHypergroup(1.0, 0.0, rows[: row - 1] + [(a, 0.0, 1.0 - a)] + rows[row:])


# ---------------------------------------------------------------------------
# the kernel against the reference loop


@pytest.mark.parametrize("n", range(3, 13))
def test_cyclic_groups(n):
    assert_matches_reference(lambda: FiniteHypergroup(n, 0, cyclic(n)))


@pytest.mark.parametrize("theta", [0.05, 0.3, 0.5, 0.77, 1.0])
def test_two_point_and_products(theta):
    assert_matches_reference(lambda: two_point(theta))
    assert_matches_reference(lambda: product(theta, 1.1 - theta))


@pytest.mark.parametrize("theta", [1.05, 1.3, 1.9])
def test_negative_weight_tables(theta):
    assert_matches_reference(lambda: FiniteHypergroup(2, 0, two_point_table(theta)))
    assert_matches_reference(lambda: product(theta, 0.4))


@pytest.mark.parametrize("n,i,j", [(4, 1, 2), (5, 1, 2), (6, 2, 5), (7, 3, 3), (8, 1, 7)])
def test_redirected_cyclic_tables(n, i, j):
    assert_matches_reference(lambda: FiniteHypergroup(n, 0, redirected(n, i, j)))


@pytest.mark.parametrize(
    "row,a,bound", [(2, 0.1, 6), (2, 0.3, 7), (3, 0.8, 8), (3, 0.9, 9), (4, 0.7, 10), (5, 0.3, 12), (6, 0.05, 16)]
)
def test_chebyshev_row_dips(row, a, bound):
    # an error record wherever the case loop meets the negative coefficient,
    # including pairs beyond the sample that only associativity reaches
    for b in (3, 5, bound):
        assert_matches_reference(lambda: chebyshev_dip(row, a, bound), b)


def test_invalid_and_exhausted_rows():
    for b in (2, 4, 6):
        assert_matches_reference(lambda: PolynomialHypergroup(1.0, 0.0, [(0.5, 0.0, 0.5)] * 5), b)
    bad_row = lambda n: (0.0, 0.5, 0.5) if n == 7 else (0.5, 0.0, 0.5)  # noqa: E731
    for b in (3, 5, 8):
        assert_matches_reference(lambda: PolynomialHypergroup(1.0, 0.0, bad_row), b)
    assert_matches_reference(lambda: PolynomialHypergroup(0.25, 0.75, lambda n: (0.05, 0.9, 0.05)), 6)


@pytest.mark.parametrize("bound", range(1, 17))
@pytest.mark.parametrize("preset", ["chebyshev", "legendre"])
def test_polynomial_presets(preset, bound):
    assert_matches_reference({"chebyshev": chebyshev, "legendre": legendre}[preset], bound)


@pytest.mark.parametrize("bound", [1, 2, 5, 8])
def test_real_line(bound):
    assert_matches_reference(real_line, bound)


@st.composite
def small_tables(draw):
    n = draw(st.integers(1, 4))
    weight = st.one_of(st.sampled_from([1.0, 0.5, 0.25, -0.25]), st.floats(-1, 1, allow_nan=False))
    table = []
    for a in range(n):
        for b in range(n):
            support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            table.append([a, b, [[k, draw(weight)] for k in support]])
    return n, draw(st.integers(0, n - 1)), table


@pytest.mark.parametrize("cap,assoc_cap", [(20000, 6), (40000, 8)])
def test_slices_and_runs_match_reference(monkeypatch, cap, assoc_cap):
    # small caps cut associativity into runs of x and the polynomial rows into blocks of pairs
    monkeypatch.setattr(hypermoment.hypergroups, "DENSE_CAP", cap)
    monkeypatch.setattr(hypermoment.hypergroups, "ASSOC_CAP", assoc_cap)
    for make in (chebyshev, legendre, real_line, lambda: chebyshev_dip(3, 0.8, 30)):
        assert_matches_reference(make, 30)


def test_oversized_slice_is_refused(monkeypatch):
    monkeypatch.setattr(hypermoment.hypergroups, "DENSE_CAP", 500)
    with pytest.raises(DomainError, match="exceeds 500 entries"):
        check_axioms(chebyshev(), 12)


def far_dip() -> PolynomialHypergroup:
    """Legendre rows with row 50 replaced: a linearization goes negative only past degree 50."""
    return PolynomialHypergroup(
        1.0, 0.0, lambda n: (0.3, 0.0, 0.7) if n == 50 else ((n + 1) / (2 * n + 1), 0.0, n / (2 * n + 1))
    )


CARRIERS = {"chebyshev": chebyshev, "legendre": legendre, "realline": real_line,
            "dip": lambda: chebyshev_dip(3, 0.8, 40), "far-dip": far_dip}
# (carrier, bound, DENSE_CAP, ASSOC_CAP), as the parent commit treated them: it refused the first
# list, after its pair checks and, for most, after associativity runs; it accepted the second, two
# of them because a convolution an earlier x needs is undefined and ends the scan first
PARENT_REFUSED = [("legendre", 20, 6000, 6), ("chebyshev", 30, 6000, 6),
                  ("chebyshev", 9, 2000, 48), ("legendre", 30, 12000, 6), ("dip", 20, 1500, 6),
                  ("far-dip", 20, 3000, 6), ("realline", 6, 4000, 48)]
# refused by dense pair checks only, whose x-slices exceeded the cap: flat pair checks have no slices
SLICE_REFUSED = [("realline", 20, 1500, 6)]
PARENT_ACCEPTED = [("dip", 30, 6000, 6), ("far-dip", 30, 12000, 6), ("chebyshev", 20, 6000, 6),
                   ("legendre", 12, 16000, 48), ("dip", 10, 1500, 6), ("realline", 30, 6000, 6),
                   ("far-dip", 30, 20000, 6), ("dip", 12, 8000, 48)]


def _capped_run(monkeypatch, name, bound, cap, assoc_cap):
    monkeypatch.setattr(hypermoment.hypergroups, "DENSE_CAP", cap)
    monkeypatch.setattr(hypermoment.hypergroups, "ASSOC_CAP", assoc_cap)
    hg, grids = CARRIERS[name](), []
    dense = hypermoment.hypergroups._dense
    monkeypatch.setattr(hypermoment.hypergroups, "_dense",
                        lambda grid, shape: grids.append(shape) or dense(grid, shape))
    return hg, grids


@pytest.mark.parametrize("name,bound,cap,assoc_cap", PARENT_REFUSED)
def test_oversized_sample_is_refused_before_the_pair_checks(monkeypatch, name, bound, cap, assoc_cap):
    hg, grids = _capped_run(monkeypatch, name, bound, cap, assoc_cap)
    with pytest.raises(DomainError, match="exceeds"):
        check_axioms(hg, bound)
    s = len(assoc_sample(hg, len(hg.sample_points(bound))))
    assert grids == [(s, s)]  # the associativity sample's structure only: no slice of the pair checks


@pytest.mark.parametrize("name,bound,cap,assoc_cap", PARENT_ACCEPTED)
def test_samples_the_parent_accepted_are_accepted(monkeypatch, name, bound, cap, assoc_cap):
    hg, _ = _capped_run(monkeypatch, name, bound, cap, assoc_cap)
    assert check_axioms(hg, bound).records[-1].name == "associativity"


@pytest.mark.parametrize("name,bound,cap,assoc_cap", SLICE_REFUSED)
def test_samples_refused_only_by_pair_check_slices_are_accepted(monkeypatch, name, bound, cap, assoc_cap):
    _capped_run(monkeypatch, name, bound, cap, assoc_cap)
    assert_matches_reference(CARRIERS[name], bound)


def test_legendre_bound_200_is_refused_before_the_pair_checks(monkeypatch):
    # the parent ran its pair checks and 32 associativity runs (15.5 s) before this refusal
    hg, grids = _capped_run(monkeypatch, "legendre", 200, hypermoment.hypergroups.DENSE_CAP, 48)
    with pytest.raises(DomainError, match=r"shape \(15792, 537\) exceeds"):
        check_axioms(hg, 200)
    assert grids == [(48, 48)]


@pytest.mark.parametrize("bound", [200, 400])
def test_large_real_line_bound_stays_within_memory(bound):
    # dense P x P x W arrays would take about 1 GB each at bound 200
    tracemalloc.start()
    try:
        assert check_axioms(real_line(), bound).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * hypermoment.hypergroups.DENSE_CAP


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_random_small_tables(spec):
    n, identity, table = spec
    assert_matches_reference(lambda: FiniteHypergroup(n, identity, table))


# ---------------------------------------------------------------------------
# linearization table


def reference_linearization(hg, m: int, n: int, memo: dict | None = None) -> dict:
    """P_m * P_n by the recursion in m, checking rows and coefficients in its order.

    `memo`, when given, keeps the outcome of every pair the recursion reaches.
    """
    if memo is None:
        return _recursion(hg, m, n, None)
    if (m, n) not in memo:
        memo[m, n] = _outcome(lambda: _recursion(hg, m, n, memo))
    if isinstance(memo[m, n], str):
        raise DomainError(memo[m, n])
    return memo[m, n]


def _recursion(hg, m: int, n: int, memo: dict | None) -> dict:
    bound = default_tolerance().bound(1.0)
    if m == 0:
        result = {n: 1.0}
    elif m == 1:
        result = {1: 1.0}
        if n:
            a, b, c = hg.coefficient_row(n)
            result = {n + 1: a, n - 1: c} | ({n: b} if b else {})
    else:
        a, b, c = hg.coefficient_row(m - 1)
        mid, low = reference_linearization(hg, m - 1, n, memo), reference_linearization(hg, m - 2, n, memo)
        acc: dict[int, float] = {}
        for l, w in sorted(mid.items()):
            for l2, w2 in sorted(reference_linearization(hg, 1, l, memo).items()):
                acc[l2] = acc.get(l2, 0.0) + w * w2
            acc[l] = acc.get(l, 0.0) - b * w
        for l, w in sorted(low.items()):
            acc[l] = acc.get(l, 0.0) - c * w
        result = {l: w / a for l, w in acc.items()}
    lo, hi = abs(n - m), n + m
    for l, w in result.items():
        if w != 0.0 and not lo <= l <= hi and abs(w) > bound:
            raise DomainError(f"linearization({m},{n}) produced coefficient {w} at l={l} outside [{lo},{hi}]")
        if w != 0.0 and lo <= l <= hi and w < -bound:
            raise DomainError(
                f"linearization({m},{n}) produced negative coefficient {w} at l={l}; "
                "the recurrence does not define a hypergroup"
            )
    return {l: w for l, w in result.items() if w != 0.0 and lo <= l <= hi}


def _outcome(fn) -> dict | str:
    try:
        return dict(fn())
    except DomainError as exc:
        return str(exc)


RECURRENCES = [
    chebyshev,
    legendre,
    lambda: PolynomialHypergroup(0.6, 0.4, lambda n: (0.5, 0.2, 0.3)),
    lambda: PolynomialHypergroup(1.0, 0.0, [(0.5, 0.0, 0.5)] * 5),
    lambda: PolynomialHypergroup(1.0, 0.0, lambda n: (0.0, 0.5, 0.5) if n in (4, 7) else (0.5, 0.0, 0.5)),
    lambda: chebyshev_dip(3, 0.8, 12),
]


@pytest.mark.parametrize("make", RECURRENCES)
def test_linearization_equals_recursion_bit_for_bit(make):
    # values and error messages; the kernel carrier keeps its memo across calls
    hg, ref = make(), make()
    for m in range(12):
        for n in range(12):
            assert _outcome(lambda: hg.linearization(m, n)) == _outcome(lambda: reference_linearization(ref, m, n))


def test_linearization_reports_the_highest_invalid_row_below_m():
    hg = PolynomialHypergroup(1.0, 0.0, [(0.5, 0.0, 0.5)] * 5)
    with pytest.raises(DomainError, match="row 6 requested"):
        hg.linearization(7, 7)
    with pytest.raises(DomainError, match="row 7 requested"):
        hg.linearization(8, 5)


def test_linearization_deep_in_m():
    # the recursion raised RecursionError here; Chebyshev closed form T_m T_n = (T_{m+n} + T_{|m-n|})/2.
    # On a fresh carrier the table of (1200, 3) is kept (1201 steps of one column) and that of
    # (5000, 5000) exceeds DENSE_CAP, so the pair runs alone: memory stays within twice the cap
    cases = [((1200, 3), ((1197, 0.5), (1203, 0.5))), ((3, 1200), ((1197, 0.5), (1203, 0.5))),
             ((5000, 5000), ((0, 0.5), (10000, 0.5)))]
    for (m, n), want in cases:
        tracemalloc.start()
        try:
            assert chebyshev().linearization(m, n) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * hypermoment.hypergroups.DENSE_CAP


def _held(hg) -> tuple[list[int], int]:
    """The columns and the height of a polynomial carrier's linearization table."""
    slot, rows, _ = hg._lin
    return np.flatnonzero(slot >= 0).tolist(), rows.shape[1]


def test_linearization_table_per_carrier(monkeypatch):
    # one table of rows that linearization and _pairs both read: a cold sample grid takes one
    # _lin_table call and a warm one none; a read past its columns or height rebuilds it once
    hg, calls = chebyshev(), []
    table = hg._lin_table
    monkeypatch.setattr(hg, "_lin_table", lambda ms, ns, bound: calls.append(len(ms)) or table(ms, ns, bound))
    grid = [(x, y) for x in range(9) for y in range(9)]
    cold = _supports(hg.pair_supports(grid))
    assert calls == [81] and _held(hg) == (list(range(9)), 9)
    assert _supports(hg.pair_supports(grid)) == cold and len(calls) == 1
    assert hg.linearization(3, 12) == ((9, 0.5), (15, 0.5))  # column 12: rebuilt on the union
    assert calls[1:] == [90] and _held(hg) == (list(range(9)) + [12], 9)
    assert hg.linearization(10, 2) == ((8, 0.5), (12, 0.5))  # step 10: rebuilt up to the larger height
    assert calls[2:] == [110] and _held(hg) == (list(range(9)) + [12], 11)
    hg.pair_supports(grid[::-1]), hg.linearization(10, 12), hg.linearization(0, 0)
    assert len(calls) == 3
    # a call whose table would exceed DENSE_CAP runs _lin_table on its own pairs and keeps nothing
    pairs = [(1, 40), (40, 2), (5, 5)]
    want = _supports(chebyshev().pair_supports(pairs))
    monkeypatch.setattr(hypermoment.hypergroups, "DENSE_CAP", 3000)
    before = hg._lin
    assert _supports(hg.pair_supports(pairs)) == want
    assert calls[3:] == [3] and hg._lin is before
    fresh = chebyshev()  # (m, n) reads column n at step m: (4, 3) and (3, 4) are two entries
    assert fresh.linearization(4, 3) == ((1, 0.5), (7, 0.5)) and _held(fresh) == ([3], 5)
    assert fresh.linearization(3, 4) == ((1, 0.5), (7, 0.5)) and _held(fresh) == ([3, 4], 5)


def test_linearization_table_follows_the_default_tolerance():
    # a change of the default tolerance empties the table, so the rows are checked against the new bound
    hg = chebyshev_dip(3, 0.8, 12)
    assert hg.linearization(1, 1) == ((0, 0.5), (2, 0.5))  # warm
    with pytest.raises(DomainError, match="negative coefficient -0.3"):
        hg.linearization(2, 2)
    default = default_tolerance()
    set_default_tolerance(Tolerance(rel=0.5))
    try:
        assert dict(hg.linearization(2, 2))[2] == pytest.approx(-0.3)
    finally:
        set_default_tolerance(default)
    with pytest.raises(DomainError, match="negative coefficient -0.3"):
        hg.linearization(2, 2)


def _supports(sup) -> list:
    return [sup.rows.tolist(), sup.points, sup.weights.tolist(), sup.count]


def _bits(fn) -> str:
    """An outcome down to the bit: the repr of a measure's support (-0.0 apart from
    0.0) or of a coefficient tuple, or the DomainError raised."""
    try:
        out = fn()
    except DomainError as exc:
        return f"DomainError: {exc}"
    return repr(out.support if isinstance(out, Measure) else out)


CONVOLUTION_CORPUS = (
    [(make, range(12)) for make in RECURRENCES]
    + [(lambda n=n: FiniteHypergroup(n, 0, cyclic(n)), range(n)) for n in range(3, 13)]
    + [(lambda: FiniteHypergroup(210, 0, cyclic(210)), range(0, 210, 13))]
    + [(real_line, [-0.0, 0.0, 1.0, -1.0, 0.5, -2.25, 0.1, -0.1, 1e300])]
)


@pytest.mark.parametrize("make,points", CONVOLUTION_CORPUS)
def test_convolutions_match_the_point_rule_bit_for_bit(make, points):
    # convolve reads all its pairs through _pairs at once, on a cold carrier first and then a
    # warm one; convolve_points and linearization read the same memo
    hg, points = make(), list(points)
    conv, rng = reference_rule(hg), random.Random(len(points))
    weights = [1.0, -0.5, 0.25j, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 3 - 2j]
    measures = [Measure.from_items(hg, [(x, rng.choice(weights)) for x in rng.sample(points, rng.randint(1, min(4, len(points))))])
                for _ in range(16)]
    samples = [(mu, nu) for mu in measures for nu in measures[::3]]
    if isinstance(hg, RealLineHypergroup):  # sums -0.0 and 0.0 in one convolution, more than a sort keeps in order
        pos, neg = (Measure.from_items(hg, [(-0.0, 1.0)] + [(s * k, 1 + k * 1j) for k in range(1, 9)]) for s in (0.5, -0.5))
        samples += [(pos, neg), (neg, pos)]
    for _ in range(2):
        for mu, nu in samples:
            assert _bits(lambda: convolve(mu, nu)) == _bits(lambda: reference_convolve(mu, nu, conv))
    for x in points:
        for y in points:
            assert _bits(lambda: hg.convolve_points(x, y)) == _bits(lambda: conv(x, y))
    if isinstance(hg, PolynomialHypergroup):
        memo: dict = {}
        for m in points:
            for n in points:
                want = _bits(lambda: tuple(sorted(reference_linearization(hg, m, n, memo).items())))
                assert _bits(lambda: hg.linearization(m, n)) == want


# ---------------------------------------------------------------------------
# sample rule, carrier equality, import weight


@pytest.mark.parametrize("bound,cheb,line", [(23, 24, 47), (40, 41, 48), (47, 48, 48), (80, 48, 48)])
def test_associativity_sample_size(bound, cheb, line):
    for hg, size in ((chebyshev(), cheb), (real_line(), line)):
        n = len(hg.sample_points(bound))
        idx = assoc_sample(hg, n)
        assert len(idx) == size
        assert idx[0] == 0 and idx[-1] == n - 1 and all(idx[1:] > idx[:-1])


def test_associativity_sample_is_exhaustive_on_finite_carriers():
    assert len(assoc_sample(FiniteHypergroup(60, 0, cyclic(60)), 60)) == 60


def test_same_polynomial_spec_loads_equal():
    spec = '{"kind": "polynomial", "coeffs": "chebyshev", "a0": 0.5, "b0": 0.5}'
    first, second = load_hypergroup(spec), load_hypergroup(spec)
    assert first == second and hash(first) == hash(second)
    mu = hypermoment.Measure.from_items(first, [(1, 1.0)])
    nu = hypermoment.Measure.from_items(second, [(2, 1.0)])
    assert convolve(mu, nu).support == ((1, 0.5 + 0j), (3, 0.5 + 0j))
    assert first != chebyshev()
    assert first.describe() == "polynomial(chebyshev, a0=0.5, b0=0.5)"


def test_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(hypermoment.__file__).parents[1]))
    code = "import sys, hypermoment, json; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
