"""The moment-identity kernel against the case-by-case loops it replaces.

`reference_verify_moment_sequence`, `reference_verify_leibniz` and
`reference_is_exponential` are the loops those verifiers ran before the
kernel: every case a `Measure` convolution and a `pair`, every entry
evaluated where the loop needs it; they convolve through `reference_rule` and
`reference_convolve` of test_kernel.py, apart from `_pairs`.  `reference_verify_fourier_leibniz` is
the transform-side loop with the total mass of each measure in place of its
monomial-basis transform evaluated at z = 1.  `reference_is_multiplicative_hom`
and `reference_verify_d0_derivation` are the worst-case loops of the operator
checks, which now hand arrays of residuals to `Report.add_worst`.
`reference_eval_poly_derivative` (one recurrence run per order) is the code the
derivative rows replace and must agree bit for bit.  `head_verify_leibniz` and
`head_verify_fourier_leibniz` are the two Leibniz checks as they read on Measure
loops, over `reference_apply_family` (every operator called on every measure, a
module homomorphism through `Measure.from_items`, each convolution by
`head_convolve`, the item loop `measures.convolve` ran); the array application
must give their JSON to the byte, or their error message.  The
kernel must give the same records in the same order, with the same statuses, details and
counterexample alpha and points; residuals, scales and the two sides named in
a counterexample agree within 1e-11 of the scale, two orders under the
default tolerance.  Errors must carry the loop's message.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import replace

import pytest

import hypermoment
from hypermoment import (
    CFunction,
    DerivationFamily,
    DomainError,
    FiniteHypergroup,
    Measure,
    MeasureOperator,
    MomentSequence,
    PolynomialHypergroup,
    Report,
    chebyshev,
    convolve,
    derivation_from_moments,
    enumerate_exponentials,
    exponential_function,
    identity_operator,
    is_exponential,
    is_multiplicative_hom,
    legendre,
    lower_indices,
    make_module_hom,
    multi_binomial,
    pair,
    poly_derivative_moments,
    rank_lift,
    real_line,
    realline_moments,
    two_point,
    verify_d0_derivation,
    verify_fourier_leibniz,
    verify_leibniz,
    verify_moment_sequence,
    zero_operator,
)
import numpy as np

from hypermoment.config import Tolerance, default_tolerance, scale_of, set_default_tolerance
from hypermoment.fourier import derivative_moments
from hypermoment.hypergroups import DerivativeRun
from hypermoment.measures import (
    TableRow, _distinct, _evaluate, as_literal, complex_product, merge, module_action, table_rows, values_at,
)
from hypermoment.moments import _identity_records, apply_family, binomial_terms, index_order, index_sub, indices_up_to
from hypermoment.operators import PAIR_TABLE_CAP, PAIR_TABLES, exponential_reports
from tests.test_kernel import RECURRENCES, chebyshev_dip, reference_convolve, reference_rule

# ---------------------------------------------------------------------------
# the loops the kernel replaces


def _record(report, name, law, worst, tol, detail=""):
    ok = tol.ok(worst[0], worst[1])
    report.add(name, law, ok, worst[0], worst[1], counterexample=None if ok else worst[2], detail=detail)


def reference_verify_moment_sequence(seq, pairs) -> Report:
    tol = default_tolerance()
    report = Report(title="moment sequence identity")
    rule = reference_rule(seq.hypergroup)
    for alpha in seq.alphas:
        worst = (0.0, 1.0, None)
        for x, y in pairs:
            conv = rule(x, y)
            lhs = pair(conv, seq.phi(alpha))
            rhs = 0j
            top = abs(lhs)
            for beta in lower_indices(alpha):
                term = multi_binomial(alpha, beta) * seq.phi(beta)(x) * seq.phi(index_sub(alpha, beta))(y)
                rhs += term
                top = max(top, abs(term))
            res = abs(lhs - rhs)
            scl = max(1.0, top)
            if res / scl > worst[0] / worst[1]:
                worst = (res, scl, [list(alpha), x, y, lhs, rhs])
        _record(report, f"moment-identity alpha={list(alpha)}",
                "<dx*dy, phi_a> = sum_{b<=a} binom(a,b) phi_b(x) phi_{a-b}(y)", worst, tol)
    return report


def _reference_leibniz(family, samples, probes, value, name, law, details) -> Report:
    tol = default_tolerance()
    report = Report(title="reference")
    rule = reference_rule(family.hypergroup)
    for alpha in family.alphas:
        worst = (0.0, 1.0, None)
        for mu, nu in samples:
            lhs = family.op(alpha)(reference_convolve(mu, nu, rule))
            pieces = [
                (multi_binomial(alpha, beta), family.op(beta)(mu), family.op(index_sub(alpha, beta))(nu))
                for beta in lower_indices(alpha)
            ]
            for f in probes:
                lv = value(lhs, f)
                terms = [value(b, c, d, f) for b, c, d in pieces]
                rv = sum(terms, 0j)
                res = abs(lv - rv)
                scl = max(1.0, abs(lv), *(abs(t) for t in terms))
                if res / scl > worst[0] / worst[1]:
                    worst = (res, scl, [list(alpha), as_literal(mu), as_literal(nu), lv, rv])
        order = index_order(alpha)
        _record(report, f"{name} alpha={list(alpha)}", law, worst, tol, details[order] if order < len(details) else "")
    return report


def reference_verify_leibniz(family, samples, probes=None) -> Report:
    rule = reference_rule(family.hypergroup)

    def value(*args):
        if len(args) == 2:
            return pair(*args)
        binom, mu, nu, f = args
        return pair(binom * reference_convolve(mu, nu, rule), f)

    return _reference_leibniz(
        family, samples, probes or [CFunction.constant(1.0)], value, "leibniz",
        "D_a(mu*nu) = sum_{b<=a} binom(a,b) D_b mu * D_{a-b} nu, paired with probes",
        ("order 0: reduces to multiplicativity of D_0", "order 1: reduces to D_0 mu * D_a nu + D_a mu * D_0 nu"),
    )


def reference_verify_fourier_leibniz(family, samples) -> Report:
    def value(*args):
        if len(args) == 2:
            return args[0].total_mass()
        binom, mu, nu, _ = args
        return binom * (mu.total_mass() * nu.total_mass())

    return _reference_leibniz(
        family, samples, [None], value, "fourier-leibniz",
        "d_a(mu^ nu^) = sum_{b<=a} binom(a,b) d_b mu^ d_{a-b} nu^, at the total-mass point", (),
    )


def reference_is_exponential(hg, f, samples) -> Report:
    tol = default_tolerance()
    report = Report(title="reference")
    at_identity = f(hg.identity)
    res0 = abs(at_identity - 1.0)
    _record(report, "normalization-at-identity", "f(o) = 1", (res0, 1.0, [hg.identity, at_identity]), tol)
    worst, rule = (0.0, 1.0, None), reference_rule(hg)
    for x, y in samples:
        lhs = pair(rule(x, y), f)
        rhs = f(x) * f(y)
        res, scl = abs(lhs - rhs), scale_of(lhs, rhs)
        if res / scl > worst[0] / worst[1]:
            worst = (res, scl, [x, y, lhs, rhs])
    _record(report, "multiplicativity-on-pairs", "<dx*dy, f> = f(x) f(y)", worst, tol)
    return report


def _worst(tracked, residual, scale, witness):
    if residual / scale > tracked[0] / tracked[1]:
        return residual, scale, witness
    return tracked


def reference_is_multiplicative_hom(op, samples) -> Report:
    tol = default_tolerance()
    one = CFunction.constant(1.0)
    report = Report(title=f"multiplicative homomorphism: {op.name}")
    worst = (0.0, 1.0, None)
    top = 0.0
    for mu, nu in samples:
        lhs = pair(op(convolve(mu, nu)), one)
        rhs = pair(convolve(op(mu), op(nu)), one)
        top = max(top, abs(lhs), abs(rhs))
        worst = _worst(worst, abs(lhs - rhs), scale_of(lhs, rhs), [as_literal(mu), as_literal(nu), lhs, rhs])
    detail = "operator is zero on all samples; multiplicativity holds trivially" if top <= tol.bound(1.0) else ""
    _record(report, "multiplicativity", "<F(mu*nu), 1> = <F(mu)*F(nu), 1>", worst, tol, detail)
    return report


def reference_verify_d0_derivation(d0, d, samples) -> Report:
    tol = default_tolerance()
    one = CFunction.constant(1.0)
    report = Report(title=f"{d0.name}-derivation: {d.name}")
    report.extend(reference_is_multiplicative_hom(d0, samples), prefix="precondition: ")
    worst = (0.0, 1.0, None)
    for mu, nu in samples:
        lv = pair(d(convolve(mu, nu)), one)
        t1 = pair(convolve(d0(mu), d(nu)), one)
        t2 = pair(convolve(d(mu), d0(nu)), one)
        scl = max(1.0, abs(lv), abs(t1), abs(t2))
        worst = _worst(worst, abs(lv - (t1 + t2)), scl, [as_literal(mu), as_literal(nu), lv, t1 + t2])
    _record(report, "product-rule", "<D(mu*nu), 1> = <D0 mu * D nu, 1> + <D mu * D0 nu, 1>", worst, tol)
    return report


def assert_same(got: Report, want: Report) -> None:
    assert [r.name for r in got.records] == [r.name for r in want.records]
    for g, w in zip(got.records, want.records):
        assert (g.name, g.law, g.status, g.detail) == (w.name, w.law, w.status, w.detail)
        assert abs(g.residual - w.residual) <= 1e-11 * w.scale, (g, w)
        assert abs(g.scale - w.scale) <= 1e-11 * w.scale, (g, w)
        if w.counterexample is None:
            assert g.counterexample is None
            continue
        # alpha and points (or measures) exactly, the two sides within the scale
        assert g.counterexample[:-2] == w.counterexample[:-2]
        for gv, wv in zip(g.counterexample[-2:], w.counterexample[-2:]):
            assert abs(complex(*gv) - complex(*wv)) <= 1e-11 * w.scale, (g, w)


def outcome(fn):
    try:
        return fn()
    except DomainError as exc:
        return f"DomainError: {exc}"


def assert_same_outcome(kernel, reference) -> None:
    got, want = outcome(kernel), outcome(reference)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same(got, want)


# ---------------------------------------------------------------------------
# the corpus


def dtheta_product(t1: float, t2: float) -> FiniteHypergroup:
    """D(t1) x D(t2) on {0, 1, 2, 3}, the point (a, b) at index 2a + b."""
    rows = [{(0, 0): [(0, 1.0)], (0, 1): [(1, 1.0)], (1, 0): [(1, 1.0)], (1, 1): [(0, t), (1, 1.0 - t)]}
            for t in (t1, t2)]
    table = [
        [2 * a1 + a2, 2 * b1 + b2, [[2 * k1 + k2, w1 * w2] for k1, w1 in rows[0][a1, b1] for k2, w2 in rows[1][a2, b2]]]
        for a1 in range(2) for a2 in range(2) for b1 in range(2) for b2 in range(2)
    ]
    return FiniteHypergroup(4, 0, table)


def cyclic(n: int) -> FiniteHypergroup:
    return FiniteHypergroup(n, 0, [[a, b, [[(a + b) % n, 1.0]]] for a in range(n) for b in range(n)])


def trivial_family(hg, phi0: CFunction, rank: int, order: int) -> MomentSequence:
    """phi_0 an exponential and every higher entry zero: a moment sequence on any carrier."""
    zero = CFunction.constant(0.0)
    return MomentSequence.build(hg, rank, order, lambda a: phi0 if not any(a) else zero, check_phi0=False)


def perturbed(seq: MomentSequence, alpha, eps: complex) -> MomentSequence:
    entries = dict(seq.entries)
    entries[alpha] = entries[alpha] + CFunction.constant(eps)
    return MomentSequence.build(seq.hypergroup, seq.rank, seq.order, entries, check_phi0=False)


def families(rng: random.Random):
    """(carrier name, sequence, points) for ranks 1-2, orders 0-5, valid and perturbed."""
    out = []
    for name, hg in (("chebyshev", chebyshev()), ("legendre", legendre())):
        for order in range(6):
            seq = poly_derivative_moments(hg, complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1)), order)
            out.append((name, seq, list(range(5))))
    line = real_line()
    for order in range(6):
        out.append(("realline", realline_moments(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), order, line),
                    [-1.0, -0.5, 0.0, 0.5, 1.0, 1.25]))
    finite = [("two-point", two_point(0.37)), ("Z5", cyclic(5)), ("D(0.3)xD(0.8)", dtheta_product(0.3, 0.8))]
    for name, hg in finite:
        for k, phi0 in enumerate(enumerate_exponentials(hg)[:2]):
            out.append((name, trivial_family(hg, phi0, 1, 2 + k), hg.sample_points()))
    for name, seq, points in list(out):
        if seq.order in (1, 3, 4):
            if name in ("chebyshev", "legendre", "realline"):
                lift = rank_lift(seq, [1.0, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))])
            else:
                lift = trivial_family(seq.hypergroup, seq.phi((0,)), 2, seq.order)
            out.append((name, lift, points))
    bad = []
    for name, seq, points in out:
        if seq.order >= 2:
            alpha = rng.choice([a for a in seq.alphas if sum(a) >= 2])
            bad.append((name, perturbed(seq, alpha, complex(rng.choice([-1, 1]) * 0.05, 0.02)), points))
    return out + bad


def measure(hg, rng: random.Random, points, k: int = 2) -> Measure:
    return Measure.from_items(
        hg, [(x, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for x in rng.sample(list(points), k)]
    )


def cyclic_samples(hg, rng, points, count: int = 5):
    ms = [measure(hg, rng, points, k=min(2, len(points))) for _ in range(count)]
    return [(ms[i], ms[(i + 1) % count]) for i in range(count)]


CORPUS = families(random.Random(31337))
IDS = [f"{name}-r{seq.rank}-o{seq.order}-{i}" for i, (name, seq, _) in enumerate(CORPUS)]


# ---------------------------------------------------------------------------
# the kernel against the loops


@pytest.mark.parametrize("case", CORPUS, ids=IDS)
def test_moment_identity_matches_loop(case):
    _, seq, points = case
    pairs = [(x, y) for x in points for y in points]
    assert_same(verify_moment_sequence(seq, pairs), reference_verify_moment_sequence(seq, pairs))


@pytest.mark.parametrize("case", CORPUS, ids=IDS)
def test_leibniz_matches_loop(case):
    name, seq, points = case
    rng = random.Random(len(points) * 100 + seq.order * 10 + seq.rank)
    family = derivation_from_moments(seq, skip_verification=True)
    samples = cyclic_samples(seq.hypergroup, rng, points)
    assert_same(verify_leibniz(family, samples), reference_verify_leibniz(family, samples))
    if name in ("chebyshev", "legendre"):
        assert_same(verify_fourier_leibniz(family, samples), reference_verify_fourier_leibniz(family, samples))


def test_realline_leibniz_with_probes():
    rng = random.Random(5)
    line = real_line()
    probes = [CFunction(lambda x: x * x), CFunction(lambda x: cmath.exp(0.2j * x)), CFunction.constant(1.0)]
    for order in range(5):
        seq = realline_moments(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), order, line)
        for s in (seq, perturbed(seq, (order,), 0.03)) if order >= 2 else (seq,):
            family = derivation_from_moments(s, skip_verification=True)
            samples = cyclic_samples(line, rng, [0.25 * k for k in range(-6, 7)], count=4)
            assert_same(
                verify_leibniz(family, samples, probes), reference_verify_leibniz(family, samples, probes)
            )
            assert_same_application(family, samples, probes)
            # a probe infinite at 0, where every D_a with a > 0 drops the point: `pair` never meets it there
            assert_same_application(family, samples, [CFunction(lambda x: math.inf if x == 0 else 1.0)])


@pytest.mark.parametrize("make", [chebyshev, legendre, real_line, lambda: two_point(0.6), lambda: cyclic(6),
                                  lambda: dtheta_product(0.5, 0.25)])
def test_is_exponential_matches_loop(make):
    rng = random.Random(11)
    hg = make()
    if isinstance(hg, FiniteHypergroup):
        fns = enumerate_exponentials(hg)
        pairs = [(x, y) for x in range(hg.size) for y in range(hg.size)]
    else:
        points = hg.sample_points(4)
        fns = [exponential_function(hg, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(3)]
        pairs = [(rng.choice(points), rng.choice(points)) for _ in range(30)]
    for f in fns + [f * CFunction(lambda x: 1.0 + 0.01 * (x == 1)) for f in fns[:2]]:
        assert_same(is_exponential(hg, f, pairs), reference_is_exponential(hg, f, pairs))


@pytest.mark.parametrize("make", [chebyshev, legendre])
def test_operator_checks_match_loop(make):
    hg = make()
    rng = random.Random(17)
    family = derivation_from_moments(poly_derivative_moments(hg, 0.3 + 0.1j, 3))
    ops = [
        zero_operator(hg), identity_operator(hg), make_module_hom(hg, exponential_function(hg, 0.4)),
        make_module_hom(hg, CFunction.constant(2.0)), family.op((0,)), family.op((1,)), family.op((2,)),
        MeasureOperator(hg, lambda m: convolve(m, Measure.from_items(hg, [(1, 1.0)])), name="shift"),
    ]
    samples = cyclic_samples(hg, rng, range(6))
    for op in ops:
        assert_same(is_multiplicative_hom(op, samples), reference_is_multiplicative_hom(op, samples))
        for d0 in (family.op((0,)), identity_operator(hg)):
            assert_same(verify_d0_derivation(d0, op, samples), reference_verify_d0_derivation(d0, op, samples))
    zero = is_multiplicative_hom(zero_operator(hg), samples).records[0]
    assert zero.status == "pass" and zero.detail.endswith("holds trivially")


def test_operator_checks_read_one_application_table(monkeypatch):
    # each check is rows of one `apply_family` table of the family {D0} or {D0, D}: no operator is called on a Measure
    hg = chebyshev()
    family = derivation_from_moments(poly_derivative_moments(hg, 0.3 + 0.2j, 1))
    samples = cyclic_samples(hg, random.Random(40), range(8), count=6)
    tables, called = [], []
    apply = hypermoment.moments.apply_family
    monkeypatch.setattr(hypermoment.moments, "apply_family", lambda fam, s: tables.append(fam) or apply(fam, s))
    d0, d = (replace(op, fn=lambda m, op=op: called.append(m) or op(m)) for op in map(family.op, family.alphas))
    assert verify_d0_derivation(d0, d, samples).passed
    assert [list(fam.entries.values()) for fam in tables] == [[d0, d]]
    tables.clear()
    assert is_multiplicative_hom(d0, samples).passed
    assert [list(fam.entries.values()) for fam in tables] == [[d0]] and called == []


def test_split_blocks_match_loop(monkeypatch):
    # a cap this small keeps no linearization table: every pair list of a polynomial carrier runs on its own pairs
    monkeypatch.setattr(hypermoment.hypergroups, "DENSE_CAP", 40)
    for name, seq, points in CORPUS[::3]:
        pairs = [(x, y) for x in points for y in points]
        assert_same(verify_moment_sequence(seq, pairs), reference_verify_moment_sequence(seq, pairs))
        family = derivation_from_moments(seq, skip_verification=True)
        samples = cyclic_samples(seq.hypergroup, random.Random(3), points)
        assert_same(verify_leibniz(family, samples), reference_verify_leibniz(family, samples))
        assert_same(is_exponential(seq.hypergroup, seq.phi((0,) * seq.rank), pairs),
                    reference_is_exponential(seq.hypergroup, seq.phi((0,) * seq.rank), pairs))


# ---------------------------------------------------------------------------
# errors


def negative_dip() -> PolynomialHypergroup:
    """Chebyshev rows with row 3 replaced by (0.8, 0, 0.2): some linearization goes negative."""
    rows = [(0.5, 0.0, 0.5)] * 26
    return PolynomialHypergroup(1.0, 0.0, rows[:2] + [(0.8, 0.0, 0.2)] + rows[3:])


def test_undefined_convolution_gives_the_loop_error():
    hg = negative_dip()
    z = 0.3 + 0.1j
    entry = lambda a: CFunction(lambda n: hg.eval_poly_derivative(n, z, a[0]))  # noqa: E731
    seq = MomentSequence.build(hg, 1, 3, entry, check_phi0=False)
    for pairs in ([(x, y) for x in range(7) for y in range(7)], [(0, 4), (1, 1), (2, 2), (3, 1)], [(0, 1), (2, 3)]):
        assert_same_outcome(lambda: verify_moment_sequence(seq, pairs),
                            lambda: reference_verify_moment_sequence(seq, pairs))
        assert_same_outcome(lambda: is_exponential(hg, seq.phi((0,)), pairs),
                            lambda: reference_is_exponential(hg, seq.phi((0,)), pairs))
    assert outcome(lambda: verify_moment_sequence(seq, [(0, 4), (2, 2)])).startswith("DomainError: linearization(2,2)")
    family = derivation_from_moments(seq, skip_verification=True)
    rng = random.Random(8)
    samples = [(measure(hg, rng, range(2)), measure(hg, rng, range(7))) for _ in range(3)]
    for middle in ((0, 1), (2, 3), (1, 2)):
        odd = (Measure.from_items(hg, [(middle[0], 0.5j), (middle[1], 1.0)]), measure(hg, rng, range(2, 6)))
        both = samples[:2] + [odd] + samples[2:]
        assert_same_outcome(
            lambda: verify_leibniz(family, both), lambda: reference_verify_leibniz(family, both)
        )
        assert_same_application(family, both)


def test_invalid_point_gives_the_loop_error():
    hg = chebyshev()
    seq = poly_derivative_moments(hg, 0.2, 2)
    for bad in ([(0, 1), (2, -1), (1, 1)], [(1, 2), (0.5, 1)], [(3, True)]):
        assert_same_outcome(lambda: verify_moment_sequence(seq, bad),
                            lambda: reference_verify_moment_sequence(seq, bad))


def _raising(at: int) -> CFunction:
    return CFunction(lambda n: 1.0 / (n - at))


def _missing(at: int) -> CFunction:
    return CFunction.from_table({n: 0.1 * n for n in range(12) if n != at})


def test_points_are_met_in_the_loop_order():
    # the entry fails at both points of the pair and at neither point of its support:
    # the loop meets x first for phi_0, y first for the higher entries (beta = 0 comes first)
    hg = chebyshev()
    base, bad = poly_derivative_moments(hg, 0.4, 2), CFunction.from_table({n: 1.0 for n in range(12) if n not in (1, 3)})
    for entry, point in (((0,), 1), ((1,), 3), ((2,), 3)):
        seq = MomentSequence.build(hg, 1, 2, lambda a: bad if a == entry else base.phi(a), check_phi0=False)
        want = f"DomainError: function table has no value at point {point}"
        assert outcome(lambda: reference_verify_moment_sequence(seq, [(1, 3)])) == want
        assert outcome(lambda: verify_moment_sequence(seq, [(1, 3)])) == want


@pytest.mark.parametrize("entry", [(0,), (1,), (2,)])
@pytest.mark.parametrize("broken", [_raising, _missing])
def test_failing_entry_gives_the_loop_error(entry, broken):
    hg = chebyshev()
    base = poly_derivative_moments(hg, 0.4, 2)
    for at in (0, 2, 3, 5):
        seq = MomentSequence.build(hg, 1, 2, lambda a: broken(at) if a == entry else base.phi(a), check_phi0=False)
        for pairs in ([(x, y) for x in range(4) for y in range(4)], [(3, 1), (1, 3), (0, 5)], [(2, 5), (5, 2)]):
            assert_same_outcome(lambda: verify_moment_sequence(seq, pairs),
                                lambda: reference_verify_moment_sequence(seq, pairs))
            if entry == (0,):
                f = seq.phi(entry)
                assert_same_outcome(lambda: is_exponential(hg, f, pairs), lambda: reference_is_exponential(hg, f, pairs))
        family = derivation_from_moments(seq, skip_verification=True)
        rng = random.Random(at)
        samples = [(measure(hg, rng, range(6)), measure(hg, rng, range(6))) for _ in range(4)]
        assert_same_outcome(
        lambda: verify_leibniz(family, samples), lambda: reference_verify_leibniz(family, samples)
    )
        assert_same_outcome(lambda: verify_fourier_leibniz(family, samples),
                            lambda: reference_verify_fourier_leibniz(family, samples))
        assert_same_application(family, samples)


def _operator_cases(hg):
    """Operators whose check errs somewhere: a symbol that raises at 3, one infinite at 4, one NaN at 2, and
    an operator without a symbol that raises at 5; and the identity and zero, whose derivation check passes."""
    return [
        make_module_hom(hg, _raising(3)), make_module_hom(hg, CFunction(lambda n: math.inf if n == 4 else 1.0)),
        make_module_hom(hg, CFunction(lambda n: math.nan if n == 2 else 0.5 ** n)),
        MeasureOperator(hg, lambda m: module_action(_raising(5), m), name="no symbol"),
        make_module_hom(hg, CFunction(lambda n: 0.1 * n)), identity_operator(hg), zero_operator(hg),
    ]


@pytest.mark.parametrize("make", [chebyshev, negative_dip])
def test_operator_check_errors_are_the_loops(make):
    # on negative_dip the convolution of (2, 2) is refused, in mu*nu or in D0 mu * D nu
    hg = make()
    rng = random.Random(41)
    supports = [[0, 1], [1, 2], [2, 3], [0, 4], [1, 5], [3, 4]]
    ms = [Measure.from_items(hg, [(x, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for x in support])
          for support in supports]
    sample_lists = [[(ms[0], ms[3]), (ms[i], ms[(i + 1) % 6])] for i in range(6)]
    ops, outcomes = _operator_cases(hg), set()
    for samples in sample_lists:
        for op in ops:
            assert_same_outcome(lambda: is_multiplicative_hom(op, samples),
                                lambda: reference_is_multiplicative_hom(op, samples))
            for d0, d in ((ops[-2], op), (op, ops[-1])):
                assert_same_outcome(lambda: verify_d0_derivation(d0, d, samples),
                                    lambda: reference_verify_d0_derivation(d0, d, samples))
                outcomes.add(outcome(lambda: verify_d0_derivation(d0, d, samples).passed))
    assert {True, False} < outcomes and len(outcomes) > 5  # passes, fails and the errors of every operator
    assert any("linearization(2,2)" in str(e) for e in outcomes) == (make is negative_dip)


def overflow_case() -> tuple:
    """Chebyshev, D0 weighing 1e200 (n + 1), D weighing 0.5 n, and 4 cyclic pairs of 2-point measures."""
    hg = chebyshev()
    d0, d = make_module_hom(hg, CFunction(lambda n: 1e200 * (n + 1))), make_module_hom(hg, CFunction(lambda n: 0.5 * n))
    rng = random.Random(3)
    ms = [Measure.from_items(hg, [(x, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for x in support])
          for support in ((0, 1), (1, 2), (1, 4), (0, 2))]
    return hg, d0, d, [(ms[i], ms[(i + 1) % 4]) for i in range(4)]


def test_an_overflowing_term_fails_the_rows_the_operator_checks_are():
    # D0 weighs 1e200 (n + 1), so D0 mu * D0 nu leaves the floats: the loops raise where they would make that
    # Measure, the table carries NaN, and each check fails as the Leibniz row it is, counterexample and all
    hg, d0, d, samples = overflow_case()
    for loop in (lambda: reference_is_multiplicative_hom(d0, samples),
                 lambda: reference_verify_d0_derivation(d0, d, samples)):
        assert outcome(loop) == "DomainError: non-finite weight (nan+nanj)"
    checks = [(is_multiplicative_hom(d0, samples), DerivationFamily(hg, 1, 0, {(0,): d0})),
              (verify_d0_derivation(d0, d, samples), DerivationFamily(hg, 1, 1, {(0,): d0, (1,): d}))]
    for report, family in checks:
        rows = verify_leibniz(family, samples).records
        assert len(report.records) == len(rows) and report.records[0].status == "fail"
        for got, row in zip(report.records, rows):
            assert (got.status, got.residual, got.scale) == (row.status, row.residual, row.scale)
            assert str(got.counterexample) == str(row.counterexample[1:])  # NaN in both: compared as text
        # the table reference fails the same rows, with no RuntimeWarning
        assert verify_leibniz(family, samples).to_json() == head_verify_leibniz(family, samples).to_json()


def test_an_overflowing_term_fails_the_transform_side_rows():
    # the products of total masses leave the floats as the Leibniz terms do: each row fails, with no RuntimeWarning
    hg, d0, d, samples = overflow_case()
    family = DerivationFamily(hg, 1, 1, {(0,): d0, (1,): d})
    rows = verify_leibniz(family, samples).records
    report = verify_fourier_leibniz(family, samples)
    assert [r.status for r in report.records] == [r.status for r in rows] == ["fail", "fail"]
    assert [r.residual for r in report.records] == [r.residual for r in rows]


# ---------------------------------------------------------------------------
# derivative rows and symbol tables against the per-order and per-measure code


def reference_eval_poly_derivative(hg: PolynomialHypergroup, n: int, z: complex, k: int) -> complex:
    return reference_poly_derivatives(hg, n, z, k)[k]


def reference_poly_derivatives(hg: PolynomialHypergroup, n: int, z: complex, k: int) -> list[complex]:
    """The row [P_n(z), ..., P_n^(k)(z)] from a run of its own, from P_0 to P_n."""
    if n < 0 or k < 0:
        raise DomainError("indices must be nonnegative")
    z = complex(z)
    prev = [1.0 + 0j] + [0j] * k
    if n == 0:
        return prev
    p1 = (z - hg.b0) / hg.a0
    dp1 = 1.0 / hg.a0
    cur = [p1] + ([dp1] if k >= 1 else []) + [0j] * max(0, k - 1)
    for m in range(1, n):
        a, b, c = hg.coefficient_row(m)
        nxt = [0j] * (k + 1)
        for i in range(k + 1):
            s = p1 * cur[i] - b * cur[i] - c * prev[i]
            if i >= 1:
                s += i * dp1 * cur[i - 1]
            nxt[i] = s / a
        prev, cur = cur, nxt
    return cur


def head_convolve(mu, nu) -> Measure:
    """measures.convolve as it read: the items wx * wy * w of every pair, in pair order, through `from_items`."""
    if mu.hypergroup != nu.hypergroup:
        raise DomainError("measures live on different hypergroups")
    hg = mu.hypergroup
    sup = hg.pair_supports([(x, y) for x, _ in mu.support for y, _ in nu.support])
    wxy = [wx * wy for _, wx in mu.support for _, wy in nu.support]
    items = zip(sup.points.tolist(), sup.rows.tolist(), sup.weights.tolist())
    return Measure.from_items(hg, [(z, wxy[p] * complex(w)) for z, p, w in items])


def test_convolve_matches_its_item_loop():
    # points validated before their weight, a non-finite item refused, -0.0 and 0.0 merged
    # into the first, exact zeros dropped, points sorted: the merge `from_items` made
    line, cheb = real_line(), chebyshev()
    measures = [Measure.from_items(line, items) for items in (
        [], [(1e308, 1.0), (0.5, 2.0)], [(0.0, 1e200), (1.0, 1.0)], [(1e308, 1e200)], [(-0.0, 1.0), (0.5, -1.0)],
        [(0.0, 1.0), (-0.5, 1.0), (-1.0, 0.5j)], [(0.25, 1e-200), (-0.25, -1e-200j)])]
    measures += [Measure.from_items(cheb, items) for items in (
        [(0, 1.0), (2, -0.5)], [(3, 1e200), (1, 1.0)], [(1, 0.5), (3, 0.5)], [(2, 1.0), (5, 0.25j)])]
    for mu in measures:
        for nu in measures:
            assert repr(outcome(lambda: convolve(mu, nu).support)) == repr(outcome(lambda: head_convolve(mu, nu).support))


def reference_apply_family(family, samples):
    def apply(op, m):
        if op.symbol is None:
            return op(m)
        return Measure.from_items(m.hypergroup, [(x, _evaluate(op.symbol, x) * w) for x, w in m.support])

    convs, lhs, applied = [], [], {}
    for a, alpha in enumerate(family.alphas):
        op = family.op(alpha)
        lhs.append([])
        for s, (mu, nu) in enumerate(samples):
            if a == 0:
                convs.append(head_convolve(mu, nu))
            lhs[a].append(apply(op, convs[s]))
            for m in (mu, nu) if a == 0 else (nu, mu):
                if (a, id(m)) not in applied:
                    applied[a, id(m)] = apply(op, m)
    return lhs, applied


def bits(value) -> str:
    """repr is exact for floats and complex numbers, -0.0 included."""
    return repr(value)


def row_carriers():
    rows = [(0.5, 0.0, 0.5), (0.4, 0.2, 0.4), (0.6, 0.1, 0.3)] * 70
    broken = rows[:6] + [(0.5, 0.1, 0.5)] + rows[7:]  # row 7 sums to 1.1
    return [("chebyshev", chebyshev()), ("legendre", legendre()), ("rows", PolynomialHypergroup(0.6, 0.4, rows)),
            ("invalid row 7", PolynomialHypergroup(1.0, 0.0, broken)),
            ("8 rows", PolynomialHypergroup(1.0, 0.0, rows[:8]))]


@pytest.mark.parametrize("name,hg", row_carriers(), ids=[n for n, _ in row_carriers()])
def test_derivative_row_matches_the_per_order_recurrence(name, hg):
    ns = sorted({*range(0, 12), *range(12, 201, 17), 199, 200})
    for z in (0.3 + 0.1j, -1.2, 0.9):
        for n in ns:
            want = [outcome(lambda: bits(reference_eval_poly_derivative(hg, n, z, k))) for k in range(11)]
            row = outcome(lambda: hg.poly_derivatives(n, z, 10))
            if isinstance(row, str):
                assert set(want) == {row}, (n, z)  # the same error at the same row, for every order
            else:
                assert [bits(v) for v in row] == want, (n, z)
            assert [outcome(lambda: bits(hg.eval_poly_derivative(n, z, k))) for k in range(11)] == want
    if name == "invalid row 7":
        assert outcome(lambda: hg.poly_derivatives(9, 0.5, 3)).startswith("DomainError: row 7:")
    assert outcome(lambda: hg.poly_derivatives(-1, 0.5, 3)) == "DomainError: indices must be nonnegative"


@pytest.mark.parametrize("name,hg", row_carriers(), ids=[n for n, _ in row_carriers()])
def test_one_derivative_run_gives_each_point_its_own_runs_row(name, hg):
    # grown on demand, to a top below the last and past an invalid row: each row n <= 150 is what a
    # run from P_0 to n gives, for the orders 0..10, and a row the run cannot reach raises its error
    for z in (0.3 + 0.1j, -1.2):
        run = DerivativeRun(hg, z, 10)
        for top in (3, 40, 17, 150):
            got = outcome(lambda: run.upto(top))
            if isinstance(got, str):
                assert got == outcome(lambda: reference_poly_derivatives(hg, top, z, 10))
        assert len(run.rows) == (151 if name in ("chebyshev", "legendre", "rows") else 8 if name == "invalid row 7" else 10)
        for n in range(151):
            want = outcome(lambda: [bits(v) for v in reference_poly_derivatives(hg, n, z, 10)])
            assert (want if isinstance(want, str) else [bits(v) for v in run.rows[n]]) == want
    if name == "invalid row 7":
        assert outcome(lambda: run.upto(9)).startswith("DomainError: row 7:")


def test_derivative_moments_sum_the_rows_of_one_run():
    for hg in (chebyshev(), legendre()):
        mu = Measure.from_items(hg, [(2, 1.0), (25, 0.5 - 0.25j), (60, 0.25 + 0.5j)])
        for z in (0.0, 0.3 - 0.1j):
            rows = [reference_poly_derivatives(hg, n, z, 10) for n, _ in mu.support]
            want = [sum((w * row[k] for (_, w), row in zip(mu.support, rows)), 0j) for k in range(11)]
            assert bits(derivative_moments(hg, mu, 10, z)) == bits(want)


def test_moment_entries_read_one_derivative_run(monkeypatch):
    # every order, point and lifted entry reads one run, grown once per new row, in one call on
    # arrays or point by point; 2.0 fails in the recurrence as the scalar entry always failed
    hg, z = chebyshev(), 0.3 - 0.2j
    points = [7, 0, 12, 3, 12, 5, 9]
    want = {k: [bits(complex(reference_eval_poly_derivative(hg, n, z, k))) for n in points] for k in range(4)}
    seq = poly_derivative_moments(hg, z, 3)  # phi_0's check grows the run to the default pairs' top, 8
    lifted = rank_lift(seq, [1.0, 0.5j])
    steps, row = [], hg.coefficient_row
    monkeypatch.setattr(hg, "coefficient_row", lambda m: steps.append(m) or row(m))
    for k in range(4):
        assert [bits(v) for v in values_at(seq.phi((k,)), points).tolist()] == want[k]
        assert [bits(seq.phi((k,))(n)) for n in points] == want[k]
    for alpha in lifted.alphas:
        factor = 1.0 + 0j
        for w, a in zip((1.0 + 0j, 0.5j), alpha):
            factor *= w**a
        lift = [bits(factor * seq.phi((sum(alpha),))(n)) for n in points]
        assert [bits(v) for v in values_at(lifted.phi(alpha), points).tolist()] == lift
        assert [bits(lifted.phi(alpha)(n)) for n in points] == lift
    assert steps == [8, 9, 10, 11]  # rows 9..12, each once
    scalar = outcome(lambda: _evaluate(lambda n: reference_eval_poly_derivative(hg, n, z, 1), 2.0))
    assert outcome(lambda: seq.phi((1,))(2.0)) == scalar != outcome(lambda: seq.phi((1,))(2))
    assert outcome(lambda: values_at(seq.phi((1,)), [3, 2.0])) == scalar
    assert outcome(lambda: values_at(lifted.phi((0, 1)), [3, 2.0])) == scalar


def reference_entry(hg, param, order, alpha, weights=()):
    """Entry alpha of `realline_moments(param, order)` on the line or of `poly_derivative_moments(hg,
    param, order)`, or of their `rank_lift` by `weights`, stated on its own: x ** k * exp(lam x), row n
    of a recurrence run of its own, and the lift's factor (the w**a loop) times the base."""
    k, lam = sum(alpha), complex(param)
    if isinstance(hg, type(real_line())):
        def base(x):
            return x ** k * cmath.exp(lam * x)
    else:
        def base(n):
            return reference_poly_derivatives(hg, n, param, order)[k]
    if not weights:
        return base
    factor = lift_factor(weights, alpha)
    return lambda x: factor * complex(base(x))


def lift_factor(weights, alpha) -> complex:
    """prod w_i ** alpha_i, multiplied up axis by axis from 1."""
    factor = 1.0 + 0j
    for w, a in zip(weights, alpha):
        factor *= complex(w) ** a
    return factor


def values_or_error(fn):
    """`fn()`'s values as exact complex reprs, or its DomainError."""
    return outcome(lambda: [bits(complex(v)) for v in fn()])


def test_realline_entries_on_arrays_match_the_scalar_entries():
    # on arrays and point by point, bitwise x ** k * exp(lam x) and the lift's factor times it, int points too
    rng = random.Random(5)
    points = [rng.uniform(-4, 4) for _ in range(200)] + [0.5 * j for j in range(-20, 21)] + [-0.0, 1e-300, -5e-324]
    weights = [1.0, 0.5 - 0.25j]
    for lam in (0.2 - 0.1j, -1.5, 0.7j, 0j, -0.3 + 0j):
        seq = realline_moments(lam, 6)
        lifted = rank_lift(seq, weights)
        fns = [(seq.phi(a), reference_entry(real_line(), lam, 6, a)) for a in seq.alphas]
        fns += [(lifted.phi(a), reference_entry(real_line(), lam, 6, a, weights)) for a in lifted.alphas]
        for f, ref in fns:
            for pts in (points, points[::-1], [0.0, 1.5], [-0.0, 1.5], [2, -3, 0]):  # a zero's sign is its own point
                want = values_or_error(lambda: [ref(x) for x in pts])
                assert values_or_error(lambda: values_at(f, pts)) == want
                assert values_or_error(lambda: [f(x) for x in pts]) == want
    # past the range of exp or of x ** k, each entry raises the first error the loop meets
    for lam, pts in ((1.0, [1.0, 800.0, 2.0]), (0.5j, [1.0, 1e200]), (-1.0, [1, 2.5]), (-150.0, [0.5, -4.72, -4.7])):
        seq = realline_moments(lam, 3)
        for alpha, f in seq.entries.items():
            ref = reference_entry(real_line(), lam, 3, alpha)
            want = values_or_error(lambda: [_evaluate(ref, x) for x in pts])
            assert values_or_error(lambda: values_at(f, pts)) == want
            assert values_or_error(lambda: [f(x) for x in pts]) == want
    assert outcome(lambda: values_at(realline_moments(1.0, 3).phi((3,)), [0.5, 800.0])) == (
        "DomainError: function evaluation failed at point 800.0: math range error")


def test_a_lift_of_a_table_base_is_its_factor_times_the_base():
    # phi_0 a table, every other entry the constant 0, lifted to rank 2 with one entry perturbed: each
    # value is bitwise factor * base(x), the checks report as the lift by `factor * base` composites
    # (CFunction arithmetic) reports, and a point the table lacks raises the table's error in both
    hg, weights, order = two_point(0.35), [1.0, 0.5 - 0.25j], 3
    phi0, zero = CFunction.from_table({0: 1.0, 1: -0.35}, kind="exponential"), CFunction.constant(0.0)
    base = MomentSequence.build(hg, 1, order, lambda a: phi0 if a == (0,) else zero)
    lifted = rank_lift(base, weights)
    composites = {}
    for alpha in lifted.alphas:
        factor = lift_factor(weights, alpha)
        composites[alpha] = factor * base.phi((sum(alpha),))
        want = [bits(factor * base.phi((sum(alpha),))(x)) for x in (1, 0, 1)]
        assert [bits(lifted.phi(alpha)(x)) for x in (1, 0, 1)] == want
        assert [bits(v) for v in values_at(lifted.phi(alpha), [1, 0, 1]).tolist()] == want
    seqs = []
    for entries in (dict(lifted.entries), composites):
        entries[(1, 1)] = entries[(1, 1)] + CFunction.constant(1e-6)
        seqs.append(MomentSequence.build(hg, 2, order, entries))
    ms = [Measure.from_items(hg, support) for support in ([(0, 1.0), (1, 0.5j)], [(1, -0.25)], [(1, 2.0)])]
    samples = [(ms[0], ms[1]), (ms[2], ms[0]), (ms[1], ms[1])]
    pairs = [(x, y) for x in range(2) for y in range(2)]
    got, want = ([verify_moment_sequence(seq, pairs).to_json(),
                  verify_leibniz(derivation_from_moments(seq, skip_verification=True), samples).to_json()]
                 for seq in seqs)
    assert got == want and '"passed": false' in got[0]
    z3 = cyclic(3)  # the point 2 is not in phi_0's table
    three = [Measure.from_items(z3, support) for support in ([(1, 1.0)], [(2, 0.5), (0, 1.0)])]
    for check in (lambda seq: verify_moment_sequence(replace(seq, hypergroup=z3), [(0, 1), (1, 1)]).to_json(),
                  lambda seq: verify_leibniz(derivation_from_moments(replace(seq, hypergroup=z3),
                                                                     skip_verification=True),
                                             [(three[0], three[0]), (three[1], three[0])]).to_json(),
                  lambda seq: values_at(seq.phi((0, 1)), [0, 1, 2]).tolist() + values_at(seq.phi((0, 0)), [0, 2])):
        errors = [outcome(lambda: check(seq)) for seq in seqs]
        assert errors[0] == errors[1] == "DomainError: function table has no value at point 2"


def unchecked(monkeypatch, build):
    """`build()` with phi_0 taken as an exponential unchecked, so that a family builds on a broken recurrence."""
    with monkeypatch.context() as patch:
        patch.setattr(hypermoment.moments, "is_exponential", lambda *args: Report(title="unchecked"))
        return build()


@pytest.mark.parametrize("make", RECURRENCES + [real_line])
def test_family_tables_are_the_entries_bit_for_bit(make, monkeypatch):
    # ranks 1-2, orders 0-5: one rule call gives every entry's values, and each entry at one point its
    # value, bitwise the entry stated on its own; where an entry raises (2.0 or -1 on a polynomial
    # carrier, a row the recurrence cannot run, past the floats), the rule gives no rows and the entry
    # raises that error
    hg, rng = make(), random.Random(17)
    line = isinstance(hg, type(real_line()))
    floats = [rng.uniform(-4, 4) for _ in range(30)] + [0.5 * j for j in range(-8, 9)] + [-0.0, 1e-300]
    lists = ([floats, [1.0, 800.0], [1, 2.5], [3, -2, 0]] if line
             else [[7, 0, 12, 3, 12, 5, 9, 1, 2], [3, 0, 2, 3, 1], [3, 2.0], [3, -1], [0.0, 4]])
    for order in range(6):
        param = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        base = unchecked(monkeypatch, lambda: realline_moments(param, order, hg) if line
                         else poly_derivative_moments(hg, param, order))
        weights = [1.0, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
        for seq, ws in ((base, ()), (rank_lift(base, weights), weights)):
            fns = [seq.phi(alpha) for alpha in seq.alphas]
            refs = [reference_entry(hg, param, order, alpha, ws) for alpha in seq.alphas]
            for points in lists:
                want = [[values_or_error(lambda: [_evaluate(ref, x)]) for x in points] for ref in refs]
                assert [[values_or_error(lambda: [f(x)]) for x in points] for f in fns] == want
                rows = table_rows(fns, points)
                if any(isinstance(v, str) for row in want for v in row):
                    assert rows == {}
                else:
                    assert [[values_or_error(lambda: [v]) for v in rows[a]] for a in range(len(fns))] == want


def the_loops(monkeypatch, check):
    """`check()` with no family table: each entry evaluated point by point, as the loop did."""
    with monkeypatch.context() as patch:
        for module in (hypermoment.measures, hypermoment.moments, hypermoment.operators):
            patch.setattr(module, "table_rows", lambda fns, points: {})
        return outcome(check)


def test_table_errors_are_the_loops(monkeypatch):
    # a point 2.0 and a negative point (entries of a polynomial carrier applied on the line), a row the
    # recurrence cannot run, and a weight past the floats (the moment identity weighs none): each check
    # raises the loop's first DomainError
    line, cheb = real_line(), chebyshev()
    broken = PolynomialHypergroup(1.0, 0.0, [(0.5, 0.0, 0.5)] * 6 + [(0.5, 0.1, 0.5)] + [(0.5, 0.0, 0.5)] * 6)
    on_line = [replace(seq, hypergroup=line) for seq in (poly_derivative_moments(cheb, 0.3 - 0.1j, 3),
                                                         rank_lift(poly_derivative_moments(cheb, 0.2, 2), [1.0, 0.5j]))]
    cases = [(seq, [(1.0, 1.0), (0.5, 0.5)], [[(0.5, 1.0)], [(1.5, 0.5j)]] * 2, "2.0") for seq in on_line]
    cases += [(seq, [(0.0, 0.0), (-0.5, -0.5)], [[(-0.5, 1.0)], [(0.0, 0.5j)]] * 2, "nonnegative") for seq in on_line]
    for seq in (poly_derivative_moments, lambda hg, z, k: rank_lift(poly_derivative_moments(hg, z, k), [1.0, 2.0])):
        made = unchecked(monkeypatch, lambda: seq(broken, 0.4, 3))
        cases.append((made, [(1, 2), (0, 8)], [[(0, 1.0)], [(8, 0.5), (2, 1.0)]] * 2, "row 7"))
    # mu*nu of the first sample is finite, D_0 of its mu is not, and D_0 of the second mu*nu is another infinity
    huge = [[(705.0, 1e10)], [(-705.0, 1.0)], [(351.0, 1e5j)], [(351.0, 1e5)]]
    cases.append((realline_moments(1.0, 3, line), None, huge, "non-finite weight (inf+0j)"))
    for seq, pairs, supports, names in cases:
        hg = seq.hypergroup
        ms = [Measure.from_items(hg, support) for support in supports]
        samples = [(ms[0], ms[1]), (ms[2], ms[3])]
        family = derivation_from_moments(seq, skip_verification=True)
        checks = [lambda: verify_moment_sequence(seq, pairs).to_json(), lambda: apply_family(replace(family), samples),
                  lambda: verify_leibniz(replace(family), samples).to_json()]
        for check in checks if pairs else checks[1:]:
            got = outcome(check)
            assert isinstance(got, str) and names in got and got == the_loops(monkeypatch, check)
        assert outcome(checks[2]) == outcome(lambda: head_verify_leibniz(family, samples).to_json())


def test_an_operator_without_a_symbol_leaves_the_term_grid_its_own_pairs(monkeypatch):
    # D_(1,0) shifts the measures that hold 0 by one step: their blocks gain points, so the term grid
    # reads its pairs anew, in one call after the convolution's and the operator's own
    hg = chebyshev()
    family = derivation_from_moments(rank_lift(poly_derivative_moments(hg, 0.3 - 0.2j, 2), [1.0, 0.5j]))
    op, step = family.op((1, 0)), Measure.from_items(hg, [(1, 1.0)])
    family.entries[(1, 0)] = MeasureOperator(hg, lambda m: convolve(op(m), step) if 0 in m.points else op(m))
    supports = [[(0, 1.0), (3, 0.5j)], [(2, 1.0), (4, -0.5)], [(1, 0.25), (5, 1.0)]]
    ms = [Measure.from_items(hg, support) for support in supports]
    samples = [(ms[1], ms[2]), (ms[0], ms[1]), (ms[2], ms[1])]
    assert_same_application(family, samples)
    grown = sorted({*ms[0].points, *family.op((1, 0))(ms[0]).points})
    assert len(grown) > len(ms[0].support)
    seen = []
    run = hg.pair_supports
    monkeypatch.setattr(hg, "pair_supports", lambda pairs: seen.append(list(pairs)) or run(pairs))
    verify_leibniz(replace(family), samples)
    assert seen[-1] == [(x, y) for mu, nu in samples for x in (grown if mu is ms[0] else mu.points) for y in nu.points]


@pytest.mark.parametrize("make", [chebyshev, real_line, lambda: two_point(0.6), lambda: cyclic(6),
                                  lambda: dtheta_product(0.5, 0.25)])
def test_exponential_reports_match_one_check_per_function(make, monkeypatch):
    rng = random.Random(13)
    hg = make()
    if isinstance(hg, FiniteHypergroup):
        fns = enumerate_exponentials(hg)
        pairs = [(x, y) for x in range(hg.size) for y in range(hg.size)]
        fns.append(CFunction.from_table({x: fns[-1](x) * (1.0 + 0.01 * (x == 1)) for x in range(hg.size)}))
    else:
        points = hg.sample_points(4)
        fns = [exponential_function(hg, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(3)]
        pairs = [(rng.choice(points), rng.choice(points)) for _ in range(30)]
        fns.append(fns[0] * CFunction(lambda x: 1.0 + 0.01 * (x == 1)))
    reports = exponential_reports(hg, fns, pairs)
    assert not reports[-1].passed  # the perturbed candidate fails
    assert [r.to_json() for r in reports] == [is_exponential(hg, f, pairs).to_json() for f in fns]
    for got, f in zip(reports, fns):
        assert_same(got, reference_is_exponential(hg, f, pairs))
    monkeypatch.setattr(hypermoment.hypergroups, "BLOCK_ENTRIES", 1)  # each function its own block
    assert [r.to_json() for r in exponential_reports(hg, fns, pairs)] == [r.to_json() for r in reports]


def test_build_carries_a_passed_phi0(monkeypatch):
    checked = []
    check = hypermoment.moments.is_exponential
    monkeypatch.setattr(hypermoment.moments, "is_exponential", lambda hg, f, *rest: checked.append(f) or check(hg, f, *rest))
    hg = chebyshev()
    seq = poly_derivative_moments(hg, 0.3, 3)
    assert MomentSequence.build(hg, 1, 3, seq.entries).meta["phi0"] == "exponential verified"
    assert checked == [seq.phi((0,))]  # the copy reads the verdict phi_0 carries
    lifted = rank_lift(seq, [1.0, 0.5j])
    assert MomentSequence.build(hg, 2, 3, lifted.entries).meta["phi0"] == "exponential verified"
    assert checked == [seq.phi((0,))]  # so does a copy of a lift
    twin = PolynomialHypergroup(1.0, 0.0, lambda n: (0.5, 0.0, 0.5))  # chebyshev's rows, but another carrier
    cases = [
        (hg, {**seq.entries, (0,): exponential_function(hg, 0.3)}, {}),  # a new but equal function
        (twin, seq.entries, {}),
        (hg, seq.entries, {"check_pairs": [(1, 2), (2, 2)]}),
        (hg, seq.entries, {"tol": Tolerance(rel=1e-8)}),
    ]
    for carrier, entries, options in cases:
        checked.clear()
        MomentSequence.build(carrier, 1, 3, entries, **options)
        assert checked == [entries[(0,)]]


def point_keys(points) -> list:
    """Each point as a key of distinct points: itself, but "-0.0" for a float -0.0, which `==` merges with 0.0."""
    return [x if x or not isinstance(x, float) or math.copysign(1.0, x) > 0 else "-0.0" for x in points]


@np.errstate(over="ignore", invalid="ignore")  # a term past the floats fails its case, as in `verify_leibniz`
def head_verify_leibniz(family, samples, f_probe=None) -> Report:
    """verify_leibniz as it read on Measure loops: its grids rebuilt from every D_b m
    that `reference_apply_family` makes, D_a(mu*nu) paired with `pair`."""
    tol = default_tolerance()
    probes = list(f_probe) if f_probe else [CFunction.constant(1.0)]
    report = Report(
        title="generalized Leibniz rule",
        meta={"rank": family.rank, "order": family.order, "samples": len(samples)},
    )
    lhs, applied = reference_apply_family(family, samples)
    n = len(family.alphas)
    beta, gamma, coef, _ = binomial_terms(tuple(family.alphas))
    grids = {}
    for m in {id(m): m for sample in samples for m in sample}.values():
        weights = [dict(applied[b, id(m)].support) for b in range(n)]
        pts = sorted({p for w in weights for p in w})
        grids[id(m)] = pts, np.array([[w.get(p, 0j) for p in pts] for w in weights], dtype=complex).reshape(n, -1)
    starts, pairs = [], []
    for mu, nu in samples:
        starts.append(len(pairs))
        pairs += [(x, y) for x in grids[id(mu)][0] for y in grids[id(nu)][0]]
    sup = family.hypergroup.pair_supports(pairs)
    sup = sup._replace(points=sup.points.tolist())
    # keyed as the loop tells points apart: -0.0 and 0.0 of two measures are two points, while a
    # measure merges them into the first it meets, as `Measure.from_items` does
    values = [{k: _evaluate(f, p) for k, p in dict(zip(point_keys(sup.points), sup.points)).items()} for f in probes]
    lv = np.array([[[pair(m, f) for f in probes] for m in row] for row in lhs], dtype=complex)
    terms = np.zeros((len(beta),) + lv.shape[1:], dtype=complex)
    bounds = np.searchsorted(sup.rows, starts + [len(pairs)]).tolist()
    for s, (mu, nu) in enumerate(samples):
        entries = slice(bounds[s], bounds[s + 1])
        (_, a_mu), (ys, c_nu) = grids[id(mu)], grids[id(nu)]
        rows = sup.rows[entries] - starts[s]
        points = sorted(dict.fromkeys(sup.points[entries]))
        index = {p: i for i, p in enumerate(points)}
        at = np.array([index[p] for p in sup.points[entries]], dtype=np.intp)
        items = complex_product(a_mu[beta][:, rows // len(ys)], c_nu[gamma][:, rows % len(ys)])
        merged = np.zeros((len(points), len(beta)), dtype=complex)
        np.add.at(merged, at, items.T * sup.weights[entries, None])
        for q in range(len(probes)):
            at_f = np.array([values[q][k] for k in point_keys(points)], dtype=complex)
            paired = np.zeros((1, len(beta)), dtype=complex)
            np.add.at(paired, np.zeros(len(points), dtype=np.intp), complex_product(at_f[:, None], merged * coef))
            terms[:, s, q] = paired[0]
    law = "D_a(mu*nu) = sum_{b<=a} binom(a,b) D_b mu * D_{a-b} nu, paired with probes"
    details = ("order 0: reduces to multiplicativity of D_0", "order 1: reduces to D_0 mu * D_a nu + D_a mu * D_0 nu")
    _identity_records(
        report, "leibniz", law, family.alphas, lv, terms, tol,
        lambda i: [*map(as_literal, samples[i // len(probes)])], details,
    )
    return report


def head_verify_fourier_leibniz(family, samples) -> Report:
    """verify_fourier_leibniz as it read: the total mass of every Measure `reference_apply_family` makes."""
    tol = default_tolerance()
    report = Report(
        title="transform-side Leibniz rule",
        meta={"rank": family.rank, "order": family.order, "samples": len(samples)},
    )
    lhs, applied = reference_apply_family(family, samples)
    mass = {key: m.total_mass() for key, m in applied.items()}
    beta, gamma, coef, _ = binomial_terms(tuple(family.alphas))
    at_mu, at_nu = (
        np.array([[mass[b, id(sample[side])] for sample in samples] for b in range(len(family.alphas))])
        for side in (0, 1)
    )
    law = "d_a(mu^ nu^) = sum_{b<=a} binom(a,b) d_b mu^ d_{a-b} nu^, at the total-mass point"
    _identity_records(
        report, "fourier-leibniz", law, family.alphas, np.array([[m.total_mass() for m in row] for row in lhs]),
        coef[:, None] * complex_product(at_mu[beta], at_nu[gamma]), tol, lambda i: [*map(as_literal, samples[i])],
    )
    return report


def same_supports(got, want) -> bool:
    """Two `PairSupports` bit for bit, the points' types included."""
    return (got.rows.tolist(), bits(got.points.tolist()), bits(got.weights.tolist()), got.count, got.err.tolist()) == (
        want.rows.tolist(), bits(want.points.tolist()), bits(want.weights.tolist()), want.count, want.err.tolist())


def assert_same_application(family, samples, probes=None) -> None:
    """Both Leibniz checks against their Measure-loop forms: the same JSON to the byte, or the same error.
    Each check runs once on a copy of the family, whose memo is cold, so that it reads a table it
    built itself; the transform-side check runs again on the table `verify_leibniz` left.  Every carrier
    read `verify_leibniz` makes (the convolutions' and the term grid's) is `pair_supports` of its pairs."""
    warm, hg, reads = replace(family), family.hypergroup, []
    read = hg._read
    hg._read = lambda pairs: reads.append((pairs, read(pairs))) or reads[-1][1]
    try:
        got = outcome(lambda: verify_leibniz(warm, samples, probes).to_json())
    finally:
        del hg._read
    assert all(same_supports(sup, hg.pair_supports(pairs)) for pairs, sup in reads)
    assert got == outcome(lambda: head_verify_leibniz(family, samples, probes).to_json())
    if isinstance(family.hypergroup, PolynomialHypergroup):
        want = outcome(lambda: head_verify_fourier_leibniz(family, samples).to_json())
        assert outcome(lambda: verify_fourier_leibniz(replace(family), samples).to_json()) == want
        assert outcome(lambda: verify_fourier_leibniz(warm, samples).to_json()) == want


@pytest.mark.parametrize("case", CORPUS, ids=IDS)
def test_symbol_tables_match_the_reference(case):
    name, seq, points = case
    rng = random.Random(len(points) * 100 + seq.order * 10 + seq.rank)
    assert_same_application(derivation_from_moments(seq, skip_verification=True),
                            cyclic_samples(seq.hypergroup, rng, points))


def _family(hg, symbols):
    """Order len(symbols) - 1, rank 1: a symbol gives a module homomorphism, None the shift by 1."""
    shift = MeasureOperator(hg, lambda m: convolve(m, Measure.from_items(hg, [(1, 1.0)])), name="shift")
    entries = {(k,): shift if f is None else make_module_hom(hg, f) for k, f in enumerate(symbols)}
    return DerivationFamily(hg, 1, len(symbols) - 1, entries)


@pytest.mark.parametrize("make", [chebyshev, legendre])
def test_symbol_tables_on_edge_symbols(make):
    hg = make()
    rng = random.Random(23)
    samples = [(measure(hg, rng, range(6), k=3), measure(hg, rng, range(6), k=3)) for _ in range(4)]
    samples.append((samples[0][1], Measure.from_items(hg, [(0, 1e-200), (2, -0.5), (4, -1e-200j)])))
    phi = poly_derivative_moments(hg, 0.4 + 0.1j, 3)
    raising = CFunction(lambda n: 1.0 / ((n - 3) * (n - 1)))  # at 1 and 3: the first point met names the error
    infinite = CFunction(lambda n: math.inf if n == 4 else 1.0)
    # exact and underflowing zeros, and -1 * -0.5 = 0.5 - 0j, which from_items stores as 0.5 + 0j
    zeros = CFunction(lambda n: 0.0 if n % 2 else -1.0 if n % 4 == 2 else complex(-1e-200, 1e-200))
    symbol_lists = [
        [phi.phi((0,)), raising], [phi.phi((0,)), phi.phi((1,)), raising], [raising, phi.phi((1,))],
        [phi.phi((0,)), infinite], [infinite, phi.phi((1,))], [phi.phi((0,)), zeros, zeros],
        [phi.phi((0,)), None, phi.phi((2,))], [None, phi.phi((1,)), None], [zeros, None], [infinite, raising],
    ]
    heavy = Measure.from_items(hg, [(2, 1e200), (5, 1.0)])  # its square overflows: mu*nu is refused
    for symbols in symbol_lists:
        for these in (samples, samples[:2] + [(heavy, heavy)] + samples[2:], [(heavy, heavy)] + samples):
            assert_same_application(_family(hg, symbols), these)
    assert outcome(lambda: apply_family(_family(hg, symbol_lists[0]), samples)).startswith(
        "DomainError: function evaluation failed at point ")
    assert outcome(lambda: apply_family(_family(hg, symbol_lists[3]), samples)).startswith(
        "DomainError: non-finite weight")


def test_leibniz_points_are_met_in_the_loop_order():
    # the loop applies D_a to mu*nu, then to mu for alpha 0 and to nu first for the others
    hg = chebyshev()
    base = poly_derivative_moments(hg, 0.4, 2)
    bad = CFunction.from_table({n: 1.0 for n in range(20) if n not in (2, 5)})
    mu, nu = Measure.from_items(hg, [(2, 1.0)]), Measure.from_items(hg, [(5, 0.5)])  # mu*nu sits at 3 and 7
    for k in range(3):
        family = _family(hg, [bad if j == k else base.phi((j,)) for j in range(3)])
        assert outcome(lambda: apply_family(family, [(mu, nu)])) == (
            f"DomainError: function table has no value at point {2 if k == 0 else 5}")
        assert_same_application(family, [(mu, nu)])
    # infinite at 9, failing at 10: the loop evaluates a measure's points before it multiplies
    both = CFunction(lambda n: math.inf if n == 9 else 1.0 / (n - 10))
    family = _family(hg, [base.phi((0,)), both])
    samples = [(Measure.from_items(hg, [(9, 1.0), (10, 1.0)]), Measure.from_items(hg, [(0, 1.0)]))]
    assert outcome(lambda: apply_family(family, samples)).startswith("DomainError: function evaluation failed at point 10")
    assert_same_application(family, samples)
    # infinite at 3, failing at 2: the loop multiplies mu*nu (at 3 and 7) before it meets mu's point
    across = CFunction(lambda n: math.inf if n == 3 else 1.0 / (n - 2))
    family = _family(hg, [base.phi((0,)), across])
    assert outcome(lambda: apply_family(family, [(mu, nu)])).startswith("DomainError: non-finite weight")
    assert_same_application(family, [(mu, nu)])


def test_convolution_errors_come_where_the_loop_meets_them():
    # mu*nu of a sample is refused (a sum leaves the floats, or a weight overflows) only after
    # D_0 has met the samples before it; exp(800) overflows, so D_0 fails at 800
    line = real_line()
    family = derivation_from_moments(realline_moments(1.0, 2, line), skip_verification=True)
    big, far, heavy, small = (Measure.from_items(line, items) for items in (
        [(1e308, 1.0), (0.5, 2.0)], [(800.0, 1.0)], [(0.0, 1e200)], [(0.25, 1.0), (-0.5, 0.5j)]))
    for bad in (big, heavy):
        for samples in ([(small, small), (bad, bad)], [(far, small), (bad, bad)], [(bad, bad), (far, small)]):
            assert_same_application(family, samples)
    assert outcome(lambda: apply_family(family, [(small, small), (big, big)])) == "DomainError: point inf is not finite"


@pytest.mark.parametrize("make", [chebyshev, legendre])
def test_a_point_every_derivation_drops_leaves_the_grid(make, monkeypatch):
    # every D_b is zero at 2, a point of every sample measure: the term grid leaves it out,
    # while D_a(mu*nu) keeps weight at points only pairs with 2 reach (the probe meets them late)
    hg = make()
    phi = poly_derivative_moments(hg, 0.4 + 0.1j, 2)
    family = _family(hg, [CFunction(lambda n, f=phi.phi((k,)): 0.0 if n == 2 else f(n)) for k in range(3)])
    ms = [Measure.from_items(hg, [(2, 1.0), (x, complex(0.5, -0.2 * x))]) for x in (0, 1, 3, 5)]
    samples = [(ms[i], ms[(i + 1) % 4]) for i in range(4)] + [(ms[3], Measure.from_items(hg, [(2, 0.7j)]))]
    assert_same_application(family, samples)
    seen, read = [], hg._read
    monkeypatch.setattr(hg, "_read", lambda pairs: seen.append(list(pairs)) or read(pairs))
    verify_leibniz(replace(family), samples)  # a cold memo: the check convolves the samples itself, once
    [conv, grid] = seen  # the convolutions' pairs (`pair_supports` reads them), then the term grid's
    assert any(2 in pair for pair in conv) and grid and not any(2 in pair for pair in grid)


def reference_merge(keys: list, items: np.ndarray) -> tuple[list, np.ndarray]:
    """`measures.merge` as it read: the items summed per (owner, point) key of a dict, which keeps the first
    of equal keys (-0.0 and 0.0 are equal), the keys sorted."""
    order = sorted(dict.fromkeys(keys))
    at = {key: i for i, key in enumerate(order)}
    merged = np.zeros((len(order),) + items.shape[1:], dtype=complex)
    np.add.at(merged, np.array([at[key] for key in keys], dtype=np.intp), items)
    return order, merged


POINT_POOLS = (
    list(range(-6, 7)),
    [0.25 * k for k in range(-8, 9)] + [-0.0],
    [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e308, -1e308, 1.0],
)


def test_distinct_numbers_points_as_the_key_rule_did():
    # first-meet numbering by bits: equal to dict.fromkeys of the signed-zero key rule
    rng = random.Random(27)
    cases = [[], [5], [2.5], [-0.0], [0.0, -0.0, 0.0, -0.0]]
    cases += [[rng.choice(pool) for _ in range(rng.randint(1, 40))] for pool in POINT_POOLS for _ in range(60)]
    for points in cases:
        keys = point_keys(points)
        order = list(dict.fromkeys(keys))
        ids, first = _distinct(np.array(points))
        assert ids.tolist() == [order.index(key) for key in keys]
        assert first.tolist() == [keys.index(key) for key in order]


def test_merge_is_the_dict_merge_bit_for_bit():
    # the first point met of equal ones kept (its sign included), items summed in item order, sorted by value
    rng = random.Random(28)
    pools = [*POINT_POOLS, [0, 3, 2**40, 2**63, 2**64 + 1, 2**70]]
    for pool in pools:
        for size in [0, 1, 2] + [rng.randint(3, 60) for _ in range(40)]:
            owner = [rng.randint(0, 3) for _ in range(size)]
            points = [rng.choice(pool) for _ in range(size)]
            items = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2 * size)])
            items = items.reshape(size, 2)
            array = np.array(points, dtype=object if pool is pools[-1] else None)
            want_keys, want = reference_merge(list(zip(owner, points)), items)
            for got_items in (items, items[:, 0]):
                first, got = merge(np.array(owner, dtype=np.intp), array, got_items)
                assert bits([(owner[i], points[i]) for i in first.tolist()]) == bits(want_keys)
                assert bits(got.tolist()) == bits((want if got_items is items else want[:, 0]).tolist())
    # an owner holding both zeros keeps the one it met first; another owner keeps its own
    first, got = merge(np.array([1, 0, 1, 0]), np.array([-0.0, 0.0, 0.0, -0.0]), np.array([1, 2, 4, 8], dtype=complex))
    assert bits(np.array([-0.0, 0.0, 0.0, -0.0])[first].tolist()) == bits([0.0, -0.0]) and got.tolist() == [10, 5]


def test_an_operator_without_a_symbol_may_return_ints_past_int64():
    # its supports join the table through the merge, whole; the term grid's read then refuses them as the loop does
    hg = chebyshev()
    far = MeasureOperator(hg, lambda m: Measure.from_items(hg, [*m.support, (2**70, 1.0), (2**63, 0.5)]), name="far")
    family = DerivationFamily(hg, 1, 1, {(0,): identity_operator(hg), (1,): far})
    rng = random.Random(29)
    samples = cyclic_samples(hg, rng, range(6), count=3)
    app = apply_family(family, samples)
    lhs, applied = reference_apply_family(family, samples)
    bounds = np.searchsorted(app.blocks, np.arange(len(samples) + len(app.slot) + 1)).tolist()
    wants = [*lhs[1], *(applied[1, key] for key in app.slot)]
    for j, want in enumerate(wants):
        span = slice(bounds[j], bounds[j + 1])
        got = [(x, w) for x, w in zip(app.points[span], app.weights[1, span].tolist()) if w != 0]
        assert bits(got) == bits(list(want.support))
    assert_same_application(family, samples)
    # a sample measure whose partner is zero is never convolved: its point 2**63 joins the table whole, an int
    big, zero = Measure.from_items(hg, [(2**63, 1.0), (3, 0.5)]), Measure(hg, ())
    family = _family(hg, [CFunction(lambda n: float(type(n) is int))])
    app = apply_family(family, [(big, zero)])
    assert app.points == [3, 2**63] and app.weights.tolist() == [[0.5, 1.0]]
    assert_same_application(family, [(big, zero)])


@pytest.mark.parametrize("make", [real_line, chebyshev])
def test_functions_receive_python_scalars(make):
    # every user function, probe and family rule is called with Python ints or floats, never NumPy scalars
    hg, seen = make(), []
    base = realline_moments(0.3, 2, hg) if make is real_line else poly_derivative_moments(hg, 0.3, 2)

    def spy(f):
        return CFunction(lambda x: seen.append(type(x)) or f(x))

    rule = base.phi((0,))._fn.rule
    table = TableRow(lambda xs, alphas: seen.extend(map(type, xs)) or rule(xs, alphas), (0,))
    entries = {alpha: spy(base.phi(alpha)) for alpha in base.alphas}
    seq = MomentSequence.build(hg, 1, 2, entries, check_phi0=False)
    points = [0.5 * k for k in range(-3, 4)] + [-0.0] if make is real_line else list(range(6))
    pairs = [(x, y) for x in points for y in points[::2]]
    rng = random.Random(30)
    samples = cyclic_samples(hg, rng, points, count=4)
    verify_moment_sequence(seq, pairs)
    is_exponential(hg, spy(base.phi((0,))), pairs)
    is_exponential(hg, CFunction(table), pairs)
    verify_leibniz(derivation_from_moments(seq, skip_verification=True), samples, [spy(CFunction(lambda x: x))])
    verify_leibniz(_family(hg, [CFunction(table), None]), samples, [spy(CFunction(lambda x: 1.0))])
    # D_0 drops the point p of every measure, so the probe meets points of D_0(mu*nu) late, off the term grid
    p = points[1]
    ms = [Measure.from_items(hg, [(p, 1.0), (x, 0.5j)]) for x in points[2:6]]
    dropping = spy(CFunction(lambda x: 0.0 if x == p else 1.0))
    verify_leibniz(_family(hg, [dropping]), [(ms[i], ms[(i + 1) % 4]) for i in range(4)], [spy(CFunction(abs))])
    assert seen and set(seen) == {float if make is real_line else int}


def test_a_signed_zero_is_its_own_point():
    # -0.0 == 0.0, but the loops evaluate each point as it is: copysign(1, x) is not an exponential, the
    # family D_0 = copysign(1, x) breaks the Leibniz rule at (d[-0.0], d[-0.0]), and a symbol weighs d[-0.0] at -0.0
    hg = real_line()
    sign = CFunction(lambda x: math.copysign(1.0, x))
    pairs = [(0.0, 0.0), (-0.0, -0.0)]
    report = is_exponential(hg, sign, pairs)
    assert not report.passed and report.records[-1].residual == 2.0
    assert_same(report, reference_is_exponential(hg, sign, pairs))
    ms = [Measure.from_items(hg, [(x, 1.0)]) for x in (0.0, 0.0, -0.0, -0.0)]
    samples = [(ms[0], ms[1]), (ms[2], ms[3])]
    family = _family(hg, [sign])
    assert not verify_leibniz(replace(family), samples).passed
    assert_same(verify_leibniz(replace(family), samples), reference_verify_leibniz(family, samples))
    shifted = CFunction(lambda x: math.copysign(1.0, x) + 2)
    for symbols in ([sign], [shifted], [shifted, sign], [sign, None]):
        assert_same_application(_family(hg, symbols), samples)
    app = apply_family(_family(hg, [shifted]), samples)
    want = [module_action(shifted, m) for m in [convolve(mu, nu) for mu, nu in samples] + ms]
    assert bits(app.points) == bits([x for m in want for x in m.points])
    assert bits(app.weights[0].tolist()) == bits([w for m in want for _, w in m.support])  # 1 at -0.0, 3 at 0.0
    # a probe that tells -0.0 from 0.0, paired with both sides by the loop and by the table reference
    family = _family(hg, [CFunction.constant(1.0), CFunction(lambda x: x)])
    assert_same(verify_leibniz(family, samples, [sign]), reference_verify_leibniz(family, samples, [sign]))
    for symbols in ([sign], [CFunction.constant(1.0)], [CFunction.constant(1.0), CFunction(lambda x: x)]):
        assert_same(verify_leibniz(_family(hg, symbols), samples, [sign]),
                    reference_verify_leibniz(_family(hg, symbols), samples, [sign]))
        assert_same_application(_family(hg, symbols), samples, [sign])
    # the operator checks, rows of the same table, against their loops
    for d0 in (make_module_hom(hg, sign), make_module_hom(hg, shifted), identity_operator(hg)):
        assert_same(is_multiplicative_hom(d0, samples), reference_is_multiplicative_hom(d0, samples))
        for d in (make_module_hom(hg, sign), make_module_hom(hg, CFunction(lambda x: x))):
            assert_same(verify_d0_derivation(d0, d, samples), reference_verify_d0_derivation(d0, d, samples))
    assert not is_multiplicative_hom(make_module_hom(hg, sign), samples).passed


def test_values_at_is_the_loop_for_a_family_entry():
    # `evaluate` calls an entry point by point, each call its rule at one point; the rule reads
    # the list of points only from `table_rows`
    hg = chebyshev()
    seq = poly_derivative_moments(hg, 0.3 - 0.2j, 3)
    calls, entry = [], seq.phi((2,))
    spy = CFunction(TableRow(lambda xs, alphas: calls.append(list(xs)) or entry._fn.rule(xs, alphas), (2,)))
    points = [7, 0, 3, 3, 12]
    assert bits(values_at(spy, points).tolist()) == bits([entry(x) for x in points])
    assert calls == [[x] for x in points]
    calls.clear()
    assert bits(table_rows([spy], points)[0]) == bits([entry(x) for x in points]) and calls == [points]


def test_a_lifted_table_reads_each_base_row_once(monkeypatch):
    # one `table_rows` call of the base for every order the alphas need: one `DerivativeRun.upto` per point
    hg = chebyshev()
    lifted = rank_lift(poly_derivative_moments(hg, 0.3 + 0.1j, 5), [1.0, 0.5j])
    fns, points, tops = [lifted.phi(alpha) for alpha in lifted.alphas], list(range(40)), []
    upto = DerivativeRun.upto
    monkeypatch.setattr(DerivativeRun, "upto", lambda run, top: tops.append(top) or upto(run, top))
    rows = table_rows(fns, points)
    assert tops == points and len(rows) == len(fns) == 21
    assert bits([rows[a] for a in range(len(fns))]) == bits([[f(x) for x in points] for f in fns])


def test_no_samples_give_an_empty_table():
    family = derivation_from_moments(poly_derivative_moments(chebyshev(), 0.3, 2), skip_verification=True)
    app = apply_family(family, [])
    assert (app.points, app.blocks.tolist(), app.weights.shape, app.slot) == ([], [], (3, 0), {})
    assert reference_apply_family(family, []) == ([[], [], []], {})
    for check in (verify_leibniz, verify_fourier_leibniz):  # the checks refuse them, as they did
        with pytest.raises(ValueError, match="samples must be nonempty"):
            check(family, [])


def test_one_application_per_check(monkeypatch):
    # a rank-2 family on 6 samples: one convolution call, whose pairs the term grid reads, no Measure convolution,
    # and every symbol evaluated at most once per distinct point in each check
    hg = chebyshev()
    seq = rank_lift(poly_derivative_moments(hg, 0.3, 3), [1.0, 0.5j])
    evals = []
    entries = {
        alpha: make_module_hom(hg, CFunction(lambda n, a=alpha: evals.append((a, n)) or seq.phi(a)(n)))
        for alpha in indices_up_to(2, 3)
    }
    family = DerivationFamily(hg, 2, 3, entries)
    rng = random.Random(6)
    ms = [measure(hg, rng, range(8), k=3) for _ in range(6)]
    samples = [(ms[i], ms[(i + 1) % 6]) for i in range(6)]
    calls = []
    run = hg.pair_supports
    monkeypatch.setattr(hg, "pair_supports", lambda pairs: calls.append("pair_supports") or run(pairs))
    for module in (hypermoment.measures, hypermoment.fourier):
        monkeypatch.setattr(module, "convolve", lambda *args: calls.append("convolve"))
    for check, want in ((verify_leibniz, ["pair_supports"]), (verify_fourier_leibniz, ["pair_supports"])):
        calls.clear(), evals.clear()
        assert check(replace(family), samples).passed  # a cold memo: the check applies the family itself
        assert calls == want
        assert len(evals) == len(set(evals)) > 0
    # after verify_leibniz, the transform-side check reads the table it left: no convolution, no symbol
    assert verify_leibniz(family, samples).passed
    calls.clear(), evals.clear()
    assert verify_fourier_leibniz(family, samples).passed
    assert calls == evals == []


def test_both_checks_share_one_table_per_family_and_samples(monkeypatch):
    # the table is kept for the same objects only (`is`): a new sample list of the same measures
    # reads it; new but equal measures, a replaced operator or carrier, or a failing call do not
    hg = chebyshev()
    seq = poly_derivative_moments(hg, 0.3 - 0.1j, 2)
    evals = []
    entries = {a: make_module_hom(hg, CFunction(lambda n, a=a: evals.append(n) or seq.phi(a)(n))) for a in seq.alphas}
    family = DerivationFamily(hg, 1, 2, entries)
    rng = random.Random(8)
    ms = [measure(hg, rng, range(8), k=3) for _ in range(4)]
    samples = [(ms[i], ms[(i + 1) % 4]) for i in range(4)]
    calls = []
    run = hg.pair_supports
    monkeypatch.setattr(hg, "pair_supports", lambda pairs: calls.append(len(pairs)) or run(pairs))
    app = apply_family(family, samples)
    assert len(calls) == 1 and evals
    want = head_verify_leibniz(family, samples).to_json(), head_verify_fourier_leibniz(family, samples).to_json()
    calls.clear(), evals.clear()
    assert apply_family(family, list(samples)) is app and calls == evals == []
    assert verify_leibniz(family, samples).to_json() == want[0]
    assert verify_fourier_leibniz(family, samples).to_json() == want[1]
    assert calls == evals == []  # both read the table; the term grid reads the pairs its convolutions read
    assert not (app.weights.flags.writeable or app.blocks.flags.writeable)
    for table in (app.weights, app.blocks):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    copies = {id(m): Measure(m.hypergroup, m.support) for m in ms}
    equal = [(copies[id(mu)], copies[id(nu)]) for mu, nu in samples]
    again = apply_family(family, equal)
    assert again is not app and bits(again.weights.tolist()) == bits(app.weights.tolist())
    family.entries[(1,)] = make_module_hom(hg, family.entries[(1,)].symbol)
    before = apply_family(family, equal)
    assert before is not again and apply_family(family, equal) is before
    family.hypergroup = chebyshev()  # an equal carrier, but another object
    after = apply_family(family, equal)
    assert after is not before and apply_family(family, equal) is after
    calls.clear(), evals.clear()
    bad = [samples[0], (Measure.from_items(hg, [(3, 1e200)]), Measure.from_items(hg, [(2, 1e200)]))]
    for _ in range(2):  # mu*nu of the second sample overflows: each call raises, none is kept
        with pytest.raises(DomainError, match="non-finite weight"):
            apply_family(family, bad)
    assert len(evals) == 2 * len(set(evals)) > 0


def test_random_families_match_the_measure_loops():
    # edge symbols (none, zero at a point, infinite, failing), zero and duplicate measures, heavy
    # weights, -0.0 and 1e308 on the real line, and probes, mixed at random
    rng = random.Random(2024)
    for _ in range(80):
        name = rng.choice(["chebyshev", "legendre", "realline", "Z5"])
        hg = {"chebyshev": chebyshev, "legendre": legendre, "realline": real_line, "Z5": lambda: cyclic(5)}[name]()
        points = {"realline": [-1.0, -0.5, -0.0, 0.0, 0.5, 1e308], "Z5": list(range(5))}.get(name, list(range(9)))
        order, z = rng.randint(0, 3), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if name == "Z5":
            phi0 = enumerate_exponentials(hg)[1]
            seq = MomentSequence.build(hg, 1, order, lambda a: phi0 if not any(a) else CFunction.constant(0.3), check_phi0=False)
        else:
            seq = realline_moments(z, order, hg) if name == "realline" else poly_derivative_moments(hg, z, order)
        symbols = []
        for k in range(order + 1):
            f, edge = seq.phi((k,)), rng.random()
            symbols.append(None if edge < 0.1 and name != "realline" else
                           CFunction(lambda x, f=f: 0.0 if x == points[1] else f(x)) if edge < 0.2 else
                           CFunction(lambda x, f=f: math.inf if x == points[2] else f(x)) if edge < 0.25 else
                           CFunction(lambda x, f=f: f(x) if x == points[0] else 1.0 / (x - points[3])) if edge < 0.3 else f)
        ms = [Measure.from_items(hg, [(x, complex(rng.choice([1e200, 1.0, -0.5, rng.uniform(-1, 1)]), rng.uniform(-1, 1)))
                                      for x in rng.sample(points, rng.randint(0, 3))]) for _ in range(rng.randint(1, 4))]
        samples = [(rng.choice(ms), rng.choice(ms)) for _ in range(rng.randint(1, 4))]
        probes = rng.choice([None, [CFunction(lambda x: cmath.exp(0.1j * x)), CFunction.constant(2.0)]])
        assert_same_application(_family(hg, symbols), samples, probes)


# ---------------------------------------------------------------------------
# the pair tables a carrier keeps


def _count_pairs(monkeypatch, hg) -> list:
    calls, pairs = [], hg._pairs
    monkeypatch.setattr(hg, "_pairs", lambda xs, ys: calls.append(len(xs)) or pairs(xs, ys))
    return calls


def test_equal_int_pair_lists_read_one_table(monkeypatch):
    hg = chebyshev()
    calls = _count_pairs(monkeypatch, hg)
    seq = poly_derivative_moments(hg, 0.3, 3)  # phi_0 checked on the default pairs
    derivation_from_moments(seq)  # verified on the default pairs: the same table
    assert calls == [25]
    calls.clear()
    reports = [verify_moment_sequence(seq, [(x, y) for x in range(5) for y in range(3)]) for _ in range(2)]
    assert calls == [15] and reports[0].to_json() == reports[1].to_json()


def test_a_kept_table_is_not_read_for_other_point_types():
    hg = chebyshev()
    seq = poly_derivative_moments(hg, 0.3, 2)
    want = verify_moment_sequence(seq, [(1, 1), (2, 3)])
    with pytest.raises(DomainError, match="point True is not a nonnegative integer"):
        verify_moment_sequence(seq, [(True, 1)])  # equal to (1, 1) as a key, but refused
    verify_moment_sequence(seq, [(1, 1)])
    with pytest.raises(DomainError, match="point True is not a nonnegative integer"):
        verify_moment_sequence(seq, [(True, 1)])
    kept = dict(hg._pair_tables)
    got = verify_moment_sequence(seq, [(np.int64(1), np.int64(1)), (np.int64(2), np.int64(3))])
    assert got.to_json() == want.to_json() and hg._pair_tables.keys() == kept.keys()


def test_pair_tables_follow_the_default_tolerance():
    hg, one, pairs = chebyshev_dip(3, 0.8, 12), CFunction.constant(1.0), [(1, 1), (2, 2)]
    with pytest.raises(DomainError, match="negative coefficient -0.3"):
        is_exponential(hg, one, pairs)
    assert not hg._pair_tables  # a list whose supports raise is not kept
    default = default_tolerance()
    set_default_tolerance(Tolerance(rel=0.5))
    try:
        is_exponential(hg, one, pairs)
        assert [bound for _, bound in hg._pair_tables] == [0.5]
    finally:
        set_default_tolerance(default)
    with pytest.raises(DomainError, match="negative coefficient -0.3"):
        is_exponential(hg, one, pairs)  # tabulated again under the default bound


def test_realline_pairs_are_never_kept():
    hg = real_line()
    seq = realline_moments(0.2, 2, hg)
    verify_moment_sequence(seq, [(-0.0, 0.5), (0.0, 1.0)])
    assert not hg._pair_tables


def test_kept_tables_are_read_only():
    hg = two_point(0.3)
    is_exponential(hg, CFunction.constant(1.0), [(0, 1), (1, 1)])
    (table,) = hg._pair_tables.values()
    arrays = [a for a in (*table[0], *table) if isinstance(a, np.ndarray)]
    assert len(arrays) == 8 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        table[4][0] = 1


def test_pair_tables_are_bounded():
    hg, one = chebyshev(), CFunction.constant(1.0)
    lists = [[(0, k)] for k in range(100)]
    for pairs in lists[:PAIR_TABLES]:
        is_exponential(hg, one, pairs)
    is_exponential(hg, one, list(lists[0]))  # read again: the most recently used
    is_exponential(hg, one, lists[PAIR_TABLES])
    kept = lists[2:PAIR_TABLES] + lists[:1] + lists[PAIR_TABLES : PAIR_TABLES + 1]  # list 1 went first
    assert [key[0] for key in hg._pair_tables] == [tuple(p) for p in kept]
    for pairs in lists[PAIR_TABLES + 1 :]:
        is_exponential(hg, one, pairs)
        assert len(hg._pair_tables) <= PAIR_TABLES
    assert [key[0] for key in hg._pair_tables] == [tuple(p) for p in lists[-PAIR_TABLES:]]
    finite = two_point(0.3)  # d1 * d1 has two entries: this list is within the cap in pairs, over it in entries
    is_exponential(finite, one, [(1, 1)] * (PAIR_TABLE_CAP // 2) + [(0, 0)])
    assert not finite._pair_tables
    is_exponential(finite, one, [(1, 1)] * (PAIR_TABLE_CAP // 2))
    assert len(finite._pair_tables) == 1


def test_pair_tables_are_capped_by_entries():
    # the 64 x 64 grid: 8,065 entries on chebyshev are kept, 89,440 on legendre are not
    grid, one = [(x, y) for x in range(64) for y in range(64)], CFunction.constant(1.0)
    for hg, kept in ((chebyshev(), True), (legendre(), False)):
        assert is_exponential(hg, one, grid).passed
        assert bool(hg._pair_tables) == kept


def test_complex_product_matches_python_products():
    parts = [0.0, -0.0, 1.5, -2.0, 0.1, -1 / 3, math.inf, -math.inf, math.nan]  # NumPy's own product differs on 0.1, -1/3
    values = [complex(a, b) for a in parts for b in parts]
    column, row = np.array(values)[:, None], np.array(values)[None, :]

    def bits(z) -> list:
        return [(repr(v.real), repr(v.imag)) for v in np.asarray(z, dtype=complex).ravel().tolist()]

    with np.errstate(invalid="ignore", over="ignore"):
        for a in values:  # scalar x vector, both ways round
            assert bits(complex_product(a, row[0])) == bits([a * b for b in values])
            assert bits(complex_product(row[0], a)) == bits([b * a for b in values])
        got = complex_product(column, row)
    assert got.shape == (len(values), len(values))
    assert bits(got) == bits([a * b for a in values for b in values])
