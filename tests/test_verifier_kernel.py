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

from hypermoment.config import default_tolerance, scale_of
from hypermoment.measures import _evaluate, as_literal, complex_product
from hypermoment.moments import _identity_records, apply_family, binomial_terms, index_order, index_sub, indices_up_to
from tests.test_kernel import reference_convolve, reference_rule

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


def test_split_blocks_match_loop(monkeypatch):
    # a cap this small holds a few pairs per block: every pair list of a polynomial carrier splits
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


# ---------------------------------------------------------------------------
# derivative rows and symbol tables against the per-order and per-measure code


def reference_eval_poly_derivative(hg: PolynomialHypergroup, n: int, z: complex, k: int) -> complex:
    if n < 0 or k < 0:
        raise DomainError("indices must be nonnegative")
    z = complex(z)
    prev = [1.0 + 0j] + [0j] * k
    if n == 0:
        return prev[k]
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
    return cur[k]


def head_convolve(mu, nu) -> Measure:
    """measures.convolve as it read: the items wx * wy * w of every pair, in pair order, through `from_items`."""
    if mu.hypergroup != nu.hypergroup:
        raise DomainError("measures live on different hypergroups")
    hg = mu.hypergroup
    sup = hg.pair_supports([(x, y) for x, _ in mu.support for y, _ in nu.support])
    wxy = [wx * wy for _, wx in mu.support for _, wy in nu.support]
    items = zip(sup.points, sup.rows.tolist(), sup.weights.tolist())
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


def test_moment_entries_read_one_bounded_row_memo(monkeypatch):
    hg = chebyshev()
    calls = []
    run = hg.poly_derivatives
    monkeypatch.setattr(hg, "poly_derivatives", lambda n, z, k: calls.append(n) or run(n, z, k))
    monkeypatch.setattr(hypermoment.moments, "LIN_MEMO", 4)
    z = 0.3 - 0.2j
    seq = poly_derivative_moments(hg, z, 3)
    calls.clear()
    for n in range(5):
        for k in range(4):
            assert bits(seq.phi((k,))(n)) == bits(complex(reference_eval_poly_derivative(hg, n, z, k)))
    assert calls == list(range(5))  # one recurrence run per point for all four orders
    seq.phi((2,))(0)
    assert calls == [0, 1, 2, 3, 4, 0]  # four rows held: the least recently used, 0, went
    lifted = rank_lift(seq, [1.0, 0.5j])
    lifted.phi((1, 1))(4)
    calls.clear()
    lifted.phi((2, 0))(4), seq.phi((3,))(4)
    assert calls == []  # composite entries reach the same memo
    want = outcome(lambda: _evaluate(lambda n: reference_eval_poly_derivative(hg, n, z, 1), 2.0))
    assert outcome(lambda: seq.phi((1,))(2.0)) == want != outcome(lambda: seq.phi((1,))(2))


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
    values = [{p: _evaluate(f, p) for p in dict.fromkeys(sup.points)} for f in probes]
    lv = np.array([[[pair(m, f) for f in probes] for m in row] for row in lhs], dtype=complex)
    terms = np.zeros((len(beta),) + lv.shape[1:], dtype=complex)
    bounds = np.searchsorted(sup.rows, starts + [len(pairs)]).tolist()
    for s, (mu, nu) in enumerate(samples):
        entries = slice(bounds[s], bounds[s + 1])
        (_, a_mu), (ys, c_nu) = grids[id(mu)], grids[id(nu)]
        rows = sup.rows[entries] - starts[s]
        points, at = np.unique(sup.points[entries], return_inverse=True)
        items = complex_product(a_mu[beta][:, rows // len(ys)], c_nu[gamma][:, rows % len(ys)])
        merged = np.zeros((len(points), len(beta)), dtype=complex)
        np.add.at(merged, at, items.T * sup.weights[entries, None])
        for q in range(len(probes)):
            at_f = np.array([values[q][p] for p in points.tolist()], dtype=complex)
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


def assert_same_application(family, samples, probes=None) -> None:
    """Both Leibniz checks against their Measure-loop forms: the same JSON to the byte, or the same error."""
    got = outcome(lambda: verify_leibniz(family, samples, probes).to_json())
    assert got == outcome(lambda: head_verify_leibniz(family, samples, probes).to_json())
    if isinstance(family.hypergroup, PolynomialHypergroup):
        got = outcome(lambda: verify_fourier_leibniz(family, samples).to_json())
        assert got == outcome(lambda: head_verify_fourier_leibniz(family, samples).to_json())


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
    seen = []
    run = hg.pair_supports
    monkeypatch.setattr(hg, "pair_supports", lambda pairs: seen.append(list(pairs)) or run(pairs))
    verify_leibniz(family, samples)
    conv, grid = seen
    assert any(2 in pair for pair in conv) and not any(2 in pair for pair in grid)


def test_no_samples_give_an_empty_table():
    family = derivation_from_moments(poly_derivative_moments(chebyshev(), 0.3, 2), skip_verification=True)
    app = apply_family(family, [])
    assert (app.points, app.blocks.tolist(), app.weights.shape, app.slot) == ([], [], (3, 0), {})
    assert reference_apply_family(family, []) == ([[], [], []], {})
    for check in (verify_leibniz, verify_fourier_leibniz):  # the checks refuse them, as they did
        with pytest.raises(ValueError, match="samples must be nonempty"):
            check(family, [])


def test_one_application_per_check(monkeypatch):
    # a rank-2 family on 6 samples: one convolution call, one term grid, no Measure convolution,
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
    for module in (hypermoment.measures, hypermoment.moments):
        monkeypatch.setattr(module, "convolve", lambda *args: calls.append("convolve"))
    for check, want in ((verify_leibniz, ["pair_supports"] * 2), (verify_fourier_leibniz, ["pair_supports"])):
        calls.clear(), evals.clear()
        assert check(family, samples).passed
        assert calls == want
        assert len(evals) == len(set(evals)) > 0


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
