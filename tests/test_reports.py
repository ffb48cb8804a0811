"""Report construction rules and lossless JSON round-tripping."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermoment import (
    CFunction,
    MomentSequence,
    Tolerance,
    chebyshev,
    is_exponential,
    poly_derivative_moments,
    two_point,
    verify_moment_sequence,
)
from hypermoment.reports import ERROR, FAIL, PASS, CheckRecord, Report, jsonable

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)

payload = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | finite_floats
    | st.text(max_size=12)
    | st.tuples(finite_floats, finite_floats).map(lambda t: complex(*t)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def record_st():
    return st.builds(
        lambda name, law, status, residual, scale, ce, detail: CheckRecord(
            name=name,
            law=law,
            status=status,
            residual=residual,
            scale=scale,
            counterexample=jsonable(ce) if status == FAIL else None,
            detail=detail,
        ),
        name=st.text(min_size=1, max_size=16),
        law=st.text(max_size=24),
        status=st.sampled_from([PASS, FAIL, ERROR]),
        residual=st.floats(min_value=0, max_value=1e12, allow_nan=False),
        scale=st.floats(min_value=1, max_value=1e12, allow_nan=False),
        ce=payload.filter(lambda v: v is not None) | st.just("witness"),
        detail=st.text(max_size=16),
    )


class TestJsonable:
    def test_complex_becomes_pair(self):
        assert jsonable(1 - 2j) == [1.0, -2.0]
        assert jsonable({"a": (1j, 2)}) == {"a": [[0.0, 1.0], 2]}

    def test_opaque_objects_stringified(self):
        class Thing:
            def __repr__(self):
                return "thing"

        assert jsonable(Thing()) == "thing"


class TestRecordRules:
    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            CheckRecord(name="x", law="l", status="maybe")

    def test_fail_needs_counterexample(self):
        with pytest.raises(ValueError):
            CheckRecord(name="x", law="l", status=FAIL)

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError):
            CheckRecord(name="x", law="l", status=PASS, residual=-1.0)
        with pytest.raises(ValueError):
            CheckRecord(name="x", law="l", status=PASS, residual=math.nan)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(record_st(), max_size=5), title=st.text(min_size=1, max_size=20))
    def test_json_round_trip_is_identity(self, records, title):
        report = Report(title=title, records=records, meta={"seed": 3})
        again = Report.from_json(report.to_json())
        assert again.title == report.title
        assert again.meta == report.meta
        assert again.records == report.records
        assert again.passed == report.passed
        assert report.to_dict()["records"] == [dataclasses.asdict(r) for r in report.records]  # the shallow dicts

    def test_worst_residual_over_scale(self):
        report = Report(title="t")
        report.add("a", "l", ok=True, residual=1e-3, scale=1e6)
        report.add("b", "l", ok=True, residual=1e-5, scale=1.0)
        assert report.worst_residual() == pytest.approx(1e-5)


class TestNanCases:
    """A case whose residual/scale is NaN fails, and the first such case is the counterexample."""

    @staticmethod
    def assert_nan_failure(report: Report, name: str, counterexample_head: list) -> None:
        rec = next(r for r in report.records if r.name == name)
        assert rec.status == FAIL and not report.passed
        assert rec.counterexample[: len(counterexample_head)] == counterexample_head
        assert Report.from_json(report.to_json()).to_json() == report.to_json()

    def test_accumulators(self):
        tol = Tolerance()
        report = Report(title="t")
        res, scl = np.array([1e-13, math.nan, 0.0, math.nan]), np.ones(4)
        rec = report.add_worst("worst", "l", res, scl, tol, lambda i: [i])
        assert (rec.status, rec.counterexample, rec.residual, rec.scale) == (FAIL, [1], 1e-13, 1.0)
        rec = report.check("one", "l", math.nan, 1.0, tol, lambda: ["case"])
        assert (rec.status, rec.counterexample, rec.residual, rec.scale) == (FAIL, ["case"], 0.0, 1.0)
        rec = report.check("inf/inf", "l", math.inf, math.inf, tol, lambda: ["case"])
        assert rec.status == FAIL
        rec = report.add_first_failure("first", "l", [(res, scl, None)], tol, lambda k: [k])
        assert (rec.status, rec.counterexample, rec.residual) == (FAIL, [1], 1e-13)
        assert Report.from_json(report.to_json()).records == report.records

    def test_is_exponential_with_a_nan_value(self):
        f = CFunction(lambda x: math.nan if x == 1 else 1.0)
        report = is_exponential(two_point(0.5), f, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert report.records[0].status == PASS  # f(o) = 1
        self.assert_nan_failure(report, "multiplicativity-on-pairs", [0, 1])

    def test_is_exponential_nan_at_the_identity(self):
        f = CFunction(lambda x: math.nan if x == 0 else -0.5)
        report = is_exponential(two_point(0.5), f, [(1, 1)])
        self.assert_nan_failure(report, "normalization-at-identity", [0])

    def test_moment_sequence_with_a_nan_entry(self):
        hg = chebyshev()
        base = poly_derivative_moments(hg, 0.3 + 0.1j, 3)
        broken = CFunction(lambda n: math.nan if n == 3 else base.phi((2,))(n))
        seq = MomentSequence.build(hg, 1, 3, lambda a: broken if a == (2,) else base.phi(a), check_phi0=False)
        pairs = [(x, y) for x in range(5) for y in range(5)]
        report = verify_moment_sequence(seq, pairs)
        assert [r.status for r in report.records] == [PASS, PASS, FAIL, FAIL]
        # (0, 3) is the first pair that reaches phi_2(3), through its support {3}
        self.assert_nan_failure(report, "moment-identity alpha=[2]", [[2], 0, 3])


class TestWorstCaseVerdict:
    """`add_worst` fails when any case fails, also where `tol.ok` is not monotone in
    residual/scale (an absolute floor above rel * scale)."""

    def test_a_failing_case_below_the_worst_ratio_fails(self):
        tol = Tolerance(rel=1e-30)
        res, scl = np.array([2e-12, 1e-12]), np.array([100.0, 1.0])
        report = Report(title="t")
        worst = report.add_worst("worst", "l", res, scl, tol, lambda i: [i])
        first = report.add_first_failure("first", "l", [(res, scl, None)], tol, lambda k: [k])
        assert (first.status, first.counterexample) == (FAIL, [0])
        # the verdict of every case, the counterexample the first failing one; the worst ratio is still recorded
        assert (worst.status, worst.counterexample, worst.residual, worst.scale) == (FAIL, [0], 1e-12, 1.0)

    def test_the_worst_case_stays_the_counterexample_when_it_fails(self):
        tol = Tolerance(rel=1e-30)
        rec = Report(title="t").add_worst(
            "worst", "l", np.array([2e-12, 0.0, 5e-12]), np.array([100.0, 1.0, 1.0]), tol, lambda i: [i]
        )
        assert (rec.status, rec.counterexample, rec.residual, rec.scale) == (FAIL, [2], 5e-12, 1.0)

    def test_every_case_within_the_floor_passes(self):
        rec = Report(title="t").add_worst(
            "worst", "l", np.array([1e-12, 5e-13]), np.array([100.0, 1.0]), Tolerance(rel=1e-30), lambda i: [i]
        )
        assert (rec.status, rec.counterexample, rec.residual, rec.scale) == (PASS, None, 5e-13, 1.0)


def reference_add_worst(report, name, law, residuals, scales, tol, witness, detail=""):
    """`Report.add_worst` as it read before the row rule: one array pass per record."""
    res, scl = np.ravel(residuals), np.ravel(scales)
    ratio = res / scl
    nan = np.isnan(ratio)
    fails = nan | tol.fails(res, scl)
    ratio[nan] = 0.0
    i = int(np.argmax(ratio)) if ratio.size else 0
    worst, scale = (float(res[i]), float(scl[i])) if ratio.size and ratio[i] > 0.0 else (0.0, 1.0)
    if not fails.any():
        return report.add(name, law, True, worst, scale, detail=detail)
    k = int(np.argmax(nan)) if nan.any() else i if fails[i] else int(np.argmax(fails))
    return report.add(name, law, False, worst, scale, witness(k), detail)


class TestRowRule:
    """`add_rows` judges every row in one array pass, as a loop of one-row passes did."""

    @staticmethod
    def assert_rows_match(res, scl, tol) -> list:
        names, details = [f"row {r}" for r in range(len(res))], [f"detail {r}" for r in range(len(res))]
        rows, one, loop = Report(title="t"), Report(title="t"), Report(title="t")
        with np.errstate(all="ignore"):
            got = rows.add_rows(names, "l", res, scl, tol, lambda r, i: [r, i], details)
            for r in range(len(res)):
                one.add_worst(names[r], "l", res[r], scl[r], tol, lambda i: [r, i], details[r])
                reference_add_worst(loop, names[r], "l", res[r], scl[r], tol, lambda i: [r, i], details[r])
        assert got == rows.records
        assert repr(rows.records) == repr(one.records) == repr(loop.records)  # repr tells -0.0 from 0.0
        return got

    def test_random_rows_match_the_one_row_loop_bit_for_bit(self):
        rng = np.random.default_rng(5)
        tols = [Tolerance(), Tolerance(rel=1e-30), Tolerance(rel=0.0, abs_floor=0.0), Tolerance(rel=1e-3, abs_floor=0.5)]
        residual_values = [0.0, -0.0, 1e-13, 1e-12, 2e-12, 1e-9, 0.5, 3.0, math.inf, math.nan]
        scale_values = [1.0, 1.0, 100.0, 1e12, 0.0, math.inf, math.nan]
        for _ in range(400):
            shape = (rng.integers(1, 6), *rng.integers(0, 5, size=rng.integers(1, 3)))
            res = rng.choice(residual_values, size=shape) * rng.choice([1.0, rng.uniform(0.5, 2.0)], size=shape)
            scl = rng.choice(scale_values, size=shape)
            self.assert_rows_match(res, scl, tols[rng.integers(len(tols))])

    def test_rows_of_no_cases_pass_at_residual_0_scale_1(self):
        for shape in [(3, 0), (1, 0), (2, 4, 0)]:
            got = self.assert_rows_match(np.zeros(shape), np.ones(shape), Tolerance())
            assert [(r.status, r.residual, r.scale) for r in got] == [(PASS, 0.0, 1.0)] * shape[0]

    def test_the_floor_cases_stacked_as_rows(self):
        # the three TestWorstCaseVerdict cases, each padded with a case of residual 0 at scale 1
        res = np.array([[2e-12, 1e-12, 0.0], [2e-12, 0.0, 5e-12], [1e-12, 5e-13, 0.0]])
        scl = np.array([[100.0, 1.0, 1.0], [100.0, 1.0, 1.0], [100.0, 1.0, 1.0]])
        got = self.assert_rows_match(res, scl, Tolerance(rel=1e-30))
        assert [(r.status, r.counterexample, r.residual, r.scale) for r in got] == [
            (FAIL, [0, 0], 1e-12, 1.0), (FAIL, [1, 2], 5e-12, 1.0), (PASS, None, 5e-13, 1.0)]
