"""Self-tests of the benchmark: oracles, defective inputs, a smoke run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from run import END_TO_END, child_env, hd_quantile  # noqa: E402


def take(workload, seed, count, tmp_path):
    plan = jobs.plan_setup(workload, seed, tmp_path / "specs")
    return plan, list(itertools.islice(jobs.stream(workload, seed, plan), count))


def is_exponential(size, table, values):
    c = oracle.structure_tensor(size, table)
    v = np.array(values)
    return np.allclose(np.einsum("xyk,k->xy", c, v), np.outer(v, v), atol=1e-9)


# ---------------------------------------------------------------------------
# the oracles agree with closed forms


@pytest.mark.parametrize("m,n", itertools.product(range(9), repeat=2))
def test_chebyshev_linearization_closed_form_matches_numpy(m, n):
    closed = oracle.cheb_linearization(m, n)
    assert closed.keys() == oracle.numpy_linearization("chebyshev", m, n).keys()
    for l, w in oracle.numpy_linearization("chebyshev", m, n).items():
        assert w == pytest.approx(closed[l], abs=1e-12)


def test_rational_recurrence_reproduces_chebyshev_and_legendre():
    half = Fraction(1, 2)
    cheb = oracle.RationalRecurrence(1, 0, [(half, 0, half)] * 20)
    leg = oracle.RationalRecurrence(1, 0, [(Fraction(n + 1, 2 * n + 1), 0, Fraction(n, 2 * n + 1))
                                           for n in range(1, 21)])
    for m, n in itertools.product(range(7), repeat=2):
        assert cheb.linearization(m, n) == {l: Fraction(w).limit_denominator()
                                            for l, w in oracle.cheb_linearization(m, n).items()}
        exact = leg.linearization(m, n)
        for l, w in oracle.numpy_linearization("legendre", m, n).items():
            assert float(exact[l]) == pytest.approx(w, rel=1e-12)
    assert cheb.first_negative(8) is None and leg.first_negative(8) is None


def test_polynomial_values_match_closed_forms():
    for n in range(12):
        t = 0.37
        assert oracle.poly_value("chebyshev", n, math.cos(t)) == pytest.approx(math.cos(n * t))
        assert oracle.poly_value("chebyshev", n, 1.0, 1) == pytest.approx(n * n)
        assert oracle.poly_value("legendre", n, 1.0) == pytest.approx(1.0)
        assert oracle.poly_value("legendre", n, 1.0, 1) == pytest.approx(n * (n + 1) / 2)
    assert oracle.poly_value("legendre", 2, 0.3 + 0.2j) == pytest.approx((3 * (0.3 + 0.2j) ** 2 - 1) / 2)


def test_series_monomial_evaluates_like_the_series():
    weights = {0: 0.5, 3: -1 + 0.25j, 7: 0.75j}
    for family in ("chebyshev", "legendre"):
        mono = oracle.series_monomial(family, weights)
        z = 0.41
        assert np.polyval(mono[::-1], z) == pytest.approx(oracle.series_value(family, weights, z))


def test_finite_exponential_oracles_solve_the_exponential_equation():
    for n in range(2, 9):
        assert all(is_exponential(n, oracle.cyclic_table(n), e) for e in oracle.cyclic_characters(n))
    for t1, t2 in ((0.3, 0.8), (1.4, 0.5)):
        table = oracle.product_table(oracle.two_point_table(t1), 2, oracle.two_point_table(t2), 2)
        expos = oracle.product_exponentials(oracle.two_point_exponentials(t1),
                                            oracle.two_point_exponentials(t2))
        assert len(expos) == 4 and all(is_exponential(4, table, e) for e in expos)
        for e in expos:
            assert jobs.extension_nullity(4, table, e) == 0
    assert oracle.finite_axiom_failures(5, 0, oracle.cyclic_table(5)) == []


@pytest.mark.parametrize("kind,param", [("chebyshev", 0.3 + 0.4j), ("legendre", -1.5 + 0.2j),
                                        ("realline", 0.7 - 0.2j), ("twopoint", -0.35)])
def test_unperturbed_families_satisfy_both_identities(kind, param):
    points = jobs.REALLINE_POINTS if kind == "realline" else ([0, 1] if kind == "twopoint" else [0, 1, 2, 3])
    fam = {"kind": kind, "param": param, "theta": 0.35, "weights": (1.0, 0.5 - 0.25j), "perturb": None}
    mu, nu = {points[0]: 0.5 + 0.1j, points[-1]: -0.3}, {points[1]: 1.0, points[-1]: 0.2j}
    for alpha in jobs.indices_up_to(2, 4):
        for x, y in itertools.product(points, repeat=2):
            res, scale = oracle.moment_defect(fam, alpha, x, y)
            assert res <= 1e-9 * scale
        res, scale = oracle.leibniz_defect(fam, alpha, mu, nu)
        assert res <= 1e-9 * scale


def test_harrell_davis_is_a_weighted_quantile():
    assert hd_quantile([4.2] * 50, 0.9) == pytest.approx(4.2)
    symmetric = np.linspace(-3.0, 3.0, 101)
    assert hd_quantile(list(symmetric), 0.5) == pytest.approx(0.0, abs=1e-12)
    x = np.random.default_rng(7).lognormal(size=4000)
    for q in (0.5, 0.9):
        assert hd_quantile(list(x), q) == pytest.approx(np.quantile(x, q), rel=0.03)


# ---------------------------------------------------------------------------
# every defective input violates its axiom under the oracle


@pytest.mark.parametrize("seed", [1, 2])
def test_axioms_cold_keys_follow_the_oracle(seed, tmp_path):
    _, deck = take("axioms-cold", seed, 88, tmp_path)
    seen = set()
    for job in deck:
        seen.add(job.template)
        spec, key = job.spec, job.key
        if job.template == "negative-recurrence":
            rec = oracle.RationalRecurrence(spec["a0"], spec["b0"],
                                            [tuple(Fraction(v).limit_denominator(100) for v in r)
                                             for r in spec["rows"]])
            assert rec.first_negative(spec["bound"]) is not None
            assert key["axioms"] == "FAIL:nonnegativity"
        elif spec["carrier"] == "finite":
            bad = oracle.finite_axiom_failures(spec["size"], 0, spec["table"])
            want = {"negative-weight": ["nonnegativity"], "non-associative": ["associativity"]}
            assert bad == want.get(job.template, [])
            assert key["axioms"] == ("FAIL:" + bad[0] if bad else "PASS")
            if job.template == "non-associative":
                assert not oracle.translations_commute(spec["size"], spec["table"])
            else:
                assert all(is_exponential(spec["size"], spec["table"], e) for e in key["exponentials"])
        else:
            assert key["axioms"] == "PASS"
    assert seen == set(jobs._axioms_cold(random.Random(0), {}))


@pytest.mark.parametrize("seed", [1, 2])
def test_moments_warm_perturbations_fail_exactly_at_their_alpha(seed, tmp_path):
    _, deck = take("moments-warm", seed, 70, tmp_path)
    perturbed = [job for job in deck if job.spec["perturb"] is not None]
    assert perturbed and len(perturbed) < len(deck)
    for job in deck:
        fam = job.spec
        pert = fam["perturb"]
        for alpha in jobs.indices_up_to(fam["rank"], fam["order"]):
            worst = max(r / s for r, s in (oracle.moment_defect(fam, alpha, x, y)
                                           for x in fam["points"] for y in fam["points"]))
            leib = max(r / s for r, s in (oracle.leibniz_defect(fam, alpha, dict(mu), dict(nu))
                                          for mu, nu in fam["samples"]))
            if pert is not None and alpha == pert["alpha"]:
                assert worst > 1e-6 and leib > 1e-6
                assert job.key["moments"] == f"FAIL:{list(alpha)}"
                break
            assert worst < 1e-9 and leib < 1e-9, (job.jid, alpha)
        else:
            assert pert is None and job.key["moments"] == "PASS"


def test_a_perturbed_family_passed_on_the_transform_side_is_wrong(tmp_path):
    _, deck = take("moments-warm", 1, 70, tmp_path)
    job = next(j for j in deck if j.spec["perturb"] is not None and j.key["fourier"] is not None)
    assert jobs.judge(job, dict(job.key)).status == "right"
    assert jobs.judge(job, dict(job.key, fourier="PASS")).status == "wrong"
    assert jobs.judge(job, dict(job.key, fourier="FAIL:[0]")).status == "wrong"
    valid = next(j for j in deck if j.spec["perturb"] is None and j.key["fourier"] == "PASS")
    assert jobs.judge(valid, dict(valid.key, fourier="FAIL:[1]")).status == "known"
    assert jobs.judge(valid, dict(valid.key, leibniz="FAIL:[1]")).status == "wrong"


def test_a_transform_answering_exit_0_with_a_wrong_value_is_wrong(tmp_path):
    _, deck = take("cli-mix", 1, 90, tmp_path)
    job = next(j for j in deck if j.template == "transform" and "json" in j.spec["argv"])
    coeffs = [[c.real, c.imag] for c in map(complex, job.key["coefficients"])]
    while coeffs and coeffs[-1] == [0.0, 0.0]:
        coeffs.pop()

    def outcome(rc, value, failing=()):
        report = {"passed": rc == 0, "meta": {"coefficients": coeffs, "value": value},
                  "records": [{"name": n, "status": "fail"} for n in failing]}
        return {"exit": rc, "stdout": json.dumps(report), "stderr": ""}

    right = [job.key["value"].real, job.key["value"].imag]
    assert jobs.judge(job, outcome(0, right)).status == "right"
    assert jobs.judge(job, outcome(0, [right[0] + 1.0, right[1]])).status == "wrong"
    assert jobs.judge(job, outcome(1, right, ["taylor-reconstruction"])).status == "known"
    assert jobs.judge(job, outcome(1, right, ["taylor-reconstruction", "axioms"])).status == "wrong"


def test_defect_reaching_templates_are_valid_inputs(tmp_path):
    _, deck = take("moments-warm", 2, 52, tmp_path)
    far = [j for j in deck if max(x for mu, _ in j.spec["samples"] for x, _ in mu) == 12]
    assert len(far) == 4 and all(j.key["fourier"] == "PASS" for j in far)
    _, deck = take("cli-mix", 2, 82, tmp_path)
    far = [j for j in deck if j.template == "leibniz" and j.spec["argv"][j.spec["argv"].index("--bound") + 1] == "12"]
    assert len(far) == 4 and all(j.key["exit"] == 0 for j in far)


def test_cli_mix_spec_files_and_malformed_inputs(tmp_path):
    plan, deck = take("cli-mix", 4, 90, tmp_path)
    specs = plan["specs"]
    assert specs["nonassoc.json"]["axioms"] == "FAIL:associativity"
    for name, spec in specs.items():
        if isinstance(spec["exponentials"], list):
            data = json.loads(Path(spec["path"]).read_text())
            assert oracle.finite_axiom_failures(data["size"], 0, data["table"]) == []
            assert all(is_exponential(data["size"], data["table"], e) for e in spec["exponentials"])
    malformed = [job for job in deck if job.template == "malformed"]
    assert malformed and all(job.key["exit"] == 2 for job in malformed)
    assert {job.template for job in deck} == {
        "axioms-preset", "axioms-spec", "exponentials", "verify-moments", "leibniz",
        "search-moments", "transform", "malformed"}


def test_same_seed_same_jobs(tmp_path):
    for workload in jobs.WORKLOADS:
        _, a = take(workload, 9, 30, tmp_path)
        _, b = take(workload, 9, 30, tmp_path)
        assert [j.describe() for j in a] == [j.describe() for j in b]


# ---------------------------------------------------------------------------
# smoke runs


def test_smoke_run_prints_every_end_to_end_metric():
    for workload in jobs.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", "3", "--seconds", "1", "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
        for name in ("wrong_verdict_ratio", "failed_ratio", "job_p90_ms"):
            assert any(line.strip().startswith(name) for line in lines)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == tracing.metric_units()


def traced(workload, seed):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", "fixed", "--workload", workload,
           "--seed", str(seed)]
    runs = []
    for extra in ([], ["--trace"], ["--trace"]):
        proc = subprocess.run(cmd + extra, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_counts_repeat_and_verdicts_match(workload):
    plain, first, second = traced(workload, 5)
    assert set(first["layers"]) | {"trace.overhead_ratio"} == set(tracing.metric_units())
    for name, value in first["layers"].items():
        if not name.endswith(".self_s"):
            assert second["layers"][name] == value, name
    sigs = [[r["signature"] for r in run["records"]] for run in (plain, first, second)]
    assert sigs[0] == sigs[1] == sigs[2]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
