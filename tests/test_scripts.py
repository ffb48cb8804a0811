"""The scripts run end to end and print their closing verdicts or results."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_golden_cli import CASES

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize(
    "script, last_line",
    [("run_examples.py", "all scenarios: OK"), ("extension_sweep.py", "every solution set trivial: True")],
)
def test_script_runs(script, last_line):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)], capture_output=True, text=True, env=ENV, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == last_line


def test_large_inputs_prints_one_json_line_per_case():
    # the whole run takes over ten seconds; one deep linearization stands for it here
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "large_inputs.py"), "lin1200"],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    result = json.loads(line)
    assert result["case"] == "lin1200" and result["outcome"] == "ok"
    assert result["seconds"] > 0 and result["rss_mb"] > 0
    assert result["lin_tables"] == 1 and result["column_steps"] == 1201  # the 1201 steps of column 3, in one run


def test_large_inputs_cold_checks_run_one_linearization_table_each():
    # 100 axiom checks at bound 16, each on a fresh chebyshev carrier: one _lin_table run per check, of the 33
    # columns its sample grid's band reaches, 17 steps high
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "large_inputs.py"), "cold16"],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["case"] == "cold16" and result["outcome"] == "ok"
    assert result["lin_tables"] == 100 and result["column_steps"] == 100 * 33 * 17


def test_large_inputs_counts_the_derivative_row_reads():
    # the 12 samples of a rank-2 order-5 lifted family: the lift reads every base row it needs by one
    # call of the base's rule, so each distinct point a table reads takes one `DerivativeRun.upto`
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "large_inputs.py"), "leib21"],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["case"] == "leib21" and result["outcome"] == "ok" and result["upto_calls"] == 137


def test_large_inputs_times_the_derivation_check_alone():
    # d0deriv40 makes its operators and 40 sample pairs before the clock; the check reads each derivative
    # row once, for its one application table (the Measure loops read 2,700)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "large_inputs.py"), "d0deriv40"],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["case"] == "d0deriv40" and result["outcome"] == "ok" and result["seconds"] > 0
    assert result["upto_calls"] == 38


def test_large_inputs_against_a_checkout_prints_one_line_per_case():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "large_inputs.py"), "--against", str(ROOT), "--runs", "2", "lin3x1200"],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    result = json.loads(line)
    assert result["case"] == "lin3x1200" and result["this"]["outcome"] == result["other"]["outcome"] == "ok"
    for tree in (result["this"], result["other"]):
        assert tree["tree"] == str(ROOT) and len(tree["seconds"]) == len(tree["rss_mb"]) == 2
        assert tree["median_seconds"] > 0 and tree["median_rss_mb"] > 0 and tree["lin_tables"] == 1


@pytest.mark.parametrize("runs", ["0", "-1", "two"])
def test_large_inputs_refuses_a_run_count_below_one(runs):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "large_inputs.py"), "--against", str(ROOT), "--runs", runs],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert done.returncode == 2 and "expected a positive integer" in done.stderr and "Traceback" not in done.stderr


def test_cli_diff_of_the_checkout_against_itself_finds_nothing():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_diff.py"), str(ROOT)],
        capture_output=True, text=True, env=ENV, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == [f"{2 * len(CASES)} runs, 0 differences"]


def test_large_inputs_checks_a_real_line_leibniz_family():
    # lineleib: the one large Leibniz case whose points are floats, -0.0 among them; the family passes
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "large_inputs.py"), "lineleib"],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["case"] == "lineleib" and result["outcome"] == "ok" and result["seconds"] > 0
