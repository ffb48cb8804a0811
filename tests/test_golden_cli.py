"""CLI JSON output against recorded golden files.

Each case runs `hypermoment.cli.main` with `--format json` and compares the
exit code, the parsed report and standard error with `golden/<case>.json`.
Everything must match exactly except the `residual` and `scale` of a record,
which may move by 1e-11 of the recorded scale.  Spec files the cases read are
in `golden/specs/`.

To record a golden file again (only when a change of behaviour is intended
and explained), write the output of `run_case(argv)` as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from hypermoment.cli import main

GOLDEN = Path(__file__).parent / "golden"
SPECS = GOLDEN / "specs"

CHEB_FAMILY = '{"family": "polynomial-derivative", "z": [0.3, 0.1]}'
LEG_FAMILY = '{"family": "polynomial-derivative", "z": [-0.5, 0.2]}'
LINE_FAMILY = '{"family": "realline-moment", "lambda": [0.2, -0.1]}'
CHEB_SAMPLES = "[[[[0, [1, 0]], [3, [0.5, -0.25]]], [[2, [0, 1]]]], [[[1, [-1, 0.5]]], [[4, [0.25, 0]], [5, [1, 1]]]]]"

CASES = {
    "axioms-chebyshev": ["axioms", "--hypergroup", "chebyshev", "--bound", "6"],
    "axioms-legendre": ["axioms", "--hypergroup", "legendre", "--bound", "5"],
    "axioms-realline": ["axioms", "--hypergroup", "realline", "--bound", "3"],
    "axioms-dtheta": ["axioms", "--hypergroup", "dtheta:0.35"],
    "axioms-Z5": ["axioms", "--hypergroup", "{specs}/Z5.json"],
    "axioms-nonassoc": ["axioms", "--hypergroup", "{specs}/nonassoc.json"],
    "axioms-dip": ["axioms", "--hypergroup", "{specs}/dip.json", "--bound", "6"],
    "exponentials-Z5": ["exponentials", "--hypergroup", "{specs}/Z5.json"],
    "exponentials-Z8": ["exponentials", "--hypergroup", "{specs}/Z8.json"],
    "exponentials-product": ["exponentials", "--hypergroup", "{specs}/product.json"],
    "exponentials-dtheta": ["exponentials", "--hypergroup", "dtheta:0.6"],
    # every exponential of Z_16 judged on the same 256 pairs
    "exponentials-Z16": ["exponentials", "--hypergroup", "{specs}/Z16.json"],
    "verify-moments-chebyshev": ["verify-moments", "--hypergroup", "chebyshev", "--family", CHEB_FAMILY,
                                 "--order", "3", "--bound", "4"],
    "verify-moments-legendre-rank2": ["verify-moments", "--hypergroup", "legendre", "--family", LEG_FAMILY,
                                      "--order", "3", "--rank", "2", "--bound", "3"],
    # the default 50 random pairs, where a grid-shaped structure would hold 50 x 50 x 2500 weights
    "verify-moments-realline": ["verify-moments", "--hypergroup", "realline", "--family", LINE_FAMILY, "--order", "3"],
    "verify-moments-realline-seeded": ["verify-moments", "--hypergroup", "realline", "--family", LINE_FAMILY,
                                       "--order", "4", "--rank", "2", "--seed", "5", "--count", "20"],
    "verify-moments-pairs": ["verify-moments", "--hypergroup", "chebyshev", "--family", CHEB_FAMILY,
                             "--pairs", "[[0, 3], [5, 2], [7, 7], [12, 1]]"],
    "verify-moments-Z5-fails": ["verify-moments", "--hypergroup", "{specs}/Z5.json",
                                "--family", "{specs}/Z5-family.json", "--order", "2"],
    "leibniz-chebyshev": ["leibniz", "--hypergroup", "chebyshev", "--family", CHEB_FAMILY, "--order", "2",
                          "--bound", "3"],
    "leibniz-legendre-rank2": ["leibniz", "--hypergroup", "legendre", "--family", LEG_FAMILY, "--order", "3",
                               "--rank", "2", "--bound", "4", "--count", "8"],
    "leibniz-realline": ["leibniz", "--hypergroup", "realline", "--family", LINE_FAMILY, "--order", "3",
                         "--bound", "3"],
    "leibniz-samples": ["leibniz", "--hypergroup", "chebyshev", "--family", CHEB_FAMILY, "--order", "3",
                        "--samples", CHEB_SAMPLES],
    "leibniz-chebyshev-bound12": ["leibniz", "--hypergroup", "chebyshev", "--family", CHEB_FAMILY, "--order", "2",
                                  "--bound", "12", "--count", "6"],
    "leibniz-legendre-bound12": ["leibniz", "--hypergroup", "legendre", "--family", LEG_FAMILY, "--order", "3",
                                 "--rank", "2", "--bound", "12", "--count", "10"],
    "leibniz-Z5-precondition": ["leibniz", "--hypergroup", "{specs}/Z5.json", "--family", "{specs}/Z5-family.json",
                                "--order", "2"],
    # a recurrence with a negative linearization: the batched point convolutions refuse it
    "leibniz-dip": ["leibniz", "--hypergroup", "{specs}/dip.json", "--family", CHEB_FAMILY, "--order", "2",
                    "--samples", "[[[[3,1]],[[4,1]]]]"],
    "verify-moments-dip": ["verify-moments", "--hypergroup", "{specs}/dip.json", "--family", CHEB_FAMILY,
                           "--order", "2", "--bound", "3"],
    # exp(800 x) leaves the floats at the first sample point: the error names that point
    "leibniz-realline-range": ["leibniz", "--hypergroup", "realline", "--family",
                               '{"family":"realline-moment","lambda":800}', "--order", "2", "--rank", "2",
                               "--count", "2"],
    # exp(0.3 x) leaves the floats at the pair's far point, x = 1e200
    "verify-moments-realline-far": ["verify-moments", "--hypergroup", "realline", "--family",
                                    '{"family":"realline-moment","lambda":0.3}', "--order", "3", "--rank", "2",
                                    "--pairs", "[[1e200, 2]]"],
    "search-moments-Z5": ["search-moments", "--hypergroup", "{specs}/Z5.json", "--phi0", "m0", "--alpha", "2"],
    "search-moments-product": ["search-moments", "--hypergroup", "{specs}/product.json", "--phi0", "m1",
                               "--alpha", "1,1"],
    "search-moments-dtheta": ["search-moments", "--hypergroup", "dtheta:0.3", "--phi0", "m1", "--alpha", "3"],
    # phi_0 = 1 at both points is not an exponential, so the extension precondition refuses it
    "search-moments-dtheta-precondition": ["search-moments", "--hypergroup", "dtheta:0.5", "--phi0",
                                           '{"kind":"table","values":[[0,1],[1,0.5]]}', "--alpha", "2"],
    # degree 7: values and derivatives read from the P-basis weights, the Taylor check on monomial coefficients
    "transform-chebyshev-taylor": ["transform", "--hypergroup", "chebyshev", "--measure",
                                   "[[0,1],[3,[0.5,-0.25]],[7,2]]", "--z", "0.4", "--k", "3", "--taylor"],
    # degree 30 on Legendre, where monomial coefficients cancel badly; `value` matches numpy legval
    "transform-legendre-k3": ["transform", "--hypergroup", "legendre", "--measure", "[[30,1],[7,[0.5,-0.25]]]",
                              "--z", "0.9", "--k", "3"],
    "transform-chebyshev-taylor-degree40": ["transform", "--hypergroup", "chebyshev", "--measure",
                                            "[[0,1],[12,[0,1]],[40,[0.25,0.5]]]", "--taylor"],
    # three support points up to degree 60: the derivative rows, transform values and Taylor coefficients
    "transform-legendre-taylor-degree60": ["transform", "--hypergroup", "legendre", "--measure",
                                           "[[2,1],[25,[0.5,-0.25]],[60,[0.25,0.5]]]", "--z", "0.3", "--k", "3",
                                           "--taylor"],
}


def run_case(argv: list[str]) -> dict:
    """Exit code, parsed JSON report (None when nothing was printed) and stderr."""
    argv = [a.replace("{specs}", str(SPECS)) for a in argv] + ["--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "report": json.loads(out.getvalue()) if out.getvalue() else None,
            "stderr": err.getvalue().replace(str(SPECS), "{specs}")}


def assert_matches(got, want, path: str = "") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            if key in ("residual", "scale") and isinstance(want[key], float):
                assert abs(got[key] - want[key]) <= 1e-11 * want.get("scale", 1.0), f"{path}.{key}"
            else:
                assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert got == want and type(got) is type(want), f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_json_matches_golden(case):
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    assert_matches(run_case(CASES[case]), want)


def test_one_parser_serves_every_call(capsys):
    """`main` builds its parser once per process: a run after any other, after
    `--help` or after a usage error, prints what it prints first."""
    forward = {case: run_case(CASES[case]) for case in sorted(CASES)}
    first = [main(["--help"]), capsys.readouterr(), main(["axioms", "--bound", "3"]), capsys.readouterr()]
    backward = {case: run_case(CASES[case]) for case in sorted(CASES, reverse=True)}
    again = [main(["--help"]), capsys.readouterr(), main(["axioms", "--bound", "3"]), capsys.readouterr()]
    assert backward == forward
    assert again == first and first[0] == 0 and first[2] == 2 and "usage: hypermoment" in first[1].out
    for case, got in forward.items():
        assert_matches(got, json.loads((GOLDEN / f"{case}.json").read_text()))
