"""JSON formats, report round-tripping, CLI exit codes and determinism."""

from __future__ import annotations

import json
import math
import warnings

import pytest

from hypermoment import (
    DomainError,
    FiniteHypergroup,
    PolynomialHypergroup,
    RealLineHypergroup,
    Report,
    SpecError,
    check_axioms,
)
from hypermoment.cli import main
from hypermoment.config import Tolerance
from hypermoment.measures import as_literal
from hypermoment.io import (
    family_from_literal,
    function_from_literal,
    load_hypergroup,
    measure_from_literal,
    parse_complex,
    resolve_phi0,
)

POLY_FAMILY = '{"family": "polynomial-derivative", "z": 0.3}'
LINE_FAMILY = '{"family": "realline-moment", "lambda": 0.2}'


class TestLiterals:
    def test_parse_complex(self):
        assert parse_complex(2) == 2 + 0j
        assert parse_complex([1, -2]) == 1 - 2j
        with pytest.raises(SpecError):
            parse_complex("nope")

    def test_measure_round_trip(self, cheb):
        literal = [[0, [1.0, 0.0]], [3, [0.5, -2.0]]]
        mu = measure_from_literal(cheb, literal)
        assert as_literal(mu) == literal

    def test_measure_accepts_plain_numbers(self, cheb):
        mu = measure_from_literal(cheb, [[1, 2]])
        assert mu.weight(1) == 2 + 0j

    def test_bad_measure_literal(self, cheb):
        with pytest.raises(SpecError):
            measure_from_literal(cheb, {"not": "a list"})
        with pytest.raises(SpecError):
            measure_from_literal(cheb, [[-1, 1.0]])

    def test_function_literals(self, cheb, realline):
        const = function_from_literal(cheb, {"kind": "constant", "value": [0, 1]})
        assert const(5) == 1j
        table = function_from_literal(cheb, {"kind": "table", "values": [[0, 1], [1, 2]]})
        assert table(1) == 2
        expo = function_from_literal(cheb, {"kind": "exponential", "z": 0.5})
        assert expo(2) == pytest.approx(-0.5)
        mom = function_from_literal(realline, {"kind": "moment", "k": 2, "lambda": 0.0})
        assert mom(3.0) == pytest.approx(9.0)

    def test_family_literals(self, cheb, realline):
        f1 = family_from_literal(realline, {"family": "realline-moment", "lambda": 0.7, "order": 3})
        assert f1.order == 3 and f1.rank == 1
        f2 = family_from_literal(cheb, {"family": "polynomial-derivative", "z": 0.3}, order=2)
        assert f2.order == 2
        explicit = family_from_literal(
            cheb,
            {
                "rank": 1,
                "order": 1,
                "entries": [
                    [[0], {"kind": "constant", "value": 1}],
                    [[1], {"kind": "constant", "value": 0}],
                ],
            },
        )
        assert explicit.phi((1,))(4) == 0

    def test_wrong_carrier_for_family(self, cheb):
        with pytest.raises(SpecError):
            family_from_literal(cheb, {"family": "realline-moment", "lambda": 0.0})

    def test_family_with_missing_entry(self, cheb):
        incomplete = {
            "rank": 1,
            "order": 2,
            "entries": [[[0], {"kind": "constant", "value": 1}]],
        }
        with pytest.raises(SpecError):
            family_from_literal(cheb, incomplete)

    def test_finite_exponential_by_index_and_values(self):
        hg = load_hypergroup("dtheta:0.5")
        by_index = function_from_literal(hg, {"kind": "exponential", "index": 1})
        assert by_index(1) == pytest.approx(-0.5)
        by_values = function_from_literal(
            hg, {"kind": "exponential", "values": [[0, 1.0], [1, -0.5]]}
        )
        assert by_values(1) == -0.5


class TestHypergroupSpecs:
    def test_presets(self):
        assert isinstance(load_hypergroup("chebyshev"), PolynomialHypergroup)
        assert isinstance(load_hypergroup("realline"), RealLineHypergroup)
        assert load_hypergroup("legendre").name == "legendre"
        hg = load_hypergroup("dtheta:0.25")
        assert isinstance(hg, FiniteHypergroup)
        assert hg.convolve_points(1, 1).weight(0) == pytest.approx(0.25)

    def test_polynomial_preset_by_coeffs_name(self):
        hg = load_hypergroup('{"kind": "polynomial", "coeffs": "legendre"}')
        assert hg.convolve_points(1, 1).weight(2) == pytest.approx(2 / 3)
        with pytest.raises(SpecError):
            load_hypergroup('{"kind": "polynomial", "coeffs": "hermite"}')

    def test_finite_spec_file(self, tmp_path):
        spec = {
            "kind": "finite",
            "size": 2,
            "identity": 0,
            "table": [
                [0, 0, [[0, 1.0]]],
                [0, 1, [[1, 1.0]]],
                [1, 1, [[0, 0.5], [1, 0.5]]],
            ],
        }
        path = tmp_path / "hg.json"
        path.write_text(json.dumps(spec))
        hg = load_hypergroup(str(path))
        assert check_axioms(hg, 2).passed

    def test_polynomial_spec_inline(self):
        hg = load_hypergroup('{"kind": "polynomial", "coeffs": "chebyshev"}')
        assert isinstance(hg, PolynomialHypergroup)
        hg2 = load_hypergroup(
            '{"kind": "polynomial", "a0": 1.0, "b0": 0.0, "coeffs": [[0.5, 0.0, 0.5], [0.5, 0.0, 0.5]]}'
        )
        assert hg2.linearization(1, 2) == ((1, 0.5), (3, 0.5))

    def test_bad_specs(self):
        with pytest.raises(SpecError):
            load_hypergroup("no-such-preset")
        with pytest.raises(SpecError):
            load_hypergroup('{"kind": "finite", "size": 2}')
        with pytest.raises(SpecError):
            load_hypergroup("dtheta:2.0")

    def test_resolve_phi0_names(self):
        hg = load_hypergroup("dtheta:0.5")
        m1 = resolve_phi0(hg, "m1")
        assert m1(1) == pytest.approx(-0.5)
        with pytest.raises(SpecError):
            resolve_phi0(hg, "m7")


class TestReportRoundTrip:
    def test_json_round_trip(self, cheb):
        report = check_axioms(cheb, 4)
        again = Report.from_json(report.to_json())
        assert again.records == report.records
        assert again.meta == report.meta
        assert again.title == report.title

    def test_fail_requires_counterexample(self):
        report = Report(title="t")
        with pytest.raises(ValueError):
            report.add("x", "law", ok=False)


class TestCliExitCodes:
    def test_axioms_pass(self, capsys):
        assert main(["axioms", "--hypergroup", "chebyshev", "--bound", "6"]) == 0
        assert "result: OK" in capsys.readouterr().out

    def test_axioms_fail_on_bad_table(self, tmp_path, capsys):
        spec = {
            "kind": "finite",
            "size": 2,
            "identity": 0,
            "table": [
                [0, 0, [[0, 1.0]]],
                [0, 1, [[1, 1.0]]],
                [1, 1, [[0, 0.4], [1, 0.5]]],
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["axioms", "--hypergroup", str(path)]) == 1
        out = capsys.readouterr().out
        assert "normalization" in out and "FAIL" in out

    def test_missing_file_is_usage_error(self):
        assert main(["axioms", "--hypergroup", "/nonexistent/hg.json"]) == 2

    def test_exponentials(self, capsys):
        assert main(["exponentials", "--hypergroup", "dtheta:0.3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["meta"]["count"] == 2

    def test_verify_moments_realline(self):
        args = [
            "verify-moments",
            "--hypergroup",
            "realline",
            "--family",
            '{"family": "realline-moment", "lambda": 0.7}',
            "--order",
            "4",
        ]
        assert main(args) == 0

    def test_verify_moments_chebyshev(self):
        args = [
            "verify-moments",
            "--hypergroup",
            "chebyshev",
            "--family",
            '{"family": "polynomial-derivative", "z": 0.3}',
            "--order",
            "3",
            "--bound",
            "8",
        ]
        assert main(args) == 0

    def test_verify_moments_perturbed_family_fails(self):
        family = {
            "rank": 1,
            "order": 1,
            "entries": [
                [[0], {"kind": "constant", "value": 1}],
                [[1], {"kind": "table", "values": [[0, 0.0], [1, 1.0], [2, 0.0], [3, 0.0], [4, 0.0], [5, 0.0], [6, 0.0], [7, 0.0], [8, 0.0], [9, 0.0], [10, 0.0], [11, 0.0], [12, 0.0], [13, 0.0], [14, 0.0], [15, 0.0], [16, 0.0]]}],
            ],
        }
        args = [
            "verify-moments",
            "--hypergroup",
            "chebyshev",
            "--family",
            json.dumps(family),
            "--order",
            "1",
            "--bound",
            "4",
        ]
        assert main(args) == 1

    def test_verify_moments_with_explicit_pairs(self, tmp_path):
        pairs = [[0.5, 1.0], [-0.25, 0.75], [1.5, -1.0]]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(pairs))
        args = [
            "verify-moments",
            "--hypergroup",
            "realline",
            "--family",
            '{"family": "realline-moment", "lambda": 0.3}',
            "--order",
            "2",
            "--pairs",
            str(path),
        ]
        assert main(args) == 0

    def test_leibniz_with_explicit_samples(self, tmp_path):
        samples = [
            [[[1, [1.0, 0.0]]], [[2, [0.0, 1.0]]]],
            [[[0, [0.5, 0.0]], [3, [1.0, 0.0]]], [[1, [1.0, 0.0]]]],
        ]
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(samples))
        args = [
            "leibniz",
            "--hypergroup",
            "chebyshev",
            "--family",
            '{"family": "polynomial-derivative", "z": 0.3}',
            "--order",
            "2",
            "--samples",
            str(path),
        ]
        assert main(args) == 0

    def test_leibniz_families(self):
        base = [
            "leibniz",
            "--hypergroup",
            "chebyshev",
            "--family",
            '{"family": "polynomial-derivative", "z": 0.3}',
            "--order",
            "3",
            "--bound",
            "5",
        ]
        assert main(base) == 0
        assert main(base + ["--rank", "2", "--order", "2"]) == 0

    def test_leibniz_non_moment_family_fails(self):
        family = {
            "rank": 1,
            "order": 1,
            "entries": [
                [[0], {"kind": "constant", "value": 1}],
                [[1], {"kind": "table", "values": [[n, float(n) ** 3] for n in range(17)]}],
            ],
        }
        args = [
            "leibniz",
            "--hypergroup",
            "chebyshev",
            "--family",
            json.dumps(family),
            "--order",
            "1",
            "--bound",
            "4",
        ]
        assert main(args) == 1

    def test_search_moments_trivial(self, capsys):
        for phi0 in ("m0", "m1"):
            code = main(
                [
                    "search-moments",
                    "--hypergroup",
                    "dtheta:0.5",
                    "--phi0",
                    phi0,
                    "--alpha",
                    "1",
                    "--format",
                    "json",
                ]
            )
            assert code == 0
            data = json.loads(capsys.readouterr().out)
            assert data["meta"]["trivial"] is True

    def test_search_moments_rank_two_alpha(self, capsys):
        code = main(
            [
                "search-moments",
                "--hypergroup",
                "dtheta:0.3",
                "--phi0",
                "m0",
                "--alpha",
                "1,1",
                "--format",
                "json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["meta"]["trivial"] is True
        assert len(data["records"]) == 3  # (0,1), (1,0), (1,1)

    def test_tolerance_override(self, tmp_path):
        spec = {
            "kind": "finite",
            "size": 2,
            "identity": 0,
            "table": [
                [0, 0, [[0, 1.0]]],
                [0, 1, [[1, 1.0]]],
                [1, 1, [[0, 0.4], [1, 0.5]]],
            ],
        }
        path = tmp_path / "slack.json"
        path.write_text(json.dumps(spec))
        assert main(["axioms", "--hypergroup", str(path)]) == 1
        assert main(["axioms", "--hypergroup", str(path), "--tol", "0.2"]) == 0

    def test_search_moments_bad_phi0(self, capsys):
        code = main(
            [
                "search-moments",
                "--hypergroup",
                "dtheta:0.5",
                "--phi0",
                '{"kind": "table", "values": [[0, 1.0], [1, 0.5]]}',
                "--alpha",
                "1",
            ]
        )
        assert code == 1

    def test_transform_pretty_and_taylor(self, capsys):
        assert main(["transform", "--hypergroup", "chebyshev", "--measure", "[[2, 1]]"]) == 0
        out = capsys.readouterr().out
        assert "-1 + 2*z^2" in out
        assert (
            main(["transform", "--hypergroup", "chebyshev", "--measure", "[[2, 1]]", "--taylor"])
            == 0
        )

    def test_transform_with_derivative_checks(self, capsys):
        args = [
            "transform",
            "--hypergroup",
            "chebyshev",
            "--measure",
            "[[1, 1], [2, 1]]",
            "--z",
            "0.5",
            "--k",
            "2",
            "--format",
            "json",
        ]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["meta"]["value"] == [0.0, 0.0]  # 2(0.25) + 0.5 - 1
        names = [r["name"] for r in data["records"]]
        assert "derivative-identity k=2" in names

    def test_transform_realline_domain_error(self, capsys):
        code = main(
            ["transform", "--hypergroup", "realline", "--measure", "[[1.5, 1]]", "--z", "0.5"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_realline_sum_past_the_floats_is_refused_without_warnings(self, capsys):
        # 1e308 + 1e308 overflows; NumPy once printed two RuntimeWarning blocks before the error
        argv = ["leibniz", "--hypergroup", "realline", "--family", LINE_FAMILY, "--order", "1",
                "--samples", "[[[[1e308, 1]], [[1e308, 1]]]]"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == "error: point inf is not finite\n"

    @pytest.mark.parametrize("command", [["exponentials"], ["search-moments", "--phi0", "m0", "--alpha", "1"]])
    def test_no_exponential_candidate_exits_1(self, command, capsys):
        # every pair of this table convolves to d0, so its first joint eigenvector vanishes at the identity
        spec = json.dumps({"kind": "finite", "size": 2, "identity": 0,
                           "table": [[x, y, [[0, 1.0]]] for x in range(2) for y in range(2)]})
        assert main([command[0], "--hypergroup", spec, *command[1:]]) == 1
        assert capsys.readouterr().err == "error: joint eigenvector vanishes at the identity\n"

    def test_precondition_names_the_failing_record_without_warnings(self, capsys):
        # P_n(1e300) overflows in the products of the multiplicativity check: that record fails on its
        # NaN cases, while normalization at the identity passes
        family = '{"family": "polynomial-derivative", "z": 1e300}'
        assert main(["leibniz", "--hypergroup", "chebyshev", "--family", family]) == 1
        assert capsys.readouterr().err == (
            "precondition failed: phi_0 is not an exponential (residual 0.000e+00 on multiplicativity-on-pairs)\n")

    def test_unknown_command_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["axioms", "--hypergroup", '{"kind":"polynomial","a0":"x","coeffs":"chebyshev"}'],
            ["verify-moments", "--hypergroup", "chebyshev", "--family", '{"rank":1,"order":1,"entries":[1,2]}'],
            ["verify-moments", "--hypergroup", "chebyshev", "--family",
             '{"rank":1,"order":0,"entries":[[[0],{"kind":"moment","k":"a"}]]}'],
            ["search-moments", "--hypergroup", "dtheta:0.5", "--phi0", '{"kind":"moment","k":"a"}', "--alpha", "1"],
            ["search-moments", "--hypergroup", "dtheta:0.5", "--phi0", '{"kind":"exponential","index":"q"}',
             "--alpha", "1"],
        ],
        ids=["polynomial-a0", "family-entry", "moment-k-in-family", "moment-k-as-phi0", "exponential-index"],
    )
    def test_malformed_number_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv,start,message",
        [
            (["leibniz", "--hypergroup", "chebyshev", "--family", POLY_FAMILY, "--count", "0"],
             "usage: hypermoment", "error: argument --count: must be at least 1"),
            (["verify-moments", "--hypergroup", "realline", "--family", LINE_FAMILY, "--count", "0"],
             "usage: hypermoment", "error: argument --count: must be at least 1"),
            (["verify-moments", "--hypergroup", "realline", "--family", LINE_FAMILY, "--count", "-3"],
             "usage: hypermoment", "error: argument --count: must be at least 1"),
            (["verify-moments", "--hypergroup", "chebyshev", "--family", POLY_FAMILY, "--pairs", "[]"],
             "error:", "pairs literal must be a nonempty list"),
            (["leibniz", "--hypergroup", "chebyshev", "--family", POLY_FAMILY, "--samples", "[]"],
             "error:", "samples literal must be a nonempty list"),
            (["verify-moments", "--hypergroup", "chebyshev", "--family", POLY_FAMILY, "--bound", "-1"],
             "usage: hypermoment", "error: argument --bound: must be nonnegative, got -1"),
            (["leibniz", "--hypergroup", "realline", "--family", LINE_FAMILY, "--bound", "-1"],
             "usage: hypermoment", "error: argument --bound: must be nonnegative, got -1"),
            (["axioms", "--hypergroup", "chebyshev", "--bound", "0"], "error:", "sample_bound must be >= 1"),
            (["transform", "--hypergroup", "chebyshev", "--measure", "[[3,1]]", "--z", "0.5", "--k", "-1"],
             "usage: hypermoment", "error: argument --k: must be nonnegative, got -1"),
            (["verify-moments", "--hypergroup", "chebyshev", "--family", POLY_FAMILY, "--rank", "0", "--bound", "2"],
             "usage: hypermoment", "error: argument --rank: must be at least 1, got 0"),
            (["verify-moments", "--hypergroup", "chebyshev", "--family", POLY_FAMILY, "--rank", "-3", "--bound", "2"],
             "usage: hypermoment", "error: argument --rank: must be at least 1, got -3"),
            (["leibniz", "--hypergroup", "chebyshev", "--family", POLY_FAMILY, "--rank", "0"],
             "usage: hypermoment", "error: argument --rank: must be at least 1, got 0"),
        ],
        ids=["leibniz-zero", "verify-moments-zero", "verify-moments-negative", "verify-moments-empty-pairs",
             "leibniz-empty-samples", "verify-moments-negative-bound", "leibniz-negative-bound", "axioms-bound-zero",
             "transform-negative-k", "verify-moments-rank-zero", "verify-moments-negative-rank", "leibniz-rank-zero"],
    )
    def test_count_below_one_is_usage_error(self, argv, start, message, capsys):
        # an empty sample once raised an uncaught ValueError (exit 1) or passed on zero measures (exit 0);
        # bound 0 is a valid sample for the other subcommands, so check_axioms refuses it itself
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(start) and message in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "--hypergroup", "chebyshev", "--measure", "[[3,1]]", "--z", "0.5"],
            ["verify-moments", "--hypergroup", "chebyshev", "--family", POLY_FAMILY, "--order", "2", "--bound", "3"],
        ],
        ids=["transform", "verify-moments"],
    )
    def test_tolerance_outside_the_reals_is_usage_error(self, argv, value, capsys):
        # under --tol nan the transform check passed (exit 0) while the moment identities failed (exit 1)
        assert main(argv + [f"--tol={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hypermoment") and "error: argument --tol: tolerance must be finite" in err

    def test_tolerance_zero_still_runs(self, capsys):
        argv = ["transform", "--hypergroup", "chebyshev", "--measure", "[[3,1]]", "--z", "0.5", "--tol", "0"]
        assert main(argv + ["--format", "json"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["meta"]["tolerance"] == 0.0

    @pytest.mark.parametrize("rel,abs_floor", [(math.nan, 1e-12), (math.inf, 1e-12), (-1e-9, 1e-12), (1e-9, math.nan),
                                               (1e-9, -1e-12), (1e-9, math.inf)])
    def test_tolerance_refuses_values_outside_the_reals(self, rel, abs_floor):
        with pytest.raises(DomainError, match="tolerance must be finite and nonnegative"):
            Tolerance(rel=rel, abs_floor=abs_floor)


class TestTextEpilogue:
    @pytest.mark.parametrize(
        "argv,hypergroup",
        [
            (["axioms", "--hypergroup", "chebyshev", "--bound", "3"], "polynomial(chebyshev)"),
            (["exponentials", "--hypergroup", "dtheta:0.5"], "finite(size=2, identity=0)"),
            (["verify-moments", "--hypergroup", "realline", "--family", LINE_FAMILY, "--order", "2", "--count", "5"],
             "realline"),
            (["leibniz", "--hypergroup", "chebyshev", "--family", POLY_FAMILY, "--order", "2", "--bound", "3",
              "--count", "3"], "polynomial(chebyshev)"),
            (["search-moments", "--hypergroup", "dtheta:0.5", "--phi0", "m1", "--alpha", "2"],
             "finite(size=2, identity=0)"),
            (["transform", "--hypergroup", "chebyshev", "--measure", "[[2,1]]", "--taylor"], "polynomial(chebyshev)"),
        ],
        ids=["axioms", "exponentials", "verify-moments", "leibniz", "search-moments", "transform"],
    )
    def test_summary_carries_run_meta(self, argv, hypergroup, capsys):
        assert main(argv + ["--format", "text", "--seed", "3", "--tol", "1e-8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# ") and lines[-1] == "result: OK"
        meta = lines[1:lines.index(next(line for line in lines if line.startswith("[")))]
        for line in (f"  command = {argv[0]}", f"  hypergroup = {hypergroup}", "  seed = 3", "  tolerance = 1e-08"):
            assert meta.count(line) == 1, line
        assert meta == sorted(meta)


class TestDeterminism:
    def test_reports_byte_identical_for_fixed_seed(self, capsys):
        args = [
            "leibniz",
            "--hypergroup",
            "chebyshev",
            "--family",
            '{"family": "polynomial-derivative", "z": 0.3}',
            "--order",
            "2",
            "--bound",
            "5",
            "--seed",
            "42",
            "--format",
            "json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_different_seed_changes_samples(self, capsys):
        base = [
            "leibniz",
            "--hypergroup",
            "chebyshev",
            "--family",
            '{"family": "polynomial-derivative", "z": 0.3}',
            "--order",
            "1",
            "--bound",
            "5",
            "--format",
            "json",
        ]
        main(base + ["--seed", "1"])
        one = capsys.readouterr().out
        main(base + ["--seed", "2"])
        two = capsys.readouterr().out
        assert json.loads(one)["passed"] and json.loads(two)["passed"]
