"""Batch command-line interface.

Subcommands: axioms | verify-moments | leibniz | search-moments | transform |
exponentials.  Exit codes: 0 all checks pass, 1 a mathematical check failed,
2 usage or specification error.  Sampling is seeded, so reports with the same
seed are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Callable

import numpy as np

from .config import Tolerance, default_tolerance
from .errors import DomainError, HypermomentError, PreconditionError, SpecError
from .fourier import (
    check_derivative_identity, derivative_moments, taylor_reconstruct, transform, verify_fourier_leibniz,
)
from .hypergroups import (
    FiniteHypergroup, Hypergroup, PolynomialHypergroup, RealLineHypergroup, _exponentials, check_axioms,
)
from .io import (
    family_from_literal, load_hypergroup, measure_from_literal, pairs_from_literal, resolve_phi0, samples_from_literal,
)
from .measures import Measure, Point, complex_abs
from .moments import (
    MomentSequence, _default_pairs, derivation_from_moments, iterated_extension, rank_lift, verify_leibniz,
    verify_moment_sequence,
)
from .reports import Report


def count(text: str) -> int:
    """A sample count or a family rank: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {int(text)}")
    return int(text)


def bound(text: str) -> int:
    """A sampling bound or a derivative order: a nonnegative integer (`check_axioms` refuses bound 0 itself)."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {int(text)}")
    return int(text)


def _meta(args: argparse.Namespace, hg: Hypergroup, command: str) -> dict:
    return {
        "command": command,
        "hypergroup": hg.describe(),
        "seed": args.seed,
        "tolerance": args.tol.rel,
    }


def _sample_pairs(hg: Hypergroup, args: argparse.Namespace) -> list[tuple[Point, Point]]:
    if isinstance(hg, RealLineHypergroup):
        rng = random.Random(args.seed)
        return [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(args.count)]
    return _default_pairs(hg, args.bound)


def _sample_measures(hg: Hypergroup, args: argparse.Namespace) -> list[Measure]:
    rng = random.Random(args.seed + 1)
    if isinstance(hg, RealLineHypergroup):
        pts = hg.sample_points(2 * args.bound)
    else:
        pts = hg.sample_points(args.bound)
    out = []
    for _ in range(args.count):
        support = rng.sample(pts, k=min(2, len(pts)))
        out.append(
            Measure.from_items(
                hg, [(x, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for x in support]
            )
        )
    return out


def _load_family(hg: Hypergroup, args: argparse.Namespace) -> MomentSequence:
    seq = family_from_literal(hg, args.family, order=args.order)
    if args.rank > seq.rank:
        if seq.rank != 1:
            raise SpecError("--rank can only lift rank-1 families")
        weights = [complex(2.0 ** (-i)) for i in range(args.rank)]
        seq = rank_lift(seq, weights)
    return seq


def cmd_axioms(args: argparse.Namespace, hg: Hypergroup) -> Report:
    return check_axioms(hg, sample_bound=args.bound, tol=args.tol)


def cmd_exponentials(args: argparse.Namespace, hg: Hypergroup) -> Report:
    if not isinstance(hg, FiniteHypergroup):
        raise SpecError("exponential enumeration needs a finite hypergroup")
    expos = _exponentials(hg, tol=args.tol)  # each re-verified on the n^2 pairs, with its worst residual/scale
    report = Report(title="exponentials", meta={"count": len(expos)})
    for i, (m, worst) in enumerate(expos):
        values = {str(x): [v.real, v.imag] for x, v in enumerate(map(m, range(hg.size)))}
        report.check(f"m{i}", "m(o) = 1 and <dx*dy, m> = m(x) m(y)", max(abs(m(hg.identity) - 1.0), worst), 1.0,
                     args.tol, lambda: values, detail=str(values))
    return report


def cmd_verify_moments(args: argparse.Namespace, hg: Hypergroup) -> Report:
    seq = _load_family(hg, args)
    pairs = pairs_from_literal(hg, args.pairs) if args.pairs else _sample_pairs(hg, args)
    return verify_moment_sequence(seq, pairs, tol=args.tol)


def cmd_leibniz(args: argparse.Namespace, hg: Hypergroup) -> Report:
    seq = _load_family(hg, args)
    if args.samples:
        samples = samples_from_literal(hg, args.samples)
    else:
        measures = _sample_measures(hg, args)
        samples = [(measures[i], measures[(i + 1) % len(measures)]) for i in range(len(measures))]
    family = derivation_from_moments(seq, tol=args.tol)
    report = verify_leibniz(family, samples, tol=args.tol)
    if isinstance(hg, PolynomialHypergroup):
        report.extend(verify_fourier_leibniz(family, samples, tol=args.tol), prefix="transform: ")
    return report


def cmd_search_moments(args: argparse.Namespace, hg: Hypergroup) -> Report:
    if not isinstance(hg, FiniteHypergroup):
        raise SpecError("search-moments needs a finite hypergroup")
    try:
        alpha = tuple(int(a) for a in str(args.alpha).split(","))
    except ValueError as exc:
        raise SpecError(f"bad multi-index {args.alpha!r}: {exc}") from exc
    phi0 = resolve_phi0(hg, args.phi0)
    report, _entries = iterated_extension(hg, phi0, alpha, tol=args.tol)
    report.meta["phi0"] = args.phi0
    return report


def cmd_transform(args: argparse.Namespace, hg: Hypergroup) -> Report:
    mu = measure_from_literal(hg, args.measure)
    poly = transform(hg, mu)  # raises DomainError off polynomial carriers
    coefficients = [[c.real, c.imag] for c in poly.coeffs]
    report = Report(title="transform", meta={"coefficients": coefficients, "polynomial": poly.pretty()})
    report.add("transform", "mu^(z) = sum_n mu({n}) P_n(z)", True, detail=poly.pretty())
    if args.z is not None:
        value = check_derivative_identity(report, hg, mu, range(args.k + 1), complex(args.z), args.tol)
        report.meta["value"] = [value.real, value.imag]
    if args.taylor:
        top = max(mu.points, default=0)
        rebuilt = taylor_reconstruct(hg, derivative_moments(hg, mu, top, z=0.0))
        got, want = (np.array(p.coeffs + (0j,) * (top + 1 - len(p.coeffs))) for p in (rebuilt, poly))
        report.add_worst(
            "taylor-reconstruction", "mu^(lam) = sum_k lam^k/k! <D_k mu, 1>", complex_abs(got - want),
            np.maximum(1.0, poly.bounds), args.tol, lambda k: [[c.real, c.imag] for c in rebuilt.coeffs],
            detail=rebuilt.pretty("lam"),
        )
    return report


def tolerance(text: str) -> Tolerance:
    """A relative tolerance: a finite nonnegative float."""
    try:
        return Tolerance(rel=float(text))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hypermoment",
        description="Verification tools for measure algebras on commutative hypergroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hypergroup", required=True, help="preset name or spec file path")
    common.add_argument("--tol", type=tolerance, default=None, help="relative tolerance override")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--bound", type=bound, default=8, help="index/coordinate bound for sampling")
    common.add_argument("--order", type=int, default=4, help="truncation order N")
    common.add_argument("--rank", type=count, default=1, help="family rank (lifts rank-1 families)")

    def command(name: str, fn: Callable[..., Report], summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(fn=fn)
        return p

    command("axioms", cmd_axioms, "check the hypergroup axioms")
    command("exponentials", cmd_exponentials, "enumerate exponentials of a finite hypergroup")

    p = command("verify-moments", cmd_verify_moments, "verify a moment function sequence")
    p.add_argument("--family", required=True, help="family literal (inline JSON or path)")
    p.add_argument("--pairs", default=None, help="point pairs literal (inline JSON or path)")
    p.add_argument("--count", type=count, default=50, help="sampled pair count (real line)")

    p = command("leibniz", cmd_leibniz, "verify the generalized Leibniz rule")
    p.add_argument("--family", required=True)
    p.add_argument("--samples", default=None, help="measure sample pairs (inline JSON or path)")
    p.add_argument("--count", type=count, default=12, help="sampled measure count")

    p = command("search-moments", cmd_search_moments, "solve for moment extensions of phi_0")
    p.add_argument("--phi0", required=True, help="'m<i>' or a function literal")
    p.add_argument("--alpha", required=True, help="target multi-index, e.g. '3' or '1,1'")

    p = command("transform", cmd_transform, "transform a measure; optionally check identities")
    p.add_argument("--measure", required=True, help="measure literal (inline JSON or path)")
    p.add_argument("--z", type=complex, default=None, help="evaluate and check derivatives at z")
    p.add_argument("--k", type=bound, default=2, help="max derivative order checked with --z")
    p.add_argument("--taylor", action="store_true", help="check the Taylor reconstruction")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.tol = args.tol or default_tolerance()
    try:
        hg = load_hypergroup(args.hypergroup)
        report = args.fn(args, hg)
    except (SpecError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    except HypermomentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.meta.update(_meta(args, hg, args.command))
    print(report.to_json() if args.format == "json" else report.summary())
    return 0 if report.passed else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
