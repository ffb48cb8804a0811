#!/usr/bin/env python3
"""Time the large inputs: axiom checks at high bounds, deep and wide linearizations
(one pair, 400 pairs on deep columns, the legendre 251 x 251 grid),
Leibniz checks on convolutions of high degree (families of 10 and of 21
multi-indices), the two operator checks of an order-1 chebyshev family on 40
pairs of 4-point measures (mult40, d0deriv40), the Leibniz check of a rank-2
real-line family on 40 pairs of 6-point measures, some holding -0.0 (lineleib,
the one large Leibniz case whose points are floats), a moment identity on 4,096
pairs checked cold and warm, a real-line moment identity on 14,641 pairs, a
transform of degree 200, its Taylor check at degree 150, the axiom check of
the cyclic group Z_128, the exponentials of the cyclic groups Z_64 and Z_256,
the moment extensions of Z_160 to order 2, and 100 fresh axiom checks each of
chebyshev at bound 16 and of a recurrence whose linearization goes negative,
at bound 12, as the axioms-cold workload of `perfbench/run.py` runs them.

Each case runs in a fresh interpreter and prints one JSON line: its name, the
seconds the call took (`time.perf_counter`, import excluded, to the
microsecond; mult40, d0deriv40 and lineleib make their operators and samples
before the clock starts, so they time the check alone), the peak resident
memory of the interpreter (`ru_maxrss`, MB), its minor page faults
(`ru_minflt`, import and set-up included) and the outcome: "ok", "fail" for a check that fails, or the
message of the DomainError raised, up to its first ";"; `lin_tables`, the
number of linearization runs the timed call made (calls of
`PolynomialHypergroup._lin_table`); `column_steps`, the recurrence work of
those runs: per call, its distinct columns times its top step plus one; and
`upto_calls`, the reads of derivative rows the timed call made (calls of
`DerivativeRun.upto`, one per point a polynomial-derivative table reads).

    python scripts/large_inputs.py               # every case, in the order below
    python scripts/large_inputs.py lin1200 cheb80 leib120 leib21 mult40 d0deriv40 lineleib moments64 line121
    python scripts/large_inputs.py transform200 taylor150 expo64 search160
    python scripts/large_inputs.py cold16 dip12

With `hypermoment` not installed, put `src` on PYTHONPATH.

With `--against OTHER_CHECKOUT`, each case runs `--runs` times (default 5) in
fresh interpreters against this checkout's `src/` and against OTHER's, the
tree that goes first alternating from run to run; each run checks that it
imported the intended tree.  One JSON line per case gives, under "this" and
"other", the tree, every run's seconds, rss_mb and minflt, their medians, the
outcome, lin_tables, column_steps and upto_calls:

    python scripts/large_inputs.py --against ../parent --runs 5 cheb80 leg120
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hypermoment
from hypermoment import (
    DomainError, FiniteHypergroup, Measure, PolynomialHypergroup, check_axioms, chebyshev, derivation_from_moments,
    is_multiplicative_hom, legendre, poly_derivative_moments, rank_lift, real_line, realline_moments,
    verify_d0_derivation, verify_fourier_leibniz, verify_leibniz, verify_moment_sequence,
)
from hypermoment.cli import main as cli_main
from hypermoment.hypergroups import DerivativeRun

ROOT = Path(__file__).resolve().parent.parent


def leibniz120(order: int = 3) -> bool:
    """Both Leibniz checks of a rank-2 chebyshev family of `order` (10 multi-indices at 3,
    21 at 5) on 12 cyclic pairs of 8-point measures in 0..60, so the convolutions reach
    degree 120; True when both pass."""
    hg, rng = chebyshev(), random.Random(120)
    family = derivation_from_moments(rank_lift(poly_derivative_moments(hg, 0.3, order), [1, 0.5j]))
    ms = [
        Measure.from_items(hg, [(n, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for n in rng.sample(range(61), 8)])
        for _ in range(12)
    ]
    samples = [(ms[i], ms[(i + 1) % 12]) for i in range(12)]
    return verify_leibniz(family, samples).passed and verify_fourier_leibniz(family, samples).passed


def operator_samples() -> tuple:
    """D_0 and D_1 of the order-1 chebyshev family at 0.3+0.2i (its moment identity not checked) and
    40 cyclic pairs of 4-point measures in 0..19, their weights drawn from seed 40."""
    hg, rng = chebyshev(), random.Random(40)
    family = derivation_from_moments(poly_derivative_moments(hg, 0.3 + 0.2j, 1), skip_verification=True)
    ms = [
        Measure.from_items(hg, [(n, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for n in rng.sample(range(20), 4)])
        for _ in range(40)
    ]
    return family.op((0,)), family.op((1,)), [(ms[i], ms[(i + 1) % 40]) for i in range(40)]


def line_samples() -> tuple:
    """The rank-2 real-line family of order 3 at 0.3-0.2i (10 multi-indices, its moment identity not checked)
    and 40 cyclic pairs of 6-point measures on the points 0.25 j, 0 < |j| <= 40, every third with -0.0 in
    place of one point, their points and weights drawn from seed 41."""
    rng, hg = random.Random(41), real_line()
    family = derivation_from_moments(rank_lift(realline_moments(0.3 - 0.2j, 3, hg), [1, 0.5j]), skip_verification=True)
    points = [0.25 * j for j in range(-40, 41) if j]
    ms = [
        Measure.from_items(hg, [(-0.0 if i % 3 == 0 and k == 0 else x, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                                for k, x in enumerate(rng.sample(points, 6))])
        for i in range(40)
    ]
    return family, [(ms[i], ms[(i + 1) % 40]) for i in range(40)]


def moments64() -> bool:
    """`verify_moment_sequence` of a rank-2 chebyshev family of order 3 on the 64 x 64 grid of
    points 0..63, twice on one carrier: cold, then on the pair table the carrier kept; True
    when both pass."""
    seq = rank_lift(poly_derivative_moments(chebyshev(), 0.3, 3), [1, 0.5j])
    return all([verify_moment_sequence(seq, [(x, y) for x in range(64) for y in range(64)]).passed for _ in range(2)])


def line121() -> bool:
    """`verify_moment_sequence` of a rank-2 real-line family of order 5 (21 multi-indices) on the
    121 x 121 grid of points 0.25 j, |j| <= 60; True when it passes."""
    seq = rank_lift(realline_moments(0.3 - 0.2j, 5), [1, 0.5j])
    points = [0.25 * j for j in range(-60, 61)]
    return verify_moment_sequence(seq, [(x, y) for x in points for y in points]).passed


def transform200() -> bool:
    """`transform` of 0.5 P_3 + P_200 on legendre with derivatives up to order 3 at
    z = 0.9, its report discarded; True when it exits 0."""
    argv = ["transform", "--hypergroup", "legendre", "--measure", "[[3,0.5],[200,1]]", "--z", "0.9", "--k", "3"]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv) == 0


def taylor150() -> bool:
    """`transform --taylor` of P_0 + 0.5i P_70 + 0.25 P_150 on chebyshev, its report
    discarded; True when it exits 0."""
    argv = ["transform", "--hypergroup", "chebyshev", "--measure", "[[0,1],[70,[0,0.5]],[150,0.25]]", "--taylor"]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv) == 0


def dip12() -> bool:
    """100 fresh `check_axioms` at bound 12 of the chebyshev rows with row 5 replaced by (0.3, 0, 0.7), whose
    linearization goes negative; False when every check fails, as each should."""
    rows = [(0.5, 0.0, 0.5)] * 4 + [(0.3, 0.0, 0.7)] + [(0.5, 0.0, 0.5)] * 21
    return any(check_axioms(PolynomialHypergroup(1.0, 0.0, rows), 12).passed for _ in range(100))


def cyclic_table(n: int) -> list:
    """The convolution table of the cyclic group Z_n, as the finite spec lists it."""
    return [[a, b, [[(a + b) % n, 1.0]]] for a in range(n) for b in range(n)]


def cyclic_cli(n: int, *args: str) -> bool:
    """A CLI subcommand on the cyclic group Z_n, its spec written to a temporary file and its
    report discarded; True when it exits 0.  A refusal (exit 2) raises its message."""
    table = cyclic_table(n)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        spec = Path(tmp) / f"Z{n}.json"
        spec.write_text(json.dumps({"kind": "finite", "size": n, "identity": 0, "table": table}))
        code = cli_main([args[0], "--hypergroup", str(spec), *args[1:]])
    if code == 2:
        raise DomainError(err.getvalue().strip())
    return code == 0


CASES = {
    "cheb40": lambda: check_axioms(chebyshev(), 40),
    "cheb80": lambda: check_axioms(chebyshev(), 80),
    "cheb200": lambda: check_axioms(chebyshev(), 200),
    "leg120": lambda: check_axioms(legendre(), 120),
    "leg200": lambda: check_axioms(legendre(), 200),
    "line200": lambda: check_axioms(real_line(), 200),
    "line1000": lambda: check_axioms(real_line(), 1000),
    "axZ128": lambda: check_axioms(FiniteHypergroup(128, 0, cyclic_table(128))),  # associativity on 128^3 cases
    "cold16": lambda: all(check_axioms(chebyshev(), 16).passed for _ in range(100)),  # each on a fresh carrier
    "dip12": dip12,
    "lin1200": lambda: chebyshev().linearization(1200, 3),
    "lin3x1200": lambda: chebyshev().linearization(3, 1200),
    "lin5000": lambda: chebyshev().linearization(5000, 5000),
    "lin1x9m": lambda: chebyshev().linearization(1, 9_000_000),
    "wide400": lambda: chebyshev().pair_supports([(1, n) for n in range(20000, 20400)]),  # 400 deep columns
    "leggrid250": lambda: legendre().pair_supports([(x, y) for x in range(251) for y in range(251)]),
    "leib120": leibniz120,
    "leib21": lambda: leibniz120(5),  # the leib120 samples under a family of 21 multi-indices
    "mult40": lambda d0, d1, samples: is_multiplicative_hom(d0, samples).passed,  # on operator_samples()
    "d0deriv40": lambda d0, d1, samples: verify_d0_derivation(d0, d1, samples).passed,
    "lineleib": lambda family, samples: verify_leibniz(family, samples).passed,  # on line_samples()
    "moments64": moments64,
    "line121": line121,
    "transform200": transform200,
    "taylor150": taylor150,
    "expo64": lambda: cyclic_cli(64, "exponentials"),  # 64 exponentials judged on 4,096 pairs
    "expo256": lambda: cyclic_cli(256, "exponentials"),  # 256 on 65,536 pairs
    "search160": lambda: cyclic_cli(160, "search-moments", "--phi0", "m1", "--alpha", "2"),
}

# the inputs a case is called with, made before its clock starts
SETUP = {"mult40": operator_samples, "d0deriv40": operator_samples, "lineleib": line_samples}


def run(name: str) -> dict:
    """One case in this interpreter."""
    made = SETUP[name]() if name in SETUP else ()
    tables, reads, build, upto = [], [], PolynomialHypergroup._lin_table, DerivativeRun.upto

    def counted(hg, ms, ns, bound):
        tables.append(len(set(ns.tolist())) * (int(ms.max()) + 1))
        return build(hg, ms, ns, bound)

    def read(derivative_run, top):
        reads.append(top)
        return upto(derivative_run, top)

    PolynomialHypergroup._lin_table, DerivativeRun.upto = counted, read
    start = time.perf_counter()
    try:
        outcome = "fail" if CASES[name](*made) is False else "ok"
    except DomainError as exc:
        outcome = str(exc).split(";")[0]
    seconds = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"case": name, "seconds": round(seconds, 6), "rss_mb": round(usage.ru_maxrss / 1024, 1),  # KB on Linux
            "minflt": usage.ru_minflt, "outcome": outcome, "lin_tables": len(tables), "column_steps": sum(tables),
            "upto_calls": len(reads)}


def fresh(name: str, tree: Path) -> dict:
    """`run(name)` in a fresh interpreter with `tree/src` first on the path."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__, "--in-process", name, str(tree)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    if done.returncode != 0:
        raise SystemExit(f"{name} against {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(name: str, other: Path, runs: int) -> dict:
    """`runs` fresh runs of `name` on this checkout and on `other`, alternating which goes first."""
    trees = {"this": ROOT, "other": other}
    results: dict[str, list[dict]] = {label: [] for label in trees}
    for i in range(runs):
        for label in list(trees)[:: 1 if i % 2 == 0 else -1]:
            results[label].append(fresh(name, trees[label]))
    line: dict = {"case": name}
    for label, got in results.items():
        seconds, rss, faults = [r["seconds"] for r in got], [r["rss_mb"] for r in got], [r["minflt"] for r in got]
        outcomes, tables = {r["outcome"] for r in got}, {r["lin_tables"] for r in got}
        steps, reads = {r["column_steps"] for r in got}, {r["upto_calls"] for r in got}
        line[label] = {
            "tree": str(trees[label]), "seconds": seconds, "rss_mb": rss, "minflt": faults,
            "median_seconds": round(statistics.median(seconds), 6), "median_rss_mb": round(statistics.median(rss), 2),
            "median_minflt": statistics.median(faults),
            "outcome": outcomes.pop() if len(outcomes) == 1 else sorted(outcomes),
            "lin_tables": tables.pop() if len(tables) == 1 else sorted(tables),
            "column_steps": steps.pop() if len(steps) == 1 else sorted(steps),
            "upto_calls": reads.pop() if len(reads) == 1 else sorted(reads),
        }
    return line


def positive(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--in-process"]:
        tree = Path(argv[2]).resolve() if len(argv) > 2 else None
        if tree and Path(hypermoment.__file__).resolve().parent != tree / "src" / "hypermoment":
            raise SystemExit(f"imported hypermoment from {hypermoment.__file__}, not from {tree}")
        print(json.dumps(run(argv[1])), flush=True)
        return 0
    parser = argparse.ArgumentParser(description="Time the large inputs in fresh interpreters.")
    parser.add_argument("cases", nargs="*", metavar="CASE", help="cases to run (default: all)")
    parser.add_argument("--against", type=Path, metavar="OTHER_CHECKOUT", help="compare with this checkout")
    parser.add_argument("--runs", type=positive, default=5, help="runs per case and tree with --against")
    args = parser.parse_args(argv)
    unknown = [name for name in args.cases if name not in CASES]
    if unknown:
        print(f"unknown cases {unknown}; choose from {list(CASES)}", file=sys.stderr)
        return 2
    if args.against is not None and not (args.against / "src" / "hypermoment").is_dir():
        print("--against needs a checkout (a directory with src/hypermoment)", file=sys.stderr)
        return 2
    for name in args.cases or CASES:
        if args.against is None:
            subprocess.run([sys.executable, __file__, "--in-process", name], check=True)
        else:
            print(json.dumps(compare(name, args.against.resolve(), args.runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
