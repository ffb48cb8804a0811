#!/usr/bin/env python3
"""Time the large inputs: axiom checks at high bounds, deep linearizations,
Leibniz checks on convolutions of high degree, a transform of degree 200, its
Taylor check at degree 150 and the exponentials of the cyclic group Z_64.

Each case runs in a fresh interpreter and prints one JSON line: its name, the
seconds the call took (`time.perf_counter`, import excluded), the peak
resident memory of the interpreter (`ru_maxrss`, MB) and the outcome: "ok",
"fail" for a check that fails, or the message of the DomainError raised, up to
its first ";"; and `lin_tables`, the number of linearization tables the case
built (calls of `PolynomialHypergroup._lin_table`).

    python scripts/large_inputs.py               # every case, in the order below
    python scripts/large_inputs.py lin1200 cheb80 leib120 transform200 taylor150 expo64

With `hypermoment` not installed, put `src` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hypermoment import (
    DomainError, Measure, PolynomialHypergroup, check_axioms, chebyshev, derivation_from_moments, legendre,
    poly_derivative_moments, rank_lift, real_line, verify_fourier_leibniz, verify_leibniz,
)
from hypermoment.cli import main as cli_main


def leibniz120() -> bool:
    """Both Leibniz checks of a rank-2 chebyshev family on 12 cyclic pairs of 8-point
    measures in 0..60, so the convolutions reach degree 120; True when both pass."""
    hg, rng = chebyshev(), random.Random(120)
    family = derivation_from_moments(rank_lift(poly_derivative_moments(hg, 0.3, 3), [1, 0.5j]))
    ms = [
        Measure.from_items(hg, [(n, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for n in rng.sample(range(61), 8)])
        for _ in range(12)
    ]
    samples = [(ms[i], ms[(i + 1) % 12]) for i in range(12)]
    return verify_leibniz(family, samples).passed and verify_fourier_leibniz(family, samples).passed


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


def exponentials64() -> bool:
    """`exponentials` of the cyclic group Z_64, its spec written to a temporary file and
    its report discarded: 64 exponentials judged on 4096 pairs; True when it exits 0."""
    table = [[a, b, [[(a + b) % 64, 1.0]]] for a in range(64) for b in range(64)]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        spec = Path(tmp) / "Z64.json"
        spec.write_text(json.dumps({"kind": "finite", "size": 64, "identity": 0, "table": table}))
        return cli_main(["exponentials", "--hypergroup", str(spec)]) == 0


CASES = {
    "cheb40": lambda: check_axioms(chebyshev(), 40),
    "cheb80": lambda: check_axioms(chebyshev(), 80),
    "cheb200": lambda: check_axioms(chebyshev(), 200),
    "leg120": lambda: check_axioms(legendre(), 120),
    "leg200": lambda: check_axioms(legendre(), 200),
    "line200": lambda: check_axioms(real_line(), 200),
    "line1000": lambda: check_axioms(real_line(), 1000),
    "lin1200": lambda: chebyshev().linearization(1200, 3),
    "lin3x1200": lambda: chebyshev().linearization(3, 1200),
    "lin5000": lambda: chebyshev().linearization(5000, 5000),
    "leib120": leibniz120,
    "transform200": transform200,
    "taylor150": taylor150,
    "expo64": exponentials64,
}


def run(name: str) -> dict:
    """One case in this interpreter."""
    tables, build = [], PolynomialHypergroup._lin_table

    def counted(hg, ms, ns, bound):
        tables.append(len(ms))
        return build(hg, ms, ns, bound)

    PolynomialHypergroup._lin_table = counted
    start = time.perf_counter()
    try:
        outcome = "fail" if CASES[name]() is False else "ok"
    except DomainError as exc:
        outcome = str(exc).split(";")[0]
    seconds = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux
    return {"case": name, "seconds": round(seconds, 3), "rss_mb": round(rss_mb, 1), "outcome": outcome,
            "lin_tables": len(tables)}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--in-process"]:
        print(json.dumps(run(argv[1])), flush=True)
        return 0
    unknown = [name for name in argv if name not in CASES]
    if unknown:
        print(f"unknown cases {unknown}; choose from {list(CASES)}", file=sys.stderr)
        return 2
    for name in argv or CASES:
        subprocess.run([sys.executable, __file__, "--in-process", name], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
