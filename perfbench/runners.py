"""Run one job against the public API or the CLI of hypermoment.

Imported only after the worker has put the checkout's `src/` first on the
path.  Each runner turns the plain job spec into program inputs, calls the
program, and returns an outcome of plain data; the job's timed region is one
runner call.
"""

from __future__ import annotations

import contextlib
import io

import hypermoment as hm
from hypermoment import cli


def verdict(report: hm.Report) -> str:
    """PASS, or FAIL with the first failing record (its alpha, for per-alpha checks)."""
    if report.passed:
        return "PASS"
    name = report.failed_records[0].name
    return "FAIL:" + (name.split("alpha=", 1)[1] if "alpha=" in name else name)


def build_shared(workload: str, plan: dict) -> dict:
    """Carriers shared by every job of the process (moments-warm only)."""
    if workload != "moments-warm":
        return {}
    return {"chebyshev": hm.chebyshev(), "legendre": hm.legendre(), "realline": hm.real_line(),
            "twopoint": hm.two_point(plan["theta"])}


def _carrier(spec: dict):
    kind = spec["carrier"]
    if kind == "chebyshev":
        return hm.chebyshev()
    if kind == "legendre":
        return hm.legendre()
    if kind == "dtheta":
        return hm.two_point(spec["theta"])
    if kind == "rows":
        return hm.PolynomialHypergroup(spec["a0"], spec["b0"], spec["rows"])
    return hm.FiniteHypergroup(spec["size"], 0, spec["table"])


def run_axioms(spec: dict, shared: dict) -> dict:
    hg = _carrier(spec)
    out: dict = {"axioms": verdict(hm.check_axioms(hg, sample_bound=spec["bound"]))}
    if spec.get("exponentials"):
        try:
            found = hm.enumerate_exponentials(hg)
        except hm.DecompositionError as exc:
            out["exponentials"] = "raise:" + type(exc).__name__
        else:
            out["exponentials"] = [[f(x) for x in range(hg.size)] for f in found]
    return out


def _family(fam: dict, hg) -> hm.MomentSequence:
    kind = fam["kind"]
    if kind in ("chebyshev", "legendre"):
        seq = hm.poly_derivative_moments(hg, fam["param"], fam["order"])
    elif kind == "realline":
        seq = hm.realline_moments(fam["param"], fam["order"], hg)
    else:
        phi0 = hm.CFunction.from_table({0: 1.0, 1: fam["param"]}, kind="exponential")
        zero = hm.CFunction.constant(0.0)
        seq = hm.MomentSequence.build(hg, 1, fam["order"], lambda a: phi0 if a == (0,) else zero)
    if fam["rank"] > 1:
        seq = hm.rank_lift(seq, fam["weights"])
    pert = fam["perturb"]
    if pert is not None:
        entries = dict(seq.entries)
        alpha = tuple(pert["alpha"])
        entries[alpha] = entries[alpha] + hm.CFunction.constant(pert["eps"])
        seq = hm.MomentSequence.build(hg, seq.rank, seq.order, entries)
    return seq


def run_moments(fam: dict, shared: dict) -> dict:
    hg = shared[fam["kind"]]
    seq = _family(fam, hg)
    pairs = [(x, y) for x in fam["points"] for y in fam["points"]]
    out = {"moments": verdict(hm.verify_moment_sequence(seq, pairs))}
    # the sequence was verified on these pairs just above
    family = hm.derivation_from_moments(seq, skip_verification=True)
    samples = [(hm.Measure.from_items(hg, mu), hm.Measure.from_items(hg, nu))
               for mu, nu in fam["samples"]]
    out["leibniz"] = verdict(hm.verify_leibniz(family, samples))
    out["fourier"] = (verdict(hm.verify_fourier_leibniz(family, samples))
                      if isinstance(hg, hm.PolynomialHypergroup) else None)
    return out


def run_cli(spec: dict, shared: dict) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(list(spec["argv"]))
    return {"exit": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


RUNNERS = {"axioms-cold": run_axioms, "moments-warm": run_moments, "cli-mix": run_cli}
