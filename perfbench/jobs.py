"""Seeded job streams for the three workloads, each job with its answer key.

Nothing here imports hypermoment.  A job is plain data, the inputs the
program will see, plus a key built from how those inputs were made and from
the oracles in oracle.py.  `judge` compares a program outcome with the key.

Jobs come in rounds.  A round holds every entry of every template's parameter
grid exactly once, in seeded order; the seed also draws every value that
does not set a job's size (points, weights, z, lambda, theta, which alpha is
perturbed).  A timed run ends at a round boundary, so every run, whatever
its seed, measures the same mix of job kinds and sizes.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import oracle

WORKLOADS = ("axioms-cold", "moments-warm", "cli-mix")

# CLI record names of checks that evaluate transforms in the monomial basis.
# A false FAIL confined to these (or to the API's "fourier" step) on a valid
# input is the known seed defect (ROADMAP aim 3): counted as a wrong verdict,
# but not as an unexplained one.
TRANSFORM_SIDE = ("derivative-identity", "taylor-reconstruction", "transform: fourier-leibniz")


@dataclass
class Job:
    jid: int
    round: int
    last_in_round: bool
    template: str
    spec: dict
    key: dict

    def describe(self) -> str:
        if "argv" in self.spec:
            return " ".join(self.spec["argv"])
        shown = {k: v for k, v in self.spec.items() if k not in ("table", "rows", "samples")}
        return json.dumps(shown, default=str)


def _cplx(rng: random.Random, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    phase = 2 * math.pi * rng.random()
    return complex(round(r * math.cos(phase), 4), round(r * math.sin(phase), 4))


def _theta(rng: random.Random, lo: float = 0.05, hi: float = 1.0) -> float:
    return round(rng.uniform(lo, hi), 4)


def _axioms_key(size: int, table: list) -> str:
    """PASS, or FAIL at the first axiom the table violates, in check_axioms order."""
    bad = oracle.finite_axiom_failures(size, 0, table)
    return "FAIL:" + bad[0] if bad else "PASS"


def indices_up_to(rank: int, order: int) -> list[tuple[int, ...]]:
    out = [a for a in itertools.product(range(order + 1), repeat=rank) if sum(a) <= order]
    return sorted(out, key=lambda a: (sum(a), a))


# ---------------------------------------------------------------------------
# axioms-cold: a fresh carrier per job


def _axioms_cold(rng: random.Random, plan: dict):
    def poly(name):
        return lambda bound: ({"carrier": name, "bound": bound}, {"axioms": "PASS"})

    def finite(size, table, expos):
        spec = {"carrier": "finite", "size": size, "table": table, "bound": 8, "exponentials": True}
        return spec, {"axioms": _axioms_key(size, table), "exponentials": expos}

    def cyclic(n):
        return finite(n, oracle.cyclic_table(n), oracle.cyclic_characters(n))

    def product(t1):
        t2 = _theta(rng)
        table = oracle.product_table(oracle.two_point_table(t1), 2, oracle.two_point_table(t2), 2)
        expos = oracle.product_exponentials(oracle.two_point_exponentials(t1),
                                            oracle.two_point_exponentials(t2))
        return finite(4, table, expos)

    def dtheta(_):
        t = _theta(rng)
        spec = {"carrier": "dtheta", "theta": t, "bound": 8, "exponentials": True}
        return spec, {"axioms": "PASS", "exponentials": oracle.two_point_exponentials(t)}

    def negative_weight(shape):
        # theta > 1 puts weight 1 - theta < 0 on d1*d1; the table stays associative
        t = _theta(rng, 1.05, 2.0)
        if shape == "single":
            return finite(2, oracle.two_point_table(t), oracle.two_point_exponentials(t))
        return product(t)

    def non_associative(n):
        # Z_n with one symmetric pair redirected: commutative, nonnegative,
        # normalized, identity intact, but associativity breaks and the
        # translations stop commuting, so no basis of exponentials exists.
        while True:
            i = rng.randrange(1, n)
            j = rng.randrange(i, n)
            table = [[a, b, [[(a + b + 1) % n if {a, b} == {i, j} else (a + b) % n, 1.0]]]
                     for a in range(n) for b in range(n)]
            if (oracle.finite_axiom_failures(n, 0, table) == ["associativity"]
                    and not oracle.translations_commute(n, table)):
                return finite(n, table, "raise:DecompositionError")

    def negative_recurrence(dip):
        # Chebyshev rows with one row replaced: every row is a valid
        # (a_n, b_n, c_n), yet some linearization coefficient goes negative
        row, a, bound = dip
        rows = [(Fraction(1, 2), Fraction(0), Fraction(1, 2))] * (2 * bound + 2)
        rows = rows[: row - 1] + [(a, Fraction(0), 1 - a)] + rows[row:]
        if oracle.RationalRecurrence(1, 0, rows).first_negative(bound) is None:
            raise RuntimeError(f"rows {rows[:row]} keep every linearization nonnegative")
        spec = {"carrier": "rows", "a0": 1.0, "b0": 0.0, "bound": bound,
                "rows": [tuple(float(v) for v in r) for r in rows]}
        return spec, {"axioms": "FAIL:nonnegativity"}

    return {
        "chebyshev": (poly("chebyshev"), range(6, 17)),
        "legendre": (poly("legendre"), range(4, 11)),
        "cyclic": (cyclic, range(3, 13)),
        "product": (lambda _: product(_theta(rng)), range(4)),
        "dtheta": (dtheta, range(4)),
        "negative-weight": (negative_weight, ["single", "product"] * 2),
        "non-associative": (non_associative, range(4, 9)),
        "negative-recurrence": (negative_recurrence, [
            (2, Fraction(1, 10), 6), (2, Fraction(3, 10), 7), (3, Fraction(4, 5), 8),
            (3, Fraction(9, 10), 9), (4, Fraction(7, 10), 10), (5, Fraction(3, 10), 12)]),
    }


# ---------------------------------------------------------------------------
# moments-warm: carriers shared across jobs, one family per job

REALLINE_POINTS = [-1.0, -0.5, 0.0, 0.5, 1.0]
MOMENT_KINDS = ("chebyshev", "legendre", "realline", "twopoint")


def _perturb(fam: dict, rng: random.Random) -> dict:
    """Add a constant to one entry of order >= 2; the identity then fails there.

    At the pair (o, o) the constant c leaves a residual of exactly |c|, so the
    moment identity fails at that alpha and at no lower one.  The size of c
    is raised until the oracle sees a clear failure of both identities.
    """
    alpha = rng.choice([a for a in indices_up_to(fam["rank"], fam["order"]) if sum(a) >= 2])
    top = max(1.0, *(abs(oracle.moment_entry(fam, alpha, x)) for x in fam["points"]))
    eps = complex(round(rng.choice([-1, 1]) * 0.01 * top, 6))
    for _ in range(6):
        trial = dict(fam, perturb={"alpha": alpha, "eps": eps})
        moment = max(r / s for r, s in (oracle.moment_defect(trial, alpha, x, y)
                                        for x in fam["points"] for y in fam["points"]))
        leib = max(r / s for r, s in (oracle.leibniz_defect(trial, alpha, dict(mu), dict(nu))
                                      for mu, nu in fam["samples"]))
        if min(moment, leib) > 1e-6:
            return trial
        eps *= 10
    raise RuntimeError(f"perturbation at {alpha} stays invisible to the oracle")


def _moments_warm(rng: random.Random, plan: dict):
    theta = plan["theta"]

    def samples(points, top):
        ms = []
        for _ in range(6):
            support = [top, rng.randrange(top)] if top else rng.sample(points, 2)
            ms.append([(x, complex(round(rng.uniform(-1, 1), 4), round(rng.uniform(-1, 1), 4)))
                       for x in support])
        return [(ms[i], ms[(i + 1) % len(ms)]) for i in range(len(ms))]

    def make(params):
        kind, order, rank, grid, perturbed, top = params
        if kind in ("chebyshev", "legendre"):
            param, points = _cplx(rng, 2.0), list(range(grid + 1))
        elif kind == "realline":
            param, points = _cplx(rng, 1.0), REALLINE_POINTS
        else:
            param, points = rng.choice([1.0 + 0j, complex(-theta)]), [0, 1]
        weights = (1.0 + 0j, _cplx(rng, 1.0)) if rank == 2 else (1.0 + 0j,)
        fam = {"kind": kind, "param": param, "theta": theta, "order": order, "rank": rank,
               "weights": weights, "points": points, "perturb": None}
        fam["samples"] = samples(points, top)
        verdict = "PASS"
        if perturbed:
            fam = _perturb(fam, rng)
            verdict = f"FAIL:{list(fam['perturb']['alpha'])}"
        key = {"moments": verdict, "leibniz": verdict,
               "fourier": verdict if kind in ("chebyshev", "legendre") else None}
        return fam, key

    # a quarter of each carrier's (order, rank) grid is perturbed, a different quarter per carrier
    grids = {}
    for i, kind in enumerate(MOMENT_KINDS):
        sizes = (3, 4) if kind in ("chebyshev", "legendre") else (0,)
        grids[kind] = (make, [(kind, order, rank, grid, (order + rank + i) % 4 == 0, None)
                              for order in range(2, 6) for rank in (1, 2) for grid in sizes])
    # valid families whose samples all hold the point 12: the convolutions reach
    # degree 24, where the seed's verify_fourier_leibniz returns a false FAIL
    for kind in ("chebyshev", "legendre"):
        grids[kind][1].extend([(kind, 2, 1, 3, False, 12), (kind, 3, 2, 3, False, 12)])
    return grids


# ---------------------------------------------------------------------------
# cli-mix: cli.main(argv) over all six subcommands, presets and spec files

CYCLIC_SPECS = (3, 5, 8, 12, 16)


def extension_nullity(size: int, table: list, phi0: list[complex]) -> int:
    """Null-space dimension of the linear extension system for phi_0.

    The unknown g enters <dx*dy, g> - phi0(x) g(y) - phi0(y) g(x) = rhs; with
    nullity 0 every extension of a phi_0 with zero higher entries is zero.
    """
    c = oracle.structure_tensor(size, table).astype(complex)
    rows = []
    for x, y in itertools.product(range(size), repeat=2):
        row = c[x, y].copy()
        row[y] -= phi0[x]
        row[x] -= phi0[y]
        rows.append(row)
    return size - int(np.linalg.matrix_rank(np.array(rows)))


def plan_cli(rng: random.Random, workdir: Path) -> dict:
    """Write the finite spec files the cli-mix jobs read (their keys come later)."""
    workdir.mkdir(parents=True, exist_ok=True)
    specs: dict[str, dict] = {}

    def write(name, data, size=None, expos=None, text=None):
        path = workdir / name
        path.write_text(text if text is not None else json.dumps(data))
        specs[name] = {"path": str(path), "size": size, "exponentials": expos,
                       "table": data["table"] if size is not None else None}

    for n in CYCLIC_SPECS:
        write(f"Z{n}.json", {"kind": "finite", "size": n, "identity": 0, "table": oracle.cyclic_table(n)},
              n, oracle.cyclic_characters(n))
    for i in range(2):
        t1, t2 = _theta(rng), _theta(rng)
        table = oracle.product_table(oracle.two_point_table(t1), 2, oracle.two_point_table(t2), 2)
        write(f"D{i}.json", {"kind": "finite", "size": 4, "identity": 0, "table": table}, 4,
              oracle.product_exponentials(oracle.two_point_exponentials(t1),
                                          oracle.two_point_exponentials(t2)))
    n = 5
    table = [[a, b, [[(a + b + 1) % n if {a, b} == {1, 2} else (a + b) % n, 1.0]]]
             for a in range(n) for b in range(n)]
    if oracle.finite_axiom_failures(n, 0, table) != ["associativity"]:
        raise RuntimeError("the redirected Z5 table should fail associativity only")
    write("nonassoc.json", {"kind": "finite", "size": n, "identity": 0, "table": table}, n, "raise")
    missing = [row for row in oracle.cyclic_table(4) if row[:2] != [1, 2] and row[:2] != [2, 1]]
    write("missing.json", {"kind": "finite", "size": 4, "identity": 0, "table": missing})
    write("broken.json", None, text='{"kind": "finite", "size": 3,')
    write("unknown.json", {"kind": "torus", "size": 3})
    return {"specs": specs}


def _cli_mix(rng: random.Random, plan: dict):
    specs = plan["specs"]
    for spec in specs.values():
        if spec["size"] is not None:
            spec["axioms"] = _axioms_key(spec["size"], spec["table"])
            spec["unique_zero"] = spec["exponentials"] != "raise" and all(
                extension_nullity(spec["size"], spec["table"], e) == 0 for e in spec["exponentials"])

    def with_format(maker):
        def make(params):
            *rest, fmt = params
            spec, key = maker(*rest)
            spec["argv"] += ["--format", fmt]
            return spec, key
        return make

    def grid(entries):
        """Alternate entries run with --format json and --format text."""
        return [(*(e if isinstance(e, tuple) else (e,)), ("json", "text")[i % 2])
                for i, e in enumerate(entries)]

    def axioms_preset(name, bound):
        if name == "dtheta":
            return {"argv": ["axioms", "--hypergroup", f"dtheta:{_theta(rng)}"]}, {"exit": 0}
        return {"argv": ["axioms", "--hypergroup", name, "--bound", str(bound)]}, {"exit": 0}

    def axioms_spec(name):
        axiom = specs[name]["axioms"]
        key = {"exit": 0 if axiom == "PASS" else 1, "axioms": axiom}
        return {"argv": ["axioms", "--hypergroup", specs[name]["path"]]}, key

    def exponentials(name):
        if name == "dtheta":
            t = _theta(rng)
            argv, expos = ["exponentials", "--hypergroup", f"dtheta:{t}"], oracle.two_point_exponentials(t)
        else:
            argv, expos = ["exponentials", "--hypergroup", specs[name]["path"]], specs[name]["exponentials"]
        return {"argv": argv}, {"exit": 0, "exponentials": expos}

    def family(sub, kind, order, rank, bound, *extra):
        if kind == "realline":
            lam = _cplx(rng, 1.0)
            fam = {"family": "realline-moment", "lambda": [lam.real, lam.imag]}
        else:
            z = _cplx(rng, 2.0)
            fam = {"family": "polynomial-derivative", "z": [z.real, z.imag]}
        argv = [sub, "--hypergroup", kind, "--family", json.dumps(fam), "--order", str(order),
                "--rank", str(rank), "--bound", str(bound), "--seed", str(rng.randrange(1000)), *extra]
        return {"argv": argv}, {"exit": 0}

    def search_moments(name, alpha):
        if name == "dtheta":
            argv, size = ["search-moments", "--hypergroup", f"dtheta:{_theta(rng)}"], 2
            unique = True  # D(theta): every extension is zero (PAPER.md)
        else:
            argv, size = ["search-moments", "--hypergroup", specs[name]["path"]], specs[name]["size"]
            unique = specs[name]["unique_zero"]
        steps = math.prod(int(a) + 1 for a in alpha.split(",")) - 1
        argv += ["--phi0", f"m{rng.randrange(size)}", "--alpha", alpha]
        return {"argv": argv}, {"exit": 0, "steps": steps if unique else None}

    def transform(kind, top, extra_points, k, taylor):
        support = sorted({top, *rng.sample(range(top + 1), min(top, extra_points))})
        weights = {n: complex(round(rng.uniform(-1, 1), 4), round(rng.uniform(-1, 1), 4))
                   for n in support}
        z = round(rng.uniform(-1, 1), 4)
        argv = ["transform", "--hypergroup", kind, "--measure",
                json.dumps([[n, [w.real, w.imag]] for n, w in weights.items()]),
                f"--z={z}", "--k", str(k)] + (["--taylor"] if taylor else [])
        key = {"exit": 0, "value": oracle.series_value(kind, weights, z),
               "coefficients": oracle.series_monomial(kind, weights).tolist(),
               "mass": sum(abs(w) for w in weights.values())}
        return {"argv": argv}, key

    def malformed(*argv):
        return {"argv": list(argv)}, {"exit": 2}

    cyclic = [f"Z{n}.json" for n in CYCLIC_SPECS]
    fam_grid = [(kind, order, rank, bound) for kind in ("chebyshev", "legendre", "realline")
                for order, rank, bound in ((2, 1, 3), (3, 2, 4), (4, 1, 5))]
    tops = (3, 8, 14, 20, 26, 32, 40, 48, 54, 60)
    return {
        "axioms-preset": (with_format(axioms_preset), grid(
            [("chebyshev", b) for b in (4, 6, 8, 10)] + [("legendre", b) for b in (3, 5, 7)]
            + [("realline", 2), ("realline", 4), ("dtheta", 0), ("dtheta", 0)])),
        "axioms-spec": (with_format(axioms_spec), grid(
            ["Z3.json", "Z5.json", "Z8.json", "D0.json", "D1.json", "nonassoc.json"])),
        "exponentials": (with_format(exponentials), grid(cyclic + ["D0.json", "D1.json", "dtheta", "dtheta"])),
        "verify-moments": (with_format(lambda *p: family("verify-moments", *p)), grid(fam_grid)),
        # bound 12 lets the sampled convolutions reach degree 24, where the
        # seed's transform-side Leibniz check returns a false FAIL on most seeds
        "leibniz": (with_format(lambda *p: family("leibniz", *p, "--count", str(4 + 2 * p[1]))),
                    grid(fam_grid + [(kind, order, rank, 12) for kind in ("chebyshev", "legendre")
                                     for order, rank in ((2, 1), (3, 2))])),
        "search-moments": (with_format(search_moments), grid(
            list(zip(cyclic + ["D0.json", "D1.json", "dtheta"], itertools.cycle(["1", "2", "3", "1,1"]))))),
        "transform": (with_format(transform), grid(
            [(kind, top, i % 4, (i // 2) % 4, i % 2 == 0) for kind in ("chebyshev", "legendre")
             for i, top in enumerate(tops)])),
        "malformed": (with_format(malformed), grid([
            ("axioms", "--hypergroup", specs["missing.json"]["path"]),
            ("axioms", "--hypergroup", specs["broken.json"]["path"]),
            ("exponentials", "--hypergroup", specs["unknown.json"]["path"]),
            ("axioms", "--hypergroup", "dtheta:1.5"),
            ("transform", "--hypergroup", "chebyshev", "--measure", "[[1]]"),
            ("leibniz", "--hypergroup", "chebyshev", "--family", '{"family": "nope"}')])),
    }


BUILDERS: dict[str, Callable] = {
    "axioms-cold": _axioms_cold, "moments-warm": _moments_warm, "cli-mix": _cli_mix,
}


def plan_setup(workload: str, seed: int, workdir: Path) -> dict:
    """Shared inputs made once per process: the two-point theta, the spec files."""
    rng = random.Random(f"plan:{workload}:{seed}")
    if workload == "moments-warm":
        return {"theta": _theta(rng, 0.1, 0.9)}
    if workload == "cli-mix":
        return plan_cli(rng, workdir)
    return {}


def stream(workload: str, seed: int, plan: dict) -> Iterator[Job]:
    """Jobs in rounds; each round is every template's whole grid, shuffled."""
    rng = random.Random(f"jobs:{workload}:{seed}")
    grids = BUILDERS[workload](rng, plan)
    jid = 0
    for rnd in itertools.count():
        items = [(name, params) for name, (_, grid) in grids.items() for params in grid]
        rng.shuffle(items)
        for i, (name, params) in enumerate(items):
            spec, key = grids[name][0](params)
            yield Job(jid, rnd, i == len(items) - 1, name, spec, key)
            jid += 1


# ---------------------------------------------------------------------------
# judging outcomes against the key


def failing_records(out: dict) -> list[str]:
    """Names of non-passing records in a captured CLI report, JSON or text."""
    text = out.get("stdout", "")
    if text.lstrip().startswith("{"):
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return ["<unparsable report>"]
        return [r["name"] for r in report.get("records", []) if r["status"] != "pass"]
    return [line[7:].split(": residual ")[0] for line in text.splitlines()
            if line.startswith(("[FAIL]", "[ERR ]"))]


def signature(job: Job, out: dict) -> str:
    """Verdict summary compared between traced and untraced runs."""
    if "crash" in out:
        return "crash:" + out["crash"].split(":")[0]
    if "exit" in out:
        return f"exit={out['exit']};" + ",".join(failing_records(out))
    parts = []
    for step, value in sorted(out.items()):
        if isinstance(value, list):
            value = f"{len(value)} functions"
        parts.append(f"{step}={value}")
    return ";".join(parts)


@dataclass
class Judgement:
    status: str  # "right", "known" (the seed's monomial-basis false FAIL) or "wrong"
    failed: bool  # the job crashed
    problems: list[str]


def judge(job: Job, out: dict) -> Judgement:
    """Compare an outcome with the key; every problem names the check it concerns.

    A mismatch is "known" only when the key says the input is valid (PASS, or
    exit 0) and the program said FAIL (exit 1) in transform-side checks alone.
    A missed defect, a wrong alpha or a wrong value is always "wrong".
    """
    if "crash" in out:
        return Judgement("wrong", True, [out["crash"]])
    if "exit" in out:
        problems, failing = _judge_cli(job, out)
        crashed = out["exit"] == 2 and job.key["exit"] in (0, 1)
        known = (job.key["exit"] == 0 and out["exit"] == 1 and bool(failing)
                 and all(n.startswith(TRANSFORM_SIDE) for n in failing))
    else:
        bad = _judge_steps(job, out)
        problems, crashed = list(bad.values()), False
        known = all(step == "fourier" and job.key[step] == "PASS" and str(out.get(step)).startswith("FAIL:")
                    for step in bad)
    if not problems:
        return Judgement("right", False, [])
    return Judgement("known" if known else "wrong", crashed, problems)


def _judge_steps(job: Job, out: dict) -> dict[str, str]:
    """The problem found at each step whose outcome differs from the key."""
    problems = {}
    for step, want in job.key.items():
        got = out.get(step)
        if step == "exponentials" and isinstance(want, list):
            if not isinstance(got, list) or not oracle.same_function_sets(got, want):
                shown = f"{len(got)} functions" if isinstance(got, list) else got
                problems[step] = f"exponentials: got {shown}, key {len(want)} functions"
        elif got != want:
            problems[step] = f"{step}: got {got}, key {want}"
    return problems


def _judge_cli(job: Job, out: dict) -> tuple[list[str], list[str]]:
    key, rc, text = job.key, out["exit"], out["stdout"]
    failing = failing_records(out)
    if rc != key["exit"]:
        if rc == 1 and failing and all(n.startswith(TRANSFORM_SIDE) for n in failing):
            return [f"{failing[0]} (exit 1, key {key['exit']})"], failing
        return [f"exit {rc}, key {key['exit']}: " + (", ".join(failing) or out["stderr"].strip())], failing
    problems = []
    if "axioms" in key and key["axioms"] != "PASS" and key["axioms"][5:] != (failing or [""])[0]:
        problems.append(f"first failing check {failing[:1]}, key {key['axioms']}")
    if rc == 2:
        return problems, failing
    if not text.lstrip().startswith("{"):
        last = text.strip().splitlines()[-1] if text.strip() else ""
        if last != ("result: OK" if rc == 0 else "result: NOT OK"):
            problems.append(f"summary ends with {last!r}")
        return problems, failing
    report = json.loads(text)
    if report["passed"] != (rc == 0):
        problems.append("passed flag disagrees with the exit code")
    if "exponentials" in key:
        got = [[complex(*v) for _, v in sorted(ast.literal_eval(r["detail"]).items(),
                                               key=lambda kv: int(kv[0]))]
               for r in report["records"]]
        if not oracle.same_function_sets(got, key["exponentials"]):
            problems.append(f"exponentials: got {len(got)} functions, key {len(key['exponentials'])}")
    if key.get("steps") is not None:
        shapes = [r["detail"] for r in report["records"]]
        if len(shapes) != key["steps"] or any(s != "unique: zero" for s in shapes):
            problems.append(f"extension steps {shapes}, key {key['steps']} x 'unique: zero'")
    if "value" in key:
        coeffs = [complex(*c) for c in report["meta"]["coefficients"]]
        want = list(key["coefficients"])
        while want and want[-1] == 0:
            want.pop()
        top = max([1.0] + [abs(c) for c in want])
        if len(coeffs) != len(want) or any(abs(a - b) > 1e-8 * top for a, b in zip(coeffs, want)):
            problems.append("coefficients differ from the numpy.polynomial conversion")
        value = complex(*report["meta"]["value"])
        if abs(value - key["value"]) > 1e-8 * max(1.0, key["mass"]):
            problems.append(f"value {value:.6g}, key {key['value']:.6g}")
    return problems, failing
