"""Per-layer tracing installed from outside the package.

`install` replaces every public function of the eight working modules at
every module binding (``from .measures import convolve`` leaves copies in
four other modules), plus a few class attributes, so that recursive and
internal calls are seen too.  Span wrappers record (name, start, end,
parent, job) in flat arrays and accumulate calls and self time, which is the
span's duration minus that of its child spans.  Count wrappers sit on
functions too small and hot for a span; their time stays in the caller's self
time.  An exception leaving any wrapped call counts as an error of the
module that defines the function.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("hypergroups", "measures", "operators", "moments", "fourier", "io", "reports", "cli")

# hot helpers: counted, not timed
COUNT_ONLY = {
    "moments.as_index", "moments.index_order", "moments.index_leq", "moments.index_sub",
    "moments.multi_binomial", "moments.lower_indices", "reports.jsonable", "io.parse_complex",
    "io.complex_to_json",
}

# (module, class, attribute, metric name, count only)
METHODS = (
    ("hypergroups", "Hypergroup", "__eq__", "hypergroups.eq", False),
    ("hypergroups", "Hypergroup", "convolve_points", "hypergroups.convolve_points", False),
    ("hypergroups", "PolynomialHypergroup", "linearization", "hypergroups.linearization", False),
    ("hypergroups", "PolynomialHypergroup", "eval_poly_derivative",
     "hypergroups.eval_poly_derivative", False),
    ("measures", "Measure", "from_items", "measures.from_items", False),
    ("measures", "CFunction", "__call__", "measures.fn_evals", True),
    ("reports", "Report", "to_json", "reports.to_json", False),
    ("reports", "Report", "summary", "reports.summary", False),
    ("reports", "CheckRecord", "__post_init__", "reports.records", True),
)

# the per-layer metrics the benchmark reports, with their units
CALLS = ("hypergroups.eq", "hypergroups.convolve_points", "measures.convolve", "measures.from_items",
         "hypergroups.linearization", "hypergroups.eval_poly_derivative", "measures.pair",
         "measures.module_action", "operators.is_exponential", "fourier.transform",
         "fourier.p_to_monomial", "moments.extend_moment_sequence", "moments.multi_binomial")
SELF = ("hypergroups.eq", "hypergroups.convolve_points", "measures.convolve", "measures.from_items",
        "hypergroups.linearization", "hypergroups.check_axioms",
        "hypergroups.enumerate_exponentials", "hypergroups.eval_poly_derivative", "measures.pair",
        "measures.module_action", "moments.verify_moment_sequence", "moments.verify_leibniz",
        "operators.is_exponential", "operators.is_multiplicative_hom", "fourier.transform",
        "fourier.p_to_monomial", "fourier.verify_fourier_leibniz", "moments.extend_moment_sequence",
        "reports.to_json", "cli.main")


def metric_units() -> dict[str, str]:
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({f"{n}.self_s": "s" for n in SELF})
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units.update({f"{m}.errors": "count" for m in MODULES})
    units.update({"hypergroups.linearization.repeat_ratio": "ratio", "measures.fn_evals": "count",
                  "reports.records": "count", "trace.overhead_ratio": "ratio"})
    return units


class Tracer:
    """Spans and counters for one traced process; `job` tags the spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.errors = {m: 0 for m in MODULES}
        self.job = -1
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._carriers: dict[int, tuple[object, int]] = {}  # id -> (carrier kept alive, serial)
        self._lin_seen: set[tuple[int, int, int]] = set()
        self.lin_repeats = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def span(self, name: str, module: str, fn):
        nid = self._id(name)
        stack, calls, self_s, errors = self._stack, self.calls, self.self_s, self.errors
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_job = self.span_parent, self.span_job

        def wrapper(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_job.append(self.job)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            s_start.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                t1 = perf_counter()
                s_end.append(t1)
                stack.pop()
                calls[nid] += 1
                self_s[nid] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return _like(wrapper, fn)

    def counter(self, name: str, module: str, fn):
        nid = self._id(name)
        calls, errors = self.calls, self.errors

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise

        return _like(wrapper, fn)

    def linearization(self, fn):
        """Span on PolynomialHypergroup.linearization that also tracks repeated keys."""
        timed = self.span("hypergroups.linearization", "hypergroups", fn)
        carriers, seen = self._carriers, self._lin_seen

        def wrapper(hg, m, n, *args, **kwargs):
            entry = carriers.setdefault(id(hg), (hg, len(carriers)))
            key = (entry[1], m, n)
            if key in seen:
                self.lin_repeats += 1
            else:
                seen.add(key)
            return timed(hg, m, n, *args, **kwargs)

        return _like(wrapper, fn)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio, zero where unused."""
        by_name = dict(zip(self.names, zip(self.calls, self.self_s)))
        out: dict[str, float] = {}
        for n in CALLS:
            out[f"{n}.calls"] = by_name.get(n, (0, 0.0))[0]
        for n in SELF:
            out[f"{n}.self_s"] = by_name.get(n, (0, 0.0))[1]
        for m in MODULES:
            out[f"{m}.self_s"] = sum(s for name, (_, s) in by_name.items() if name.split(".")[0] == m)
            out[f"{m}.errors"] = self.errors[m]
        lin_calls = by_name.get("hypergroups.linearization", (0, 0.0))[0]
        out["hypergroups.linearization.repeat_ratio"] = self.lin_repeats / lin_calls if lin_calls else 0.0
        out["measures.fn_evals"] = by_name.get("measures.fn_evals", (0, 0.0))[0]
        out["reports.records"] = by_name.get("reports.records", (0, 0.0))[0]
        return out

    def write(self, path: Path) -> None:
        """Dump the spans as flat arrays (npz) with the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 job=np.frombuffer(self.span_job, dtype=np.int32))


def _like(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> int:
    """Wrap the package in place; returns the number of bindings replaced."""
    package = importlib.import_module("hypermoment")
    modules = {m: importlib.import_module(f"hypermoment.{m}") for m in MODULES}
    wrapped: dict[int, object] = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                metric = f"{short}.{name}"
                make = tracer.counter if metric in COUNT_ONLY else tracer.span
                wrapped[id(obj)] = make(metric, short, obj)
    replaced = 0
    for mod in [package, *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(mod, name, wrapped[id(obj)])
                replaced += 1
            elif isinstance(obj, dict):
                # preset tables such as io._POLY_PRESETS hold function objects too
                for k, v in list(obj.items()):
                    if inspect.isfunction(v) and id(v) in wrapped:
                        obj[k] = wrapped[id(v)]
                        replaced += 1
    for short, cls_name, attr, metric, count_only in METHODS:
        cls = getattr(modules[short], cls_name)
        raw = inspect.getattr_static(cls, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        if metric == "hypergroups.linearization":
            new = tracer.linearization(fn)
        else:
            new = (tracer.counter if count_only else tracer.span)(metric, short, fn)
        setattr(cls, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
        replaced += 1
    return replaced
