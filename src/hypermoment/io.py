"""JSON formats: hypergroup specs, measure/function/family literals.

Formats:

* hypergroup: {"kind": "finite", "size", "identity", "table": [[i, j, [[k, w], ...]], ...]}
  | {"kind": "polynomial", "a0", "b0", "coeffs": "chebyshev" | [[a, b, c], ...]}
  | {"kind": "realline"}
  Preset strings: "chebyshev", "dtheta:<theta>", "realline".
* measure: [[point, weight], ...] with weight a number or [re, im].
* function: {"kind": "table"|"constant"|"exponential"|"moment", ...}.
* family: {"rank", "order", "entries": [[alpha, function], ...]}
  | {"family": "realline-moment", "lambda", "order"}
  | {"family": "polynomial-derivative", "z", "order"}.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import DomainError, SpecError
from .hypergroups import (
    FiniteHypergroup,
    Hypergroup,
    PolynomialHypergroup,
    RealLineHypergroup,
    chebyshev,
    enumerate_exponentials,
    exponential_function,
    legendre,
    real_line,
    two_point,
)

_POLY_PRESETS = {"chebyshev": chebyshev, "legendre": legendre}
from .measures import CFunction, Measure
from .moments import MomentSequence, poly_derivative_moments, realline_moments


def parse_complex(value: Any) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(isinstance(v, (int, float)) for v in value):
        return complex(value[0], value[1])
    raise SpecError(f"expected a number or [re, im], got {value!r}")


def _number(data: dict, key: str, default: Any, kind: type = float) -> Any:
    """data[key] (or the default) as `kind`, a SpecError when it is not one."""
    try:
        return kind(data.get(key, default))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad {key!r}: {exc}") from exc


def load_json(path: str | Path) -> Any:
    p = Path(path)
    if not p.exists():
        raise SpecError(f"file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON in {p}: {exc}") from exc


def _load_spec_arg(arg: str | dict | list) -> Any:
    """An inline JSON string, a path to a JSON file, or already-parsed data."""
    if not isinstance(arg, str):
        return arg
    text = arg.strip()
    if text.startswith(("{", "[")):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid inline JSON: {exc}") from exc
    return load_json(arg)


def hypergroup_from_dict(data: dict) -> Hypergroup:
    if not isinstance(data, dict) or "kind" not in data:
        raise SpecError("hypergroup spec must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "finite":
        try:
            size = int(data["size"])
            identity = int(data["identity"])
            table = [(int(i), int(j), [(int(k), float(w)) for k, w in row]) for i, j, row in data["table"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad finite hypergroup spec: {exc}") from exc
        try:
            return FiniteHypergroup(size, identity, table)
        except DomainError as exc:
            raise SpecError(str(exc)) from exc
    if kind == "polynomial":
        coeffs = data.get("coeffs")
        a0 = _number(data, "a0", 1.0)
        b0 = _number(data, "b0", 0.0)
        if isinstance(coeffs, str):
            if coeffs not in _POLY_PRESETS:
                raise SpecError(f"unknown polynomial preset {coeffs!r}")
            preset = _POLY_PRESETS[coeffs]()
            if "a0" not in data and "b0" not in data:
                return preset
            return PolynomialHypergroup(a0, b0, preset.coefficient_row, name=f"{coeffs}, a0={a0}, b0={b0}")
        if isinstance(coeffs, list):
            try:
                rows = [(float(a), float(b), float(c)) for a, b, c in coeffs]
            except (TypeError, ValueError) as exc:
                raise SpecError(f"bad coefficient rows: {exc}") from exc
            try:
                return PolynomialHypergroup(a0, b0, rows)
            except DomainError as exc:
                raise SpecError(str(exc)) from exc
        raise SpecError("polynomial 'coeffs' must be a preset name or a list of rows")
    if kind == "realline":
        return real_line()
    raise SpecError(f"unknown hypergroup kind {kind!r}")


def load_hypergroup(arg: str) -> Hypergroup:
    """Resolve a preset name ('chebyshev', 'legendre', 'dtheta:0.3', 'realline') or a spec path."""
    name = arg.strip().lower()
    if name in _POLY_PRESETS:
        return _POLY_PRESETS[name]()
    if name == "realline":
        return real_line()
    if name.startswith("dtheta:"):
        try:
            theta = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise SpecError(f"bad theta in {arg!r}") from exc
        try:
            return two_point(theta)
        except DomainError as exc:
            raise SpecError(str(exc)) from exc
    data = _load_spec_arg(arg)
    return hypergroup_from_dict(data)


def measure_from_literal(hg: Hypergroup, data: Any) -> Measure:
    data = _load_spec_arg(data)
    if not isinstance(data, list):
        raise SpecError("measure literal must be a list of [point, weight] pairs")
    items = []
    for entry in data:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SpecError(f"bad measure entry {entry!r}")
        point, weight = entry
        items.append((point, parse_complex(weight)))
    try:
        return Measure.from_items(hg, items)
    except DomainError as exc:
        raise SpecError(str(exc)) from exc


def function_from_literal(hg: Hypergroup, data: Any) -> CFunction:
    data = _load_spec_arg(data)
    if not isinstance(data, dict) or "kind" not in data:
        raise SpecError("function literal must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "constant":
        return CFunction.constant(parse_complex(data.get("value", 1.0)))
    if kind == "table":
        try:
            values = {hg.validate_point(x): parse_complex(v) for x, v in data["values"]}
        except (KeyError, TypeError, DomainError) as exc:
            raise SpecError(f"bad table literal: {exc}") from exc
        return CFunction.from_table(values)
    if kind == "exponential":
        if isinstance(hg, PolynomialHypergroup):
            if "z" not in data:
                raise SpecError("polynomial exponential needs 'z'")
            return exponential_function(hg, parse_complex(data["z"]))
        if isinstance(hg, RealLineHypergroup):
            if "lambda" not in data:
                raise SpecError("real-line exponential needs 'lambda'")
            return exponential_function(hg, parse_complex(data["lambda"]))
        if isinstance(hg, FiniteHypergroup):
            if "index" in data:
                try:
                    return exponential_function(hg, _number(data, "index", None, int))
                except DomainError as exc:
                    raise SpecError(str(exc)) from exc
            if "values" in data:
                values = {hg.validate_point(x): parse_complex(v) for x, v in data["values"]}
                return CFunction.from_table(values, kind="exponential")
            raise SpecError("finite exponential needs 'index' or 'values'")
        raise SpecError(f"no exponential family for kind {hg.kind!r}")
    if kind == "moment":
        k = _number(data, "k", 0, int)
        if isinstance(hg, RealLineHypergroup):
            lam = parse_complex(data.get("lambda", 0.0))
            seq = realline_moments(lam, k, hg)
            return seq.phi((k,))
        if isinstance(hg, PolynomialHypergroup):
            z = parse_complex(data.get("z", 0.0))
            seq = poly_derivative_moments(hg, z, k)
            return seq.phi((k,))
        raise SpecError(f"no moment builtin for kind {hg.kind!r}")
    raise SpecError(f"unknown function kind {kind!r}")


def family_from_literal(
    hg: Hypergroup,
    data: Any,
    order: int | None = None,
) -> MomentSequence:
    data = _load_spec_arg(data)
    if not isinstance(data, dict):
        raise SpecError("family literal must be an object")
    if "family" in data:
        name = data["family"]
        n = order if order is not None else _number(data, "order", 4, int)
        if name == "realline-moment":
            if not isinstance(hg, RealLineHypergroup):
                raise SpecError("realline-moment family needs the real line")
            return realline_moments(parse_complex(data.get("lambda", 0.0)), n, hg)
        if name == "polynomial-derivative":
            if not isinstance(hg, PolynomialHypergroup):
                raise SpecError("polynomial-derivative family needs a polynomial hypergroup")
            return poly_derivative_moments(hg, parse_complex(data.get("z", 0.0)), n)
        raise SpecError(f"unknown builtin family {name!r}")
    try:
        rank = int(data["rank"])
        n = order if order is not None else int(data["order"])
        raw_entries = data["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad family literal: {exc}") from exc
    entries: dict[tuple[int, ...], CFunction] = {}
    for entry in raw_entries:
        try:
            alpha, fn = entry
            key = tuple(int(a) for a in ([alpha] if isinstance(alpha, int) else alpha))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad family entry {entry!r}: {exc}") from exc
        entries[key] = function_from_literal(hg, fn)
    try:
        return MomentSequence.build(hg, rank, n, entries)
    except (DomainError, KeyError) as exc:
        raise SpecError(f"family entries incomplete or invalid: {exc}") from exc


def pairs_from_literal(hg: Hypergroup, data: Any) -> list[tuple]:
    data = _load_spec_arg(data)
    if not (isinstance(data, list) and data):
        raise SpecError("pairs literal must be a nonempty list of [x, y] pairs")
    out = []
    for entry in data:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SpecError(f"bad pair {entry!r}")
        out.append((hg.validate_point(entry[0]), hg.validate_point(entry[1])))
    return out


def samples_from_literal(hg: Hypergroup, data: Any) -> list[tuple[Measure, Measure]]:
    data = _load_spec_arg(data)
    if not (isinstance(data, list) and data):
        raise SpecError("samples literal must be a nonempty list of [measure, measure] pairs")
    out = []
    for entry in data:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SpecError(f"bad sample {entry!r}")
        out.append((measure_from_literal(hg, entry[0]), measure_from_literal(hg, entry[1])))
    return out


def resolve_phi0(hg: Hypergroup, spec: str) -> CFunction:
    """'m<i>' names the i-th enumerated exponential (finite carriers); else a function literal."""
    text = spec.strip()
    if text.startswith("m") and text[1:].isdigit():
        if not isinstance(hg, FiniteHypergroup):
            raise SpecError("named exponentials m0, m1, ... need a finite hypergroup")
        idx = int(text[1:])
        expos = enumerate_exponentials(hg)
        if idx >= len(expos):
            raise SpecError(f"only {len(expos)} exponentials exist, m{idx} requested")
        return expos[idx]
    return function_from_literal(hg, text)
