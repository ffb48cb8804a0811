"""Check records and reports, with lossless JSON round-tripping."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .config import Tolerance

PASS = "pass"
FAIL = "fail"
ERROR = "error"


def jsonable(value: Any) -> Any:
    """Coerce a value into JSON-native structure (complex -> [re, im])."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class CheckRecord:
    """One verified identity: name, the law checked, and the worst residual."""

    name: str
    law: str
    status: str
    residual: float = 0.0
    scale: float = 1.0
    counterexample: Any = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in (PASS, FAIL, ERROR):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == FAIL and self.counterexample is None:
            raise ValueError(f"failing record {self.name!r} lacks a counterexample")
        if not self.residual >= 0.0:
            raise ValueError("residual must be a nonnegative real")


@dataclass
class Report:
    """Ordered collection of check records plus run metadata."""

    title: str
    records: list[CheckRecord] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.status == PASS for r in self.records)

    @property
    def failed_records(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status != PASS]

    def worst_residual(self) -> float:
        return max((r.residual / max(r.scale, 1.0) for r in self.records), default=0.0)

    def add(
        self,
        name: str,
        law: str,
        ok: bool,
        residual: float = 0.0,
        scale: float = 1.0,
        counterexample: Any = None,
        detail: str = "",
        error: bool = False,
    ) -> CheckRecord:
        status = ERROR if error else (PASS if ok else FAIL)
        rec = CheckRecord(
            name=name,
            law=law,
            status=status,
            residual=float(residual),
            scale=float(scale),
            counterexample=jsonable(counterexample),
            detail=detail,
        )
        self.records.append(rec)
        return rec

    def check(
        self, name: str, law: str, residual: float, scale: float, tol: Tolerance,
        witness: Callable[[], Any], detail: str = "",
    ) -> CheckRecord:
        """Record one case: PASS when `tol.ok(residual, scale)`, else FAIL with the
        counterexample `witness()`, built only then.  A case whose residual/scale
        is NaN fails, and adds nothing to the recorded residual (0 at scale 1)."""
        ok = tol.ok(residual, scale)
        if not residual / scale >= 0.0:
            ok, residual, scale = False, 0.0, 1.0
        return self.add(name, law, ok, residual, scale, counterexample=None if ok else witness(), detail=detail)

    def add_worst(
        self, name: str, law: str, residuals: np.ndarray, scales: np.ndarray, tol: Tolerance,
        witness: Callable[[int], Any], detail: str = "",
    ) -> CheckRecord:
        """`add_rows` for one row; `witness(i)` is the counterexample of case i."""
        return self.add_rows([name], law, residuals, scales, tol, lambda _, i: witness(i), [detail])[0]

    def add_rows(
        self, names: Sequence[str], law: str, residuals: np.ndarray, scales: np.ndarray, tol: Tolerance,
        witness: Callable[[int, int], Any], details: Sequence[str],
    ) -> list[CheckRecord]:
        """Record each row r of `residuals` and `scales` (axis 0; cases in flattened order) as
        names[r] with details[r]: the first case of largest residual/scale, as a loop keeping a
        strictly larger ratio finds it from residual 0 at scale 1.  It fails when any case fails
        (`tol.ok` is not monotone in the ratio once abs_floor > rel * scale), with `witness(r, i)`
        of the first NaN case i (the residual is the worst of the others), else of the worst
        case when it fails, else of the first failing case."""
        residuals, scales = residuals.reshape(len(names), -1), scales.reshape(len(names), -1)
        if not residuals.shape[1]:  # a row of no cases records the loop's start: residual 0, scale 1
            residuals, scales = np.zeros((len(names), 1)), np.ones((len(names), 1))
        ratio = residuals / scales
        nan = np.isnan(ratio)
        fails = nan | tol.fails(residuals, scales)
        ratio[nan] = 0.0
        for r, (i, failing) in enumerate(zip(ratio.argmax(axis=1).tolist(), fails.any(axis=1).tolist())):
            case = (residuals.item(r, i), scales.item(r, i)) if ratio.item(r, i) > 0.0 else (0.0, 1.0)
            if failing:
                i = nan[r].argmax() if nan[r].any() else i if fails.item(r, i) else fails[r].argmax()
            self.add(names[r], law, not failing, *case, witness(r, int(i)) if failing else None, details[r])
        return self.records[-len(names):]

    def add_first_failure(
        self, name: str, law: str, blocks: Iterable[tuple], tol: Tolerance, witness: Callable[[int], Any],
    ) -> CheckRecord:
        """Walk case blocks (residuals, scales, messages) in check order, as a case
        loop does, up to the first case that fails or errs (has a message; None
        for a block where no case errs).  Records the worst residual/scale of the
        cases walked, NaN ones aside, and FAIL with `witness(k)` of the failing
        case k, in flattened order, or ERROR with the message as the detail."""
        worst, worst_scale, offset = 0.0, 1.0, 0
        for res, scl, msg in blocks:
            fails = tol.fails(res, scl)
            hit = np.flatnonzero(fails if msg is None else fails | msg.astype(bool))
            end = int(hit[0]) + 1 if hit.size else res.size
            if hit.size and msg is not None and msg[end - 1]:
                return self.add(name, law, False, error=True, detail=msg[end - 1])
            ratio = res[:end] / scl[:end]
            if hit.size and np.isnan(ratio[-1]):  # only the stopping case can be NaN, as NaN fails
                ratio = ratio[:-1]
            if ratio.size and ratio.max() > worst / worst_scale:
                i = int(np.argmax(ratio))
                worst, worst_scale = float(res[i]), float(scl[i])
            if hit.size:
                return self.add(name, law, False, worst, worst_scale, witness(offset + end - 1))
            offset += res.size
        return self.add(name, law, True, worst, worst_scale)

    def extend(self, other: "Report", prefix: str = "") -> None:
        self.records += [replace(r, name=prefix + r.name) for r in other.records]

    def summary(self) -> str:
        lines = [f"# {self.title}"]
        for key in sorted(self.meta):
            lines.append(f"  {key} = {self.meta[key]}")
        for r in self.records:
            mark = {PASS: "PASS", FAIL: "FAIL", ERROR: "ERR "}[r.status]
            line = f"[{mark}] {r.name}: residual {r.residual:.3e} (scale {r.scale:.3e})  {r.law}"
            if r.detail:
                line += f"  | {r.detail}"
            if r.status == FAIL:
                line += f"  | counterexample: {r.counterexample}"
            lines.append(line)
        lines.append("result: " + ("OK" if self.passed else "NOT OK"))
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "title": self.title,
            "meta": jsonable(self.meta),
            "passed": self.passed,
            "records": [dict(vars(r)) for r in self.records],  # fields hold `jsonable` values already
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Report":
        report = cls(title=data["title"], meta=dict(data.get("meta", {})))
        report.records += [CheckRecord(**r) for r in data.get("records", [])]
        return report

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))
