"""Check records and reports, with lossless JSON round-tripping."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

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

    def add_worst(
        self, name: str, law: str, residuals: np.ndarray, scales: np.ndarray, tol: Tolerance,
        witness: Callable[[int], Any], detail: str = "",
    ) -> CheckRecord:
        """Record the first case of largest residual/scale, as a loop that keeps a
        strictly larger ratio finds it from residual 0 at scale 1 (NaN never wins).
        `witness(i)` is the counterexample of case i, in flattened order."""
        res, scl = np.ravel(residuals), np.ravel(scales)
        ratio = res / scl
        ratio[np.isnan(ratio)] = 0.0
        i = int(np.argmax(ratio)) if ratio.size else 0
        worst, scale = (float(res[i]), float(scl[i])) if ratio.size and ratio[i] > 0.0 else (0.0, 1.0)
        ok = tol.ok(worst, scale)
        return self.add(name, law, ok, worst, scale, counterexample=None if ok else witness(i), detail=detail)

    def extend(self, other: "Report", prefix: str = "") -> None:
        for r in other.records:
            self.records.append(
                CheckRecord(
                    name=prefix + r.name,
                    law=r.law,
                    status=r.status,
                    residual=r.residual,
                    scale=r.scale,
                    counterexample=r.counterexample,
                    detail=r.detail,
                )
            )

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
            "records": [
                {
                    "name": r.name,
                    "law": r.law,
                    "status": r.status,
                    "residual": r.residual,
                    "scale": r.scale,
                    "counterexample": r.counterexample,
                    "detail": r.detail,
                }
                for r in self.records
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Report":
        report = cls(title=data["title"], meta=dict(data.get("meta", {})))
        for r in data.get("records", []):
            report.records.append(
                CheckRecord(
                    name=r["name"],
                    law=r["law"],
                    status=r["status"],
                    residual=r["residual"],
                    scale=r["scale"],
                    counterexample=r.get("counterexample"),
                    detail=r.get("detail", ""),
                )
            )
        return report

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))
