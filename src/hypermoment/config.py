"""Numerical tolerance policy.

All verification routines accept an explicit :class:`Tolerance`; when none is
given they fall back to the process-wide default (relative 1e-9 with an
absolute floor of 1e-12), which is enough headroom for double-precision
polynomial arithmetic up to degree ~20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerance with an absolute floor.

    A residual passes when it is at most ``max(abs_floor, rel * scale)``;
    callers normalise ``scale`` as the magnitude of the largest term in the
    identity under test, clamped below by 1.  Both must be finite and
    nonnegative: under NaN the two forms of the pass rule disagree.
    """

    rel: float = 1e-9
    abs_floor: float = 1e-12

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v >= 0 for v in (self.rel, self.abs_floor)):
            raise DomainError(
                f"tolerance must be finite and nonnegative, got rel={self.rel}, abs_floor={self.abs_floor}"
            )

    def bound(self, scale: float = 1.0) -> float:
        return max(self.abs_floor, self.rel * scale)

    def ok(self, residual: float, scale: float = 1.0) -> bool:
        return residual <= self.bound(scale)

    def fails(self, residuals: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """The cases whose residual exceeds max(abs_floor, rel * scale), elementwise; NaN fails."""
        return ~(residuals <= np.maximum(self.abs_floor, self.rel * scales))


def scale_of(*values: complex) -> float:
    """Normalisation for relative residuals: max(1, |values|...)."""
    top = 1.0
    for v in values:
        m = abs(v)
        if m > top:
            top = m
    return top


_default = Tolerance()


def default_tolerance() -> Tolerance:
    return _default


def set_default_tolerance(tol: Tolerance) -> None:
    """Replace the process-wide default tolerance."""
    global _default
    _default = tol
