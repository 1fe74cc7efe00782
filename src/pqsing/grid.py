"""Uniform radial grids, grid functions, and pointwise certificate reports."""
from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

# relative non-uniformity tolerated in node spacing
_UNIFORM_RTOL = 1e-12


@dataclasses.dataclass(frozen=True)
class GridFunction:
    """Values of a radial function on a uniform grid r_0 < ... < r_n.

    Arrays are stored as float64 and never mutated after construction.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        values = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if nodes.ndim != 1 or values.ndim != 1:
            raise ValueError("nodes and values must be one-dimensional")
        if nodes.size != values.size:
            raise ValueError(f"length mismatch: {nodes.size} nodes, {values.size} values")
        if nodes.size < 2:
            raise ValueError("need at least two nodes")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        h = steps[0]
        if np.max(np.abs(steps - h)) > _UNIFORM_RTOL * max(abs(nodes[0]), abs(nodes[-1]), h):
            raise ValueError("node spacing is not uniform")

    @property
    def h(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def interp(self, r: np.ndarray | float) -> np.ndarray | float:
        out = np.interp(r, self.nodes, self.values)
        return float(out) if np.ndim(r) == 0 else out


def same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    """Two node arrays match to 1e-12 absolute (the same array trivially)."""
    return a is b or (a.size == b.size and bool(np.allclose(a, b, rtol=0.0, atol=1e-12)))


@dataclasses.dataclass(frozen=True)
class CertificateReport:
    """Per-node margins for a pointwise inequality, plus a verdict.

    kind is one of 'subsolution', 'supersolution', 'ordering',
    'nonordering', or a composite label like 'radial_claim'.  The sign
    convention is: margins >= -tolerance means the inequality holds at
    that node (for 'nonordering', at least one margin must exceed
    +tolerance instead).  `passed` is the aggregate verdict; `detail`
    carries the numbers behind it.
    """

    kind: str
    margins: np.ndarray
    passed: bool
    tolerance: float
    detail: dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "margins", np.asarray(self.margins, dtype=float))

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margins)) if self.margins.size else float("nan")

    @property
    def max_margin(self) -> float:
        return float(np.max(self.margins)) if self.margins.size else float("nan")

    def summary(self) -> dict[str, Any]:
        out = {
            "kind": self.kind,
            "passed": bool(self.passed),
            "tolerance": float(self.tolerance),
            "min_margin": self.min_margin,
            "max_margin": self.max_margin,
        }
        out.update({k: v for k, v in self.detail.items() if _jsonable(v)})
        return out


def _jsonable(v: Any) -> bool:
    return isinstance(v, (bool, int, float, str, type(None)))
