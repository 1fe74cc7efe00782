"""The checked records of a problem, `Params` and `NonlinearitySpec`.

No numpy is imported here (the array methods f and f_prime import it in
their bodies), so the load window runs in the standard library alone.
`NonlinearitySpec` refuses what the reaction alone decides: (f0) f(0) > 0
and (f1) f nondecreasing, so that every reaction it admits is positone,
and a supremum of f that overflows.  Every admitted f is bounded, so
(f2)/(f2') hold.  The reaction's shape is read in closed form: `pieces`
gives the monotone pieces of f(t)/t^gamma, from which the window's check
and the bridge h are exact; nothing here samples a grid.
"""
from __future__ import annotations

import bisect
import dataclasses
import math

from .errors import ConfigurationError, FailedAssumptions, InfeasibleGeometry

__all__ = ["Params", "NonlinearitySpec"]

_KINDS = ("exp_saturating", "table")
_EXP_MAX = 709.782712893384  # log of the largest float: exp(x) is finite exactly up to it


@dataclasses.dataclass(frozen=True)
class Params:
    """Problem constants: exponents, singularity, geometry, and load.

    lam >= 0 is admitted (lam = 0 is a useful zero-load sanity case even
    though the multiplicity theory itself needs lam > 0).
    """

    p: float
    q: float
    gamma: float
    dim: int
    radius: float
    lam: float

    def __post_init__(self) -> None:
        if not (1.0 < self.p < self.q < math.inf):
            raise ValueError(f"need 1 < p < q, got p={self.p}, q={self.q}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"need gamma in (0,1), got {self.gamma}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"need integer dim >= 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        if not (self.radius > 0.0):
            raise ValueError(f"need radius > 0, got {self.radius}")
        if not (self.lam >= 0.0):
            raise ValueError(f"need lambda >= 0, got {self.lam}")
        # the radial cutoff construction needs the collar [eps, R] to be
        # narrower than 1; equivalently R <= 1 + N/(q-1)
        rmax = 1.0 + self.dim / (self.q - 1.0)
        if self.radius > rmax * (1.0 + 1e-12):
            raise InfeasibleGeometry(f"radius {self.radius} exceeds 1 + N/(q-1) = {rmax}")


@dataclasses.dataclass(frozen=True)
class NonlinearitySpec:
    """A reaction family plus its thresholds.

    kinds:
      exp_saturating  f(t) = exp(k t / (k + t)),  parameter 0 < k <= log of
                      the largest float, so that sup f = e^k is finite
      table           piecewise-linear through (table_t, table_f),
                      constant beyond the last abscissa; table_f must be
                      positive at 0 (f0) and nondecreasing (f1)
    For t < 0 every family evaluates to f(0).
    """

    kind: str
    theta1: float
    theta2: float
    khat: float = 0.0
    k: float | None = None
    table_t: tuple[float, ...] | None = None
    table_f: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown reaction kind {self.kind!r}")
        if not (0.0 < self.theta1 < self.theta2):
            raise ConfigurationError(f"need 0 < theta1 < theta2, got {self.theta1}, {self.theta2}")
        if self.khat < 0.0:
            raise ConfigurationError(f"need khat >= 0, got {self.khat}")
        if self.kind == "exp_saturating":
            if self.k is None or self.k <= 0.0:
                raise ConfigurationError("exp_saturating needs k > 0")
            if self.k > _EXP_MAX:
                raise ConfigurationError(f"exp_saturating needs k <= {_EXP_MAX}: sup f = e^k "
                                         f"overflows at k = {self.k}")
        else:
            if not self.table_t or not self.table_f or len(self.table_t) != len(self.table_f):
                raise ConfigurationError("table needs matching table_t/table_f")
            for name in ("table_t", "table_f"):
                column = tuple(float(v) for v in getattr(self, name))
                if not all(map(math.isfinite, column)):
                    raise ConfigurationError(f"{name} must hold finite numbers, got {column}")
                object.__setattr__(self, name, column)
            ts, fs = self.table_t, self.table_f
            if ts[0] < 0.0 or any(b <= a for a, b in zip(ts, ts[1:])):
                raise ConfigurationError("table_t must be strictly increasing and >= 0")
            if fs[0] <= 0.0:
                _refuse("f0", f"f(0) = table_f[0] = {fs[0]} is not positive")
            decrease = max([a - b for a, b in zip(fs, fs[1:])], default=0.0)
            if decrease > 0.0:
                _refuse("f1", f"table_f decreases by {decrease}")

    def f(self, t):
        import numpy as np

        t_arr = np.asarray(t, dtype=float)
        tpos = np.maximum(t_arr, 0.0)  # f(t) = f(0) for t < 0
        if self.kind == "exp_saturating":
            out = np.exp(self.k * tpos / (self.k + tpos))
        else:
            out = np.interp(tpos, self.table_t, self.table_f)
        return float(out) if t_arr.ndim == 0 else out

    def curve(self, t: float, gamma: float) -> float:
        """f(t)/(2 t^gamma), h above theta1, at t > 0 in `math`; inf where exp
        overflows (k t/(k + t) may round past k for t >> k).  f's formulas (a
        table's as np.interp's): this agrees with numpy's h to the rounding
        of exp and pow."""
        if self.kind == "exp_saturating":
            x = self.k * t / (self.k + t)
            return (math.exp(x) if x <= _EXP_MAX else math.inf) / t ** gamma / 2.0
        ts, fs = self.table_t, self.table_f
        j = bisect.bisect_right(ts, t) - 1
        if j < 0 or j == len(ts) - 1 or ts[j] == t:
            f = fs[max(j, 0)]
        else:
            f = (fs[j + 1] - fs[j]) / (ts[j + 1] - ts[j]) * (t - ts[j]) + fs[j]
        return f / t ** gamma / 2.0

    def pieces(self, gamma: float) -> list:
        """The monotone pieces of c(t) = f(t)/t^gamma on (0, inf), in closed form.

        A list of (start, rising): each piece runs from its start to the next
        one's (the last to inf), the first starts at 0 and falls (f > 0
        there), and neighbours alternate.  A rising piece is nondecreasing, a
        falling one strictly decreasing.  The sign of c' is that of
        t f'(t) - gamma f(t):
          exp_saturating  k^2 t - gamma (k + t)^2, with roots t- < t+ and
                          t- t+ = k^2; c falls everywhere when k <= 4 gamma
          table           on a piece f = a + b t with b >= 0,
                          (1 - gamma) b t - gamma a, so at most one root,
                          where c turns from falling to rising; a constant
                          stretch, also before the first and after the
                          last abscissa, falls
        """
        if self.kind == "exp_saturating":
            k = self.k
            if k <= 4.0 * gamma:
                return [(0.0, False)]
            root = k * math.sqrt(k * (k - 4.0 * gamma))
            t_plus = (k * k - 2.0 * gamma * k + root) / (2.0 * gamma)
            return [(0.0, False), (k * k / t_plus, True), (t_plus, False)]
        ts, fs = self.table_t, self.table_f
        raw = [(0.0, False)] if ts[0] > 0.0 else []
        for t0, t1, f0, f1 in zip(ts, ts[1:], fs, fs[1:]):
            b = (f1 - f0) / (t1 - t0)
            root = gamma * (f0 - b * t0) / ((1.0 - gamma) * b) if b else math.inf
            if root > t0:
                raw.append((t0, False))
            if root < t1:
                raw.append((max(root, t0), True))
        raw.append((ts[-1], False))
        out = raw[:1]
        for start, rising in raw[1:]:
            if rising != out[-1][1]:
                out.append((start, rising))
        return out

    def drop(self, gamma: float, lo: float, hi: float) -> float:
        """The whole decrease of h = f(t)/(2 t^gamma) on [lo, hi], 0 < lo: the
        sum of h(a) - h(b) over the falling pieces [a, b] of the curve there.
        It is 0 exactly when h is nondecreasing on [lo, hi] (in floats: inf
        after inf is no decrease)."""
        pieces = self.pieces(gamma)
        total = 0.0
        for (start, rising), (end, _) in zip(pieces, pieces[1:] + [(math.inf, None)]):
            a, b = max(start, lo), min(end, hi)
            if not rising and a < b:
                ha, hb = self.curve(a, gamma), self.curve(b, gamma)
                if ha > hb:
                    total += ha - hb
        return total

    def f_prime(self, t):
        """f'(t): a table's is the slope of the segment [t_j, t_j+1) that
        holds t, and 0 before the first and from the last abscissa on."""
        import numpy as np

        t_arr = np.asarray(t, dtype=float)
        tpos = np.maximum(t_arr, 0.0)
        if self.kind == "exp_saturating":
            out = np.exp(self.k * tpos / (self.k + tpos)) * self.k ** 2 / (self.k + tpos) ** 2
        else:
            ts = np.array(self.table_t)
            slopes = np.concatenate(((0.0,), np.diff(self.table_f) / np.diff(ts), (0.0,)))
            out = slopes[np.searchsorted(ts, tpos, side="right")]
        out = np.where(t_arr < 0.0, 0.0, out)
        return float(out) if t_arr.ndim == 0 else out

    @property
    def f0(self) -> float:
        return float(self.f(0.0))


def _refuse(name: str, why: str):
    raise FailedAssumptions(f"{why}: nonlinearity assumptions (f0)-(f4) failed validation: "
                            f"{name}")
