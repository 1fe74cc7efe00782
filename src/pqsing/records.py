"""The checked records of a problem, `Params` and `NonlinearitySpec`.

No numpy is imported here (the array methods f and f_prime import it in
their bodies), so the load window runs in the standard library alone.
The reaction's shape is read in closed form: `pieces` gives the monotone
pieces of f(t)/t^gamma, from which the window's check, the bridge h and
assumptions (f1)-(f3) are exact; nothing here samples a grid.
"""
from __future__ import annotations

import bisect
import dataclasses
import math

from .errors import ConfigurationError, InfeasibleGeometry

__all__ = ["Params", "NonlinearitySpec"]

_KINDS = ("exp_saturating", "power", "table")
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
      exp_saturating  f(t) = exp(k t / (k + t)),  parameter k > 0
      power           f(t) = t^m,                 parameter m > 0
      table           piecewise-linear through (table_t, table_f),
                      constant beyond the last abscissa
    For t < 0 every family evaluates to f(0).
    """

    kind: str
    theta1: float
    theta2: float
    khat: float = 0.0
    k: float | None = None
    m: float | None = None
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
        elif self.kind == "power":
            if self.m is None or self.m <= 0.0:
                raise ConfigurationError("power needs m > 0")
        else:
            if not self.table_t or not self.table_f or len(self.table_t) != len(self.table_f):
                raise ConfigurationError("table needs matching table_t/table_f")
            for name in ("table_t", "table_f"):
                column = tuple(float(v) for v in getattr(self, name))
                if not all(map(math.isfinite, column)):
                    raise ConfigurationError(f"{name} must hold finite numbers, got {column}")
                object.__setattr__(self, name, column)
            ts = self.table_t
            if ts[0] < 0.0 or any(b <= a for a, b in zip(ts, ts[1:])):
                raise ConfigurationError("table_t must be strictly increasing and >= 0")

    def f(self, t):
        import numpy as np

        t_arr = np.asarray(t, dtype=float)
        tpos = np.maximum(t_arr, 0.0)  # f(t) = f(0) for t < 0
        if self.kind == "exp_saturating":
            out = np.exp(self.k * tpos / (self.k + tpos))
        elif self.kind == "power":
            out = tpos ** self.m
        else:
            out = np.interp(tpos, self.table_t, self.table_f)
        return float(out) if t_arr.ndim == 0 else out

    def curve(self, t: float, gamma: float) -> float:
        """f(t)/(2 t^gamma), h above theta1, at t > 0 in `math`; inf where f
        overflows.  f's formulas (a table's as np.interp's): this agrees with
        numpy's h to the rounding of exp and pow."""
        if self.kind == "exp_saturating":
            x = self.k * t / (self.k + t)
            return (math.exp(x) if x <= _EXP_MAX else math.inf) / t ** gamma / 2.0
        return self._f_at(t) / t ** gamma / 2.0

    def _f_at(self, t: float) -> float:
        if self.kind == "power":
            try:
                return t ** self.m
            except OverflowError:
                return math.inf
        ts, fs = self.table_t, self.table_f
        j = bisect.bisect_right(ts, t) - 1
        if j < 0 or j == len(ts) - 1 or ts[j] == t:
            return fs[max(j, 0)]
        return (fs[j + 1] - fs[j]) / (ts[j + 1] - ts[j]) * (t - ts[j]) + fs[j]

    def pieces(self, gamma: float) -> list:
        """The monotone pieces of c(t) = f(t)/t^gamma on (0, inf), in closed form.

        A list of (start, rising): each piece runs from its start to the next
        one's (the last to inf), the first starts at 0, and neighbours
        alternate.  A rising piece is nondecreasing, a falling one strictly
        decreasing.  The sign of c' is that of t f'(t) - gamma f(t):
          exp_saturating  k^2 t - gamma (k + t)^2, with roots t- < t+ and
                          t- t+ = k^2; c falls everywhere when k <= 4 gamma
          power           (m - gamma) t^m: c = t^(m - gamma) is monotone
          table           on a piece f = a + b t, (1 - gamma) b t - gamma a,
                          so at most one root; a constant stretch, also
                          before the first and after the last abscissa,
                          falls where f > 0
        """
        if self.kind == "exp_saturating":
            k = self.k
            if k <= 4.0 * gamma:
                return [(0.0, False)]
            root = k * math.sqrt(k * (k - 4.0 * gamma))
            t_plus = (k * k - 2.0 * gamma * k + root) / (2.0 * gamma)
            return [(0.0, False), (k * k / t_plus, True), (t_plus, False)]
        if self.kind == "power":
            return [(0.0, self.m >= gamma)]
        ts, fs = self.table_t, self.table_f
        raw = [(0.0, fs[0] <= 0.0)] if ts[0] > 0.0 else []
        for t0, t1, f0, f1 in zip(ts, ts[1:], fs, fs[1:]):
            b = (f1 - f0) / (t1 - t0)
            a = f0 - b * t0
            if b == 0.0:
                raw.append((t0, a <= 0.0))
                continue
            root = gamma * a / ((1.0 - gamma) * b)  # c' has the sign of -b before, +b after
            if root > t0:
                raw.append((t0, b < 0.0))
            if root < t1:
                raw.append((max(root, t0), b > 0.0))
        raw.append((ts[-1], fs[-1] <= 0.0))
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

    @property
    def sup_f(self) -> float:
        """sup f over t >= 0: e^k, inf, or the table's largest entry (inf
        when e^k overflows)."""
        if self.kind == "exp_saturating":
            return math.exp(self.k) if self.k <= _EXP_MAX else math.inf
        return math.inf if self.kind == "power" else max(self.table_f)

    def f_prime(self, t):
        import numpy as np

        t_arr = np.asarray(t, dtype=float)
        tpos = np.maximum(t_arr, 0.0)
        if self.kind == "exp_saturating":
            out = np.exp(self.k * tpos / (self.k + tpos)) * self.k ** 2 / (self.k + tpos) ** 2
        elif self.kind == "power":
            out = self.m * tpos ** (self.m - 1.0)
        else:
            step = 1e-6 * max(1.0, float(np.max(tpos)) if tpos.size else 1.0)
            out = (np.interp(tpos + step, self.table_t, self.table_f)
                   - np.interp(np.maximum(tpos - step, 0.0), self.table_t, self.table_f)) / (
                np.minimum(tpos, step) + step)
        out = np.where(t_arr < 0.0, 0.0, out)
        return float(out) if t_arr.ndim == 0 else out

    @property
    def f0(self) -> float:
        return float(self.f(0.0))
