"""Truncated discrete Gaussians over Z_q^m and the distance toolbox.

The m-dimensional density is the product of identical 1-D factors, each
proportional to exp(-pi x^2 / B^2) on the centered lifts with |x| <= B.
Because |x_i| <= B per coordinate already forces ||x|| <= B*sqrt(m), the
per-coordinate truncation is the binding one; the ball condition is
implied and no extra renormalization is needed.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .zq import Modulus, ZqVector, domain_grid, lift_value

DEFAULT_TABLE_CAP = 10**6


@functools.lru_cache(maxsize=64)
def _table_1d_cached(q: int, width: float):
    r = min(int(math.floor(width)), (q - 1) // 2)
    lifts = np.arange(-r, r + 1, dtype=np.int64)
    w = np.exp(-math.pi * lifts.astype(np.float64) ** 2 / width**2)
    probs = w / w.sum()
    lifts.setflags(write=False)
    probs.setflags(write=False)
    return lifts, probs


class TableTooLarge(RuntimeError):
    """Raised when an exact density table would exceed the configured cap."""


def _kahan_sum(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


@dataclass(frozen=True)
class Density:
    """A finite probability table keyed by support point (tuple of residues)."""

    table: dict

    def __post_init__(self):
        probs = np.fromiter(self.table.values(), dtype=np.float64, count=len(self.table))
        # NaN fails `>= 0` and +inf fails the sum check, so both raise.
        if not (probs >= 0).all():
            raise ValueError("probabilities must be non-negative numbers")
        s = float(probs.sum())
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"density sums to {s}, not 1")

    def support(self):
        return self.table.keys()

    def __getitem__(self, point) -> float:
        return self.table.get(point, 0.0)


@dataclass(frozen=True)
class TruncatedGaussian:
    """D_{Z_q^m, B}: product of 1-D truncated Gaussians on centered lifts."""

    modulus: Modulus
    width: float
    dim: int

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    @property
    def radius(self) -> int:
        """Largest integer lift magnitude inside the 1-D truncation."""
        return min(int(math.floor(self.width)), (self.modulus.q - 1) // 2)

    def _table_1d(self) -> tuple[np.ndarray, np.ndarray]:
        return _table_1d_cached(self.modulus.q, self.width)

    def eval_1d(self, residue: int) -> float:
        lift = lift_value(residue, self.modulus.q)
        if abs(lift) > self.radius:
            return 0.0
        lifts, probs = self._table_1d()
        return float(probs[lift + self.radius])

    def density_eval(self, x: ZqVector) -> float:
        """Probability of x; 0 outside the truncated support."""
        if len(x) != self.dim:
            raise ValueError(f"expected length {self.dim}")
        p = 1.0
        for v in x.entries:
            p *= self.eval_1d(int(v))
            if p == 0.0:
                return 0.0
        return p

    def support_size(self) -> int:
        return (2 * self.radius + 1) ** self.dim

    def support_arrays(self, cap: int = DEFAULT_TABLE_CAP) -> tuple[np.ndarray, np.ndarray]:
        """Every support point as a row of residues, with its probability,
        in lexicographic order of the lifts."""
        if self.support_size() > cap:
            raise TableTooLarge(
                f"support has {self.support_size()} points, cap is {cap}"
            )
        lifts, probs = self._table_1d()
        idx = domain_grid(len(lifts), self.dim)
        return lifts[idx] % self.modulus.q, probs[idx].prod(axis=1)

    def table(self, cap: int = DEFAULT_TABLE_CAP) -> Density:
        """Materialize the exact density table (residue tuples -> prob)."""
        points, probs = self.support_arrays(cap)
        return Density(dict(zip(map(tuple, points.tolist()), probs.tolist())))

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """The 1-D lift drawn by each uniform in u (any shape), by inverse
        CDF over the cached table."""
        lifts, probs = self._table_1d()
        idx = np.searchsorted(np.cumsum(probs), u, side="right")
        return lifts[np.minimum(idx, len(lifts) - 1)]

    def sample(self, rng: np.random.Generator) -> ZqVector:
        """Draw one vector by per-coordinate inverse-CDF sampling."""
        return ZqVector(self.inverse_cdf(rng.random(self.dim)), self.modulus)


def hellinger_sq(f0: Density, f1: Density) -> float:
    """H^2(f0, f1) = 1 - sum_x sqrt(f0(x) f1(x))."""
    common = f0.table.keys() & f1.table.keys()
    bc = _kahan_sum(math.sqrt(f0.table[x] * f1.table[x]) for x in common)
    return min(max(1.0 - bc, 0.0), 1.0)


def tv_distance(f0: Density, f1: Density) -> float:
    """(1/2) sum_x |f0(x) - f1(x)|, one pass over each table."""
    t0, t1 = f0.table, f1.table
    get1 = t1.get
    diffs = [abs(p - get1(x, 0.0)) for x, p in t0.items()]
    diffs += [p for x, p in t1.items() if x not in t0]
    return min(max(0.5 * _kahan_sum(diffs), 0.0), 1.0)


def trace_distance_from_h2(h2: float) -> float:
    """Trace distance between the square-root amplitude states of two
    densities at Hellinger-squared distance h2."""
    if not 0.0 <= h2 <= 1.0:
        raise ValueError(f"h2 must be in [0, 1], got {h2}")
    return math.sqrt(max(0.0, 1.0 - (1.0 - h2) ** 2))


def shifted_density(g: TruncatedGaussian, shift: ZqVector) -> Density:
    """Table of the distribution of (X + shift) mod q for X ~ g."""
    if len(shift) != g.dim:
        raise ValueError("shift dimension mismatch")
    q = g.modulus.q
    base = g.table()
    sh = shift.as_tuple()
    return Density(
        {
            tuple((p + s) % q for p, s in zip(point, sh)): prob
            for point, prob in base.table.items()
        }
    )


def hellinger_shift_bound(B: float, m: int, shift_norm: float) -> float:
    """Upper bound 1 - exp(-2 pi sqrt(m) ||e|| / B) on H^2(D, D+e)."""
    if shift_norm < 0:
        raise ValueError("shift norm must be nonnegative")
    return 1.0 - math.exp(-2.0 * math.pi * math.sqrt(m) * shift_norm / B)
