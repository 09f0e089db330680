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

from .zq import Q_MAX, Modulus, ZqVector, common_rows, domain_grid, lift_residues, rows_distinct

DEFAULT_TABLE_CAP = 10**6


@functools.lru_cache(maxsize=64)
def _table_1d_cached(r: int, width: float):
    """The lifts -r..r, their 1-D probabilities and the running sum of
    those, all read-only."""
    lifts = np.arange(-r, r + 1, dtype=np.int64)
    w = np.exp(-math.pi * lifts.astype(np.float64) ** 2 / width**2)
    probs = w / w.sum()
    cdf = np.cumsum(probs)
    for a in (lifts, probs, cdf):
        a.setflags(write=False)
    return lifts, probs, cdf


class TableTooLarge(RuntimeError):
    """Raised when an exact density table would exceed the configured cap."""


@dataclass(frozen=True, eq=False)
class Density:
    """A finite probability distribution: row i of the int64 matrix
    `points` is a support point, its coordinates residues in [0, 2^31),
    and probs[i] is its probability. No point appears twice."""

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        points, probs = np.asarray(self.points), np.asarray(self.probs, dtype=np.float64)
        if points.ndim != 2 or not np.issubdtype(points.dtype, np.integer):
            raise ValueError("points must be an integer matrix, one row per point")
        if probs.shape != (len(points),):
            raise ValueError(f"{len(points)} points need as many probabilities, got {probs.shape}")
        # NaN fails `>= 0` and +inf fails the sum check, so both raise.
        if not (probs >= 0).all():
            raise ValueError("probabilities must be non-negative numbers")
        s = float(probs.sum())
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"density sums to {s}, not 1")
        points = points.astype(np.int64, copy=False)
        if points.min(initial=0) < 0 or points.max(initial=0) >= Q_MAX:
            raise ValueError("point coordinates must be residues in [0, 2^31)")
        if not rows_distinct(points, _radices(points)):
            raise ValueError("repeated point")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "probs", probs)

    @property
    def table(self) -> dict:
        """The distribution as a dict from point tuples to probabilities,
        for display."""
        return dict(zip(map(tuple, self.points.tolist()), self.probs.tolist()))


def _radices(*point_sets: np.ndarray) -> np.ndarray:
    """One radix for every column, above every coordinate of the point
    sets. (A column-wise max costs ten times a global one here.)"""
    top = max(int(p.max(initial=0)) for p in point_sets)
    return np.full(point_sets[0].shape[1], top + 1, dtype=np.int64)


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

    def _table_1d(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _table_1d_cached(self.radius, self.width)

    def residue_probs(self) -> np.ndarray:
        """The 1-D probability of every residue in [0, q), indexed by the
        residue; 0 outside the truncation. It has q entries, so it is for
        small q only (the enumerating prover, whose q^n is capped)."""
        lifts, probs, _cdf = self._table_1d()
        return np.bincount(lifts % self.modulus.q, weights=probs, minlength=self.modulus.q)

    def density_eval(self, x: ZqVector) -> float:
        """Probability of x; 0 outside the truncated support."""
        if len(x) != self.dim:
            raise ValueError(f"expected length {self.dim}")
        r = self.radius
        idx = lift_residues(x.entries, self.modulus.q) + r
        if idx.min() < 0 or idx.max() > 2 * r:
            return 0.0
        return float(self._table_1d()[1][idx].prod())

    def support_size(self) -> int:
        return (2 * self.radius + 1) ** self.dim

    def support_arrays(self, cap: int = DEFAULT_TABLE_CAP) -> tuple[np.ndarray, np.ndarray]:
        """Every support point as a row of residues, with its probability,
        in lexicographic order of the lifts."""
        if self.support_size() > cap:
            raise TableTooLarge(
                f"support has {self.support_size()} points, cap is {cap}"
            )
        lifts, probs, _cdf = self._table_1d()
        idx = domain_grid(len(lifts), self.dim)
        return lifts[idx] % self.modulus.q, probs[idx].prod(axis=1)

    def table(self, cap: int = DEFAULT_TABLE_CAP) -> Density:
        """The exact density over the truncated support."""
        return Density(*self.support_arrays(cap))

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """The 1-D lift drawn by each uniform in u (any shape), by inverse
        CDF over the cached table."""
        lifts, _probs, cdf = self._table_1d()
        idx = np.searchsorted(cdf, u, side="right")
        return lifts[np.minimum(idx, len(lifts) - 1)]

    def sample(self, rng: np.random.Generator) -> ZqVector:
        """Draw one vector by per-coordinate inverse-CDF sampling."""
        return ZqVector(self.inverse_cdf(rng.random(self.dim)), self.modulus)


def _shared(f0: Density, f1: Density):
    """Indices (i, j) of the points the two supports share, with
    f0.points[i] == f1.points[j]. Points of different widths never match."""
    if f0.points.shape[1] != f1.points.shape[1]:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    return common_rows(f0.points, f1.points, _radices(f0.points, f1.points))


def _h2_from_affinity(bc: float) -> float:
    return min(max(1.0 - bc, 0.0), 1.0)


def hellinger_sq(f0: Density, f1: Density) -> float:
    """H^2(f0, f1) = 1 - sum_x sqrt(f0(x) f1(x))."""
    i, j = _shared(f0, f1)
    return _h2_from_affinity(math.fsum(np.sqrt(f0.probs[i] * f1.probs[j]).tolist()))


def tv_distance(f0: Density, f1: Density) -> float:
    """(1/2) sum_x |f0(x) - f1(x)|: one term per shared point and one per
    point of only one support, summed exactly rounded."""
    i, j = _shared(f0, f1)
    terms = np.concatenate(
        [np.abs(f0.probs[i] - f1.probs[j]), np.delete(f0.probs, i), np.delete(f1.probs, j)]
    )
    return min(max(0.5 * math.fsum(terms.tolist()), 0.0), 1.0)


def trace_distance_from_h2(h2: float) -> float:
    """Trace distance between the square-root amplitude states of two
    densities at Hellinger-squared distance h2."""
    if not 0.0 <= h2 <= 1.0:
        raise ValueError(f"h2 must be in [0, 1], got {h2}")
    return math.sqrt(max(0.0, 1.0 - (1.0 - h2) ** 2))


def shifted_density(g: TruncatedGaussian, shift: ZqVector) -> Density:
    """The distribution of (X + shift) mod q for X ~ g."""
    if len(shift) != g.dim:
        raise ValueError("shift dimension mismatch")
    base = g.table()
    return Density((base.points + shift.entries) % g.modulus.q, base.probs)


def hellinger_sq_shifts(g: TruncatedGaussian, shifts: np.ndarray) -> list[float]:
    """hellinger_sq(g.table(), shifted_density(g, s)) for a 1-D g and each
    residue s in shifts, read off the 1-D table: the same products and
    the same exactly rounded sum, so the same figures."""
    if g.dim != 1:
        raise ValueError("shifts of a 1-D Gaussian only")
    points, probs = g.support_arrays()
    r, q = g.radius, g.modulus.q
    # Shifted point k lands on the base point of lift `moved` when |moved| <= r.
    moved = lift_residues((points[:, 0] + np.asarray(shifts)[:, None]) % q, q)
    hit = np.abs(moved) <= r
    roots = np.where(hit, np.sqrt(probs[np.where(hit, moved + r, 0)] * probs), 0.0)
    return [_h2_from_affinity(math.fsum(row)) for row in roots.tolist()]


def hellinger_shift_bound(B: float, m: int, shift_norm: float) -> float:
    """Upper bound 1 - exp(-2 pi sqrt(m) ||e|| / B) on H^2(D, D+e)."""
    if shift_norm < 0:
        raise ValueError("shift norm must be nonnegative")
    return 1.0 - math.exp(-2.0 * math.pi * math.sqrt(m) * shift_norm / B)
