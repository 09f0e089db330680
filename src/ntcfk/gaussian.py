"""Truncated discrete Gaussians over Z_q^m and the distance toolbox.

The m-dimensional density is the product of identical 1-D factors, each
proportional to exp(-pi x^2 / B^2) on the centered lifts with |x| <= B.
Because |x_i| <= B per coordinate already forces ||x|| <= B*sqrt(m), the
per-coordinate truncation is the binding one; the ball condition is
implied and no extra renormalization is needed.
`TruncatedGaussian(q, width, dim)` holds q as a plain int, in the
[2, 2^31) range the params were checked for.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .zq import (Q_MAX, codes_are_digits, common_rows, domain_grid, lift_residues, read_only,
                 row_codes, sort_codes)

DEFAULT_TABLE_CAP = 10**6


@functools.lru_cache(maxsize=64)
def _table_1d_cached(r: int, width: float):
    """The lifts -r..r, their 1-D probabilities and the running sum of
    those, all read-only."""
    lifts = np.arange(-r, r + 1, dtype=np.int64)
    w = np.exp(-math.pi * lifts.astype(np.float64) ** 2 / width**2)
    probs = w / w.sum()
    return read_only(lifts), read_only(probs), read_only(np.cumsum(probs))


class TableTooLarge(RuntimeError):
    """Raised when an exact density table would exceed the configured cap."""


@dataclass(frozen=True, eq=False)
class Density:
    """A finite probability distribution: row i of the int64 matrix
    `points` is a support point, its coordinates residues in [0, 2^31),
    and probs[i] is its probability. No point appears twice, and the rows
    are in lexicographic order: rows that come in sorted are checked with
    one pass over their `zq.row_codes`, others are sorted once here.

    The codes are kept for the distances. They read every column in one
    radix above every coordinate, so the codes of two densities in the
    same radix compare directly. The constructor takes one above the
    largest coordinate. `Density.from_sorted` takes rows a caller has
    already coded and sorted, with their codes and the radix it coded
    them in, and codes nothing again: the sparse oracle's marginals come
    in that way, in the radix of their registers."""

    points: np.ndarray
    probs: np.ndarray
    _radix: int = field(init=False, repr=False)
    _codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        points, probs = _checked_arrays(self.points, self.probs)
        radix = int(points.max(initial=0)) + 1
        if points.min(initial=0) < 0 or radix > Q_MAX:
            raise ValueError("point coordinates must be residues in [0, 2^31)")
        radices = _radices(points.shape[1], radix)
        codes = row_codes(points, radices)
        if not _increasing(codes):
            order, codes = sort_codes(codes, radices)
            if not _increasing(codes):
                raise ValueError("repeated point")
            points, probs = points.take(order, axis=0), probs[order]
        self._settle(points, probs, radix, codes)

    @classmethod
    def from_sorted(cls, points, probs, radix: int, codes: np.ndarray) -> "Density":
        """A density from distinct rows in lexicographic order and their
        `zq.row_codes` in `radix` for every column. The probabilities and
        the coordinate range are checked as by the constructor, and the
        order by one pass over the codes, which are taken as given."""
        points, probs = _checked_arrays(points, probs)
        if (points.min(initial=0) < 0 or points.max(initial=0) >= radix
                or radix > Q_MAX):
            raise ValueError(f"point coordinates must be residues below {radix} <= 2^31")
        if codes.shape != probs.shape or not _increasing(codes):
            raise ValueError("points must come in sorted and distinct")
        d = object.__new__(cls)
        d._settle(points, probs, radix, codes)
        return d

    def _settle(self, points, probs, radix, codes) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_radix", radix)
        object.__setattr__(self, "_codes", codes)

    @property
    def table(self) -> dict:
        """The distribution as a dict from point tuples to probabilities,
        for display."""
        return dict(zip(map(tuple, self.points.tolist()), self.probs.tolist()))


def _checked_arrays(points, probs) -> tuple[np.ndarray, np.ndarray]:
    """An int64 point matrix and its probabilities, one per row, each
    non-negative and together summing to 1."""
    points, probs = np.asarray(points), np.asarray(probs, dtype=np.float64)
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
    return points.astype(np.int64, copy=False), probs


def _increasing(codes: np.ndarray) -> bool:
    return bool((codes[1:] > codes[:-1]).all())


def _radices(width: int, radix: int) -> np.ndarray:
    """The same radix for every column. (A column-wise max costs ten
    times a global one here.)"""
    return np.full(width, radix, dtype=np.int64)


@functools.lru_cache(maxsize=16)
def _support_cached(q: int, r: int, width: float, dim: int):
    """Every support point of D_{Z_q^dim, width} with radius r and its
    probability, both read-only."""
    lifts, probs, _cdf = _table_1d_cached(r, width)
    idx = domain_grid(len(lifts), dim)
    return read_only(lifts[idx] % q), read_only(probs[idx].prod(axis=1))


@dataclass(frozen=True)
class TruncatedGaussian:
    """D_{Z_q^m, B}: product of 1-D truncated Gaussians on centered lifts."""

    q: int
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
        return min(int(math.floor(self.width)), (self.q - 1) // 2)

    def _table_1d(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _table_1d_cached(self.radius, self.width)

    def residue_probs(self) -> np.ndarray:
        """The 1-D probability of every residue in [0, q), indexed by the
        residue; 0 outside the truncation. It has q entries, so it is for
        small q only (the enumerating prover, whose q^n is capped)."""
        lifts, probs, _cdf = self._table_1d()
        return np.bincount(lifts % self.q, weights=probs, minlength=self.q)

    def density_eval(self, x: np.ndarray) -> float:
        """Probability of a vector x of residues; 0 outside the truncated
        support."""
        if len(x) != self.dim:
            raise ValueError(f"expected length {self.dim}")
        r = self.radius
        idx = lift_residues(x, self.q) + r
        if idx.min() < 0 or idx.max() > 2 * r:
            return 0.0
        return float(self._table_1d()[1][idx].prod())

    def support_size(self) -> int:
        return (2 * self.radius + 1) ** self.dim

    def support_arrays(self, cap: int = DEFAULT_TABLE_CAP) -> tuple[np.ndarray, np.ndarray]:
        """Every support point as a row of residues, with its probability,
        in lexicographic order of the lifts. Cached, so both are
        read-only."""
        if self.support_size() > cap:
            raise TableTooLarge(
                f"support has {self.support_size()} points, cap is {cap}"
            )
        return _support_cached(self.q, self.radius, self.width, self.dim)

    def table(self, cap: int = DEFAULT_TABLE_CAP) -> Density:
        """The exact density over the truncated support."""
        return Density(*self.support_arrays(cap))

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """The 1-D lift drawn by each uniform in u (any shape), by inverse
        CDF over the cached table."""
        lifts, _probs, cdf = self._table_1d()
        idx = np.searchsorted(cdf, u, side="right")
        return lifts[np.minimum(idx, len(lifts) - 1)]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one vector of residues by per-coordinate inverse-CDF
        sampling, as a read-only array."""
        return read_only(self.inverse_cdf(rng.random(self.dim)) % self.q)


def _shared(f0: Density, f1: Density):
    """Index expressions (i, j) of the points the two supports share, with
    f0.points[i] == f1.points[j]. Points of different widths never match.

    Both point sets are sorted, so one searchsorted of f0's codes into
    f1's finds the pairs, and identical supports pair up whole. Codes in
    different radices are made again in the larger one; where they fall
    back to ranks, which do not compare across calls, the two sets are
    coded together by `zq.common_rows`."""
    width = f0.points.shape[1]
    if width != f1.points.shape[1]:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    c0, c1 = f0._codes, f1._codes
    radices = _radices(width, max(f0._radix, f1._radix))
    if not codes_are_digits(radices):
        return common_rows(f0.points, f1.points, radices)
    if f0._radix != f1._radix:
        c0, c1 = row_codes(f0.points, radices), row_codes(f1.points, radices)
    if np.array_equal(c0, c1):
        return np.s_[:], np.s_[:]
    pos = np.minimum(np.searchsorted(c1, c0), len(c1) - 1)
    hit = c1[pos] == c0
    return np.flatnonzero(hit), pos[hit]


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
    # Exact zeros leave an exactly rounded sum as it is; on two equal
    # joints they are about half the terms.
    return min(max(0.5 * math.fsum(terms[terms != 0.0].tolist()), 0.0), 1.0)


def trace_distance_from_h2(h2: float) -> float:
    """Trace distance between the square-root amplitude states of two
    densities at Hellinger-squared distance h2."""
    if not 0.0 <= h2 <= 1.0:
        raise ValueError(f"h2 must be in [0, 1], got {h2}")
    return math.sqrt(max(0.0, 1.0 - (1.0 - h2) ** 2))


def shifted_density(g: TruncatedGaussian, shift: np.ndarray) -> Density:
    """The distribution of (X + shift) mod q for X ~ g and a vector shift
    of residues."""
    if len(shift) != g.dim:
        raise ValueError("shift dimension mismatch")
    base = g.table()
    return Density((base.points + shift) % g.q, base.probs)


def hellinger_sq_shifts(g: TruncatedGaussian, shifts: np.ndarray) -> list[float]:
    """hellinger_sq(g.table(), shifted_density(g, s)) for a 1-D g and each
    residue s in shifts, read off the 1-D table: the same products and
    the same exactly rounded sum, so the same figures."""
    if g.dim != 1:
        raise ValueError("shifts of a 1-D Gaussian only")
    points, probs = g.support_arrays()
    r, q = g.radius, g.q
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
