"""Gadget-based trapdoor key generation and noisy linear-system inversion.

The public matrix is the tall stack A = [Abar ; G - Rbar*Abar] mod q, where
G is the n-column power-of-base gadget block and Rbar has uniform entries
in {-1, 0, 1}. The short relation [Rbar | I] * A = G turns a noisy image
v = A s + e into a noisy gadget syndrome G s + e', from which each
coordinate of s is decoded independently.

Per-coordinate decoding minimizes the max syndrome residual over the
gadget rows. Decoding is declared certain only when that residual is
strictly below half the gadget code's minimax distance; anything else
raises DecodeFailure rather than returning a guess.

Keys whose dimensions cannot fit the gadget layout (m < n_bar + n*k_g)
fall back to an exhaustive-search trapdoor: inversion scans all q^n
secrets. This is only allowed under a small search cap and exists so the
tiniest oracle-comparable parameter sets still support key generation.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .zq import (DimensionError, Modulus, ZqMatrix, ZqVector, domain_grid,
                 euclidean_norm, mat_vec_mul)

EXHAUSTIVE_CAP = 2**16


class DecodeFailure(RuntimeError):
    """Inversion could not certify a unique answer."""


class LayoutError(ValueError):
    """Requested dimensions cannot accommodate the trapdoor layout."""


@dataclass(frozen=True)
class GadgetParams:
    base: int
    q: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("gadget base must be >= 2")

    @property
    def k(self) -> int:
        """Digits per coordinate: smallest k with base^k >= q."""
        k = 1
        while self.base**k < self.q:
            k += 1
        return k

    @property
    def row(self) -> np.ndarray:
        return np.array([self.base**j for j in range(self.k)], dtype=np.int64)


@functools.lru_cache(maxsize=32)
def gadget_minimax_distance(q: int, base: int) -> int:
    """Min over nonzero delta of max_j |lift(base^j * delta mod q)|.

    Half of this is the certified decoding radius for the per-coordinate
    minimax decoder.
    """
    g = GadgetParams(base, q)
    deltas = np.arange(1, q, dtype=np.int64)
    worst = np.zeros(q - 1, dtype=np.int64)
    for j in range(g.k):
        v = (deltas * (base**j)) % q
        v = np.where(v > q // 2, v - q, v)
        worst = np.maximum(worst, np.abs(v))
    return int(worst.min())


@dataclass(frozen=True)
class TrapdoorKey:
    """Trapdoor for a public matrix A, either gadget-based or exhaustive.

    For the gadget layout, R holds Rbar (w x n_bar, entries in {-1,0,1})
    and the relation [Rbar | I_w] A = G holds exactly mod q.
    """

    A: ZqMatrix
    mode: str  # "gadget" | "exhaustive"
    R: np.ndarray | None
    gadget: GadgetParams | None
    n_bar: int

    @property
    def n(self) -> int:
        return self.A.cols

    @property
    def m(self) -> int:
        return self.A.rows

    def relation_holds(self) -> bool:
        """Check [Rbar | I] A = G mod q (gadget mode only)."""
        if self.mode != "gadget":
            return True
        q = self.A.modulus.q
        w = self.m - self.n_bar
        Abar = self.A.entries[: self.n_bar]
        bottom = self.A.entries[self.n_bar :]
        left = (self.R @ Abar + bottom) % q
        return np.array_equal(left, _gadget_block(self.n, self.gadget) % q)


def _gadget_block(n: int, g: GadgetParams) -> np.ndarray:
    """The (n*k) x n block with base powers down each coordinate's rows."""
    k = g.k
    G = np.zeros((n * k, n), dtype=np.int64)
    for i in range(n):
        G[i * k : (i + 1) * k, i] = g.row
    return G


def required_rows(n: int, q: int, base: int = 2, n_bar: int | None = None) -> int:
    """Minimum m for the gadget layout."""
    k = GadgetParams(base, q).k
    nb = n * k if n_bar is None else n_bar
    return nb + n * k


def gen_trap(
    n: int,
    m: int,
    q: int,
    rng: np.random.Generator,
    base: int = 2,
    mode: str = "auto",
) -> tuple[ZqMatrix, TrapdoorKey]:
    """Generate (A, trapdoor) with A statistically close to uniform.

    mode "gadget" insists on the gadget layout and raises LayoutError if m
    is too small; "auto" falls back to the exhaustive trapdoor when the
    layout does not fit and q^n is under the search cap.
    """
    modulus = Modulus(q)
    if not modulus.is_prime:
        raise ValueError(f"q={q} must be prime")
    g = GadgetParams(base, q)
    w = n * g.k

    if m >= w + 1 and mode in ("auto", "gadget"):
        n_bar = m - w
        Abar = rng.integers(0, q, size=(n_bar, n), dtype=np.int64)
        Rbar = rng.integers(-1, 2, size=(w, n_bar), dtype=np.int64)
        bottom = (_gadget_block(n, g) - Rbar @ Abar) % q
        A = ZqMatrix(np.vstack([Abar, bottom]), modulus)
        t = TrapdoorKey(A=A, mode="gadget", R=Rbar, gadget=g, n_bar=n_bar)
        return A, t

    if mode == "gadget":
        raise LayoutError(
            f"gadget layout needs m >= {w + 1} (n*k + n_bar with n_bar >= 1), got m={m}"
        )
    if q**n > EXHAUSTIVE_CAP:
        raise LayoutError(
            f"m={m} too small for gadget layout (need >= {w + 1}) and "
            f"q^n={q**n} exceeds the exhaustive-search cap {EXHAUSTIVE_CAP}"
        )
    # Resample until x -> Ax is injective over Z_q^n; without that the
    # exhaustive decode (and any claw structure) is ill-defined.
    for _ in range(200):
        A = ZqMatrix(rng.integers(0, q, size=(m, n), dtype=np.int64), modulus)
        if _injective_on_domain(A):
            t = TrapdoorKey(A=A, mode="exhaustive", R=None, gadget=None, n_bar=0)
            return A, t
    raise LayoutError("could not sample an injective A for the exhaustive trapdoor")


def _injective_on_domain(A: ZqMatrix) -> bool:
    q = A.modulus.q
    n = A.cols
    grid = domain_grid(q, n)
    images = (grid @ A.entries.T) % q
    return len({row.tobytes() for row in images}) == len(grid)


def _decode_syndrome_coord(u: np.ndarray, g: GadgetParams, q: int) -> int:
    """Decode s_i from u ~ g_row * s_i + noise mod q by minimax search."""
    cands = np.arange(q, dtype=np.int64)
    # residual[j, s] = lift(u_j - base^j * s)
    res = (u[:, None] - g.row[:, None] * cands[None, :]) % q
    res = np.where(res > q // 2, res - q, res)
    cost = np.abs(res).max(axis=0)
    s_hat = int(cost.argmin())
    radius = gadget_minimax_distance(q, g.base) / 2.0
    if cost[s_hat] >= radius:
        raise DecodeFailure(
            f"syndrome residual {cost[s_hat]} >= certified radius {radius}"
        )
    return s_hat


def invert(
    t: TrapdoorKey,
    v: ZqVector,
    max_error_norm: float | None = None,
) -> tuple[ZqVector, ZqVector]:
    """Recover (s, e) from v = A s + e.

    Raises DecodeFailure instead of returning an uncertain answer; when
    max_error_norm is given, also rejects any decode whose residual error
    exceeds it. The returned pair always satisfies A s + e = v mod q.
    """
    if len(v) != t.m:
        raise DimensionError(f"expected length {t.m}, got {len(v)}")
    q = t.A.modulus.q
    modulus = t.A.modulus

    if t.mode == "gadget":
        top = v.entries[: t.n_bar]
        bottom = v.entries[t.n_bar :]
        u = (t.R @ top + bottom) % q  # = G s + (Rbar e_top + e_bottom)
        k = t.gadget.k
        s_vals = [
            _decode_syndrome_coord(u[i * k : (i + 1) * k], t.gadget, q)
            for i in range(t.n)
        ]
        s = ZqVector(np.array(s_vals, dtype=np.int64), modulus)
    else:
        s = _invert_exhaustive(t, v)

    e = v - mat_vec_mul(t.A, s)
    if max_error_norm is not None:
        norm = euclidean_norm(e)
        if norm > max_error_norm:
            raise DecodeFailure(
                f"residual error norm {norm:.3f} exceeds bound {max_error_norm:.3f}"
            )
    return s, e


def _invert_exhaustive(t: TrapdoorKey, v: ZqVector) -> ZqVector:
    q = t.A.modulus.q
    n = t.n
    if q**n > EXHAUSTIVE_CAP:
        raise DecodeFailure("exhaustive search cap exceeded")
    # Enumerate all secrets; pick the one with the smallest error norm and
    # demand a strict gap to the runner-up.
    grid = domain_grid(q, n)  # q^n x n
    res = (v.entries[None, :] - grid @ t.A.entries.T) % q
    res = np.where(res > q // 2, res - q, res)
    norms = (res.astype(np.float64) ** 2).sum(axis=1)
    order = np.argsort(norms)
    best, second = order[0], order[1]
    if norms[best] == norms[second]:
        raise DecodeFailure("ambiguous exhaustive decode (tied candidates)")
    return ZqVector(grid[best], t.A.modulus)


def calibrate_ct(
    n: int,
    m: int,
    q: int,
    trials: int,
    rng: np.random.Generator,
    base: int = 2,
) -> float:
    """Empirically measure the constant C in the inversion threshold
    q / (C sqrt(n log q)).

    Returns the smallest C (largest threshold) for which inversion
    recovered every planted (s, e) with ||e|| at the threshold, across
    `trials` fresh keys, found by shrinking the candidate threshold until
    all trials pass.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    modulus = Modulus(q)
    logq = modulus.bits

    def all_pass(threshold: float) -> bool:
        for _ in range(trials):
            A, t = gen_trap(n, m, q, rng, base=base)
            s = ZqVector.uniform(n, modulus, rng)
            e = _random_vector_of_norm(m, threshold, q, rng)
            v = mat_vec_mul(A, s) + e
            try:
                s_hat, e_hat = invert(t, v)
            except DecodeFailure:
                return False
            if s_hat != s:
                return False
        return True

    threshold = q / math.sqrt(n * logq)  # C = 1 starting point
    c = 1.0
    while not all_pass(threshold) and c < 2**20:
        c *= 1.5
        threshold = q / (c * math.sqrt(n * logq))
    return c


def _random_vector_of_norm(
    m: int, norm: float, q: int, rng: np.random.Generator
) -> ZqVector:
    """Integer vector with l2 norm close to (and at most) `norm`."""
    direction = rng.normal(size=m)
    direction /= np.linalg.norm(direction)
    v = np.round(direction * norm).astype(np.int64)
    while np.linalg.norm(v) > norm and np.any(v != 0):
        v[np.abs(v).argmax()] -= np.sign(v[np.abs(v).argmax()])
    return ZqVector(v, Modulus(q))
