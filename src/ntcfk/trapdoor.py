"""Gadget-based trapdoor key generation and noisy linear-system inversion.

The public matrix is the tall stack A = [Abar ; G - R*Abar] mod q, where
G is the n-column gadget block of powers of GADGET_BASE = 2 (k =
ceil(log2 q) digits per coordinate, `Modulus.bits`) and R has uniform
entries in {-1, 0, 1}. The trapdoor is R alone: the short relation
[R | I] * A = G turns a noisy image v = A s + e into a noisy gadget
syndrome G s + e', from which each coordinate of s is decoded
independently.

Per-coordinate decoding minimizes the max syndrome residual over the
gadget rows. Decoding is declared certain only when that residual is
strictly below half the gadget code's minimax distance; anything else
raises DecodeFailure rather than returning a guess.

One layout rule (`gadget_fits`): the gadget layout needs m >= n*k + 1,
so that n_bar = m - n*k >= 1 rows of Abar. Keys with fewer rows fall
back to an exhaustive-search trapdoor (R is None): inversion scans all
q^n secrets. This is only allowed under a small search cap and exists so
the tiniest oracle-comparable parameter sets still support key
generation.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .zq import (DimensionError, Modulus, ZqMatrix, ZqVector, domain_grid,
                 euclidean_norm, lift_residues, mat_vec_mul, mul_rows_mod,
                 rows_distinct)

EXHAUSTIVE_CAP = 2**16
GADGET_BASE = 2


class DecodeFailure(RuntimeError):
    """Inversion could not certify a unique answer."""


class LayoutError(ValueError):
    """Requested dimensions cannot accommodate the trapdoor layout."""


def gadget_row(q: int) -> np.ndarray:
    """The powers GADGET_BASE^j for j < ceil(log2 q): one coordinate's
    rows of G."""
    return GADGET_BASE ** np.arange(Modulus(q).bits, dtype=np.int64)


def gadget_fits(n: int, m: int, q: int) -> bool:
    """The layout rule: gadget when m >= n*k + 1, else exhaustive."""
    return m > n * Modulus(q).bits


@functools.lru_cache(maxsize=32)
def gadget_minimax_distance(q: int) -> int:
    """Min over nonzero delta of max_j |lift(2^j * delta mod q)|.

    Half of this is the certified decoding radius for the per-coordinate
    minimax decoder.
    """
    deltas = np.arange(1, q, dtype=np.int64)
    worst = np.zeros(q - 1, dtype=np.int64)
    for g in gadget_row(q).tolist():  # one digit at a time: O(q) memory
        worst = np.maximum(worst, np.abs(lift_residues(deltas * g % q, q)))
    return int(worst.min())


@dataclass(frozen=True)
class TrapdoorKey:
    """Trapdoor for a public matrix A: R (n*k x n_bar, entries in
    {-1, 0, 1}) with [R | I] A = G mod q, or None for the exhaustive
    layout."""

    A: ZqMatrix
    R: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.A.cols

    @property
    def m(self) -> int:
        return self.A.rows

    @property
    def mode(self) -> str:
        return "exhaustive" if self.R is None else "gadget"

    @property
    def n_bar(self) -> int:
        """Rows of Abar: m - n*k in the gadget layout, 0 otherwise."""
        return 0 if self.R is None else self.m - self.n * self.A.modulus.bits

    def relation_holds(self) -> bool:
        """Check [R | I] A = G mod q (gadget mode only)."""
        if self.R is None:
            return True
        q = self.A.modulus.q
        Abar, bottom = np.split(self.A.entries, [self.n_bar])
        return np.array_equal((self.R @ Abar + bottom) % q, _gadget_block(self.n, q))


def _gadget_block(n: int, q: int) -> np.ndarray:
    """The (n*k) x n block with base powers down each coordinate's rows."""
    row = gadget_row(q)
    k = len(row)
    G = np.zeros((n * k, n), dtype=np.int64)
    for i in range(n):
        G[i * k : (i + 1) * k, i] = row
    return G


def gen_trap(
    n: int, m: int, q: int, rng: np.random.Generator
) -> tuple[ZqMatrix, TrapdoorKey]:
    """Generate (A, trapdoor) with A statistically close to uniform.

    Uses the gadget layout when it fits, and otherwise falls back to the
    exhaustive trapdoor when q^n is under the search cap.
    """
    modulus = Modulus(q)
    if not modulus.is_prime:
        raise ValueError(f"q={q} must be prime")
    w = n * modulus.bits

    if gadget_fits(n, m, q):
        Abar = rng.integers(0, q, size=(m - w, n), dtype=np.int64)
        R = rng.integers(-1, 2, size=(w, m - w), dtype=np.int64)
        bottom = (_gadget_block(n, q) - R @ Abar) % q
        A = ZqMatrix(np.vstack([Abar, bottom]), modulus)
        return A, TrapdoorKey(A, R)

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
            return A, TrapdoorKey(A)
    raise LayoutError("could not sample an injective A for the exhaustive trapdoor")


def _injective_on_domain(A: ZqMatrix) -> bool:
    q = A.modulus.q
    images = mul_rows_mod(A.entries, domain_grid(q, A.cols), q)
    return rows_distinct(images, np.full(A.rows, q, dtype=np.int64))


def _decode_syndrome_coord(u: np.ndarray, row: np.ndarray, q: int) -> int:
    """Decode s_i from u ~ row * s_i + noise mod q by minimax search."""
    cands = np.arange(q, dtype=np.int64)
    # residual[j, s] = lift(u_j - 2^j * s)
    res = lift_residues((u[:, None] - row[:, None] * cands[None, :]) % q, q)
    cost = np.abs(res).max(axis=0)
    s_hat = int(cost.argmin())
    radius = gadget_minimax_distance(q) / 2.0
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
    modulus = t.A.modulus
    q = modulus.q

    if t.R is not None:
        n_bar = t.n_bar
        u = (t.R @ v.entries[:n_bar] + v.entries[n_bar:]) % q  # = G s + (R e_top + e_bottom)
        row = gadget_row(q)
        s_vals = [_decode_syndrome_coord(ui, row, q) for ui in u.reshape(t.n, len(row))]
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
    res = lift_residues((v.entries - mul_rows_mod(t.A.entries, grid, q)) % q, q)
    norms = (res.astype(np.float64) ** 2).sum(axis=1)
    order = np.argsort(norms)
    best, second = order[0], order[1]
    if norms[best] == norms[second]:
        raise DecodeFailure("ambiguous exhaustive decode (tied candidates)")
    return ZqVector(grid[best], t.A.modulus)
