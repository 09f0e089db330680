"""Gadget-based trapdoor key generation and noisy linear-system inversion.

The public matrix is the tall stack A = [Abar ; G - R*Abar] mod q, where
G is the n-column gadget block of powers of GADGET_BASE = 2 (k =
ceil(log2 q) digits per coordinate, `zq.bit_width`) and R has uniform
entries in {-1, 0, 1}. A `TrapdoorKey` is A, q and R, A and R
read-only int64 arrays. The short relation [R | I] * A = G turns a noisy
image v = A s + e into a noisy gadget syndrome G s + e', from which each
coordinate of s is decoded independently.

Per-coordinate decoding returns the s whose max syndrome residual over
the gadget rows is strictly below d/2, d the gadget code's minimax
distance (`gadget_minimax_distance`); anything else raises DecodeFailure
rather than returning a guess. At most one s qualifies, so this is the
certified argmin of a scan over all q candidates. The decoder finds it
in O(k) interval steps per coordinate (`_decode_syndrome_coord`), and a
refused image costs no more: its text, "syndrome residual >= certified
radius <d/2>", names the radius alone, so no O(q k) scan runs for it
(the verifier sends it as "image decode failure: ...", and the pinned
session transcripts hold it).

The values that depend on q or n alone (the gadget row and block, the
minimax distance) are computed once and cached read-only.

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

from .zq import (DimensionError, bit_width, domain_grid, euclidean_norm, is_prime,
                 lift_residues, mat_vec_mul, read_only, rows_distinct)

EXHAUSTIVE_CAP = 2**16
GADGET_BASE = 2


class DecodeFailure(RuntimeError):
    """Inversion could not certify a unique answer."""


class LayoutError(ValueError):
    """Requested dimensions cannot accommodate the trapdoor layout."""


@functools.lru_cache(maxsize=32)
def gadget_row(q: int) -> np.ndarray:
    """The powers GADGET_BASE^j for j < ceil(log2 q): one coordinate's
    rows of G. Read-only."""
    return read_only(GADGET_BASE ** np.arange(bit_width(q), dtype=np.int64))


def gadget_fits(n: int, m: int, q: int) -> bool:
    """The layout rule: gadget when m >= n*k + 1, else exhaustive."""
    return m > n * bit_width(q)


@functools.lru_cache(maxsize=32)
def gadget_minimax_distance(q: int) -> int:
    """Min over nonzero delta of max_j |lift(2^j * delta mod q)|.

    Half of this is the certified decoding radius for the per-coordinate
    minimax decoder. It is the least r at which some delta in [1, q - 1]
    survives the interval refinement of syndrome 0 (|lift(-x)| =
    |lift(x)|), and survival only grows with r. Every delta survives
    r = q // 2 and none survives r = 0, so r doubles from 1 until one
    survives, then bisects: no probe runs far above the distance, where
    the intervals multiply.
    """
    row = gadget_row(q)
    zero = np.zeros_like(row)

    def survives(r: int) -> bool:
        return bool(_survivors(zero, row, q, r, [(1, q - 1)]))

    lo, hi = 0, 1  # no delta survives lo
    while hi < q // 2 and not survives(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, q // 2)  # some delta survives hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if survives(mid) else (mid, hi)
    return hi


@dataclass(frozen=True, eq=False)
class TrapdoorKey:
    """Trapdoor for a public m x n matrix A of residues mod q: R (n*k x
    n_bar, entries in {-1, 0, 1}) with [R | I] A = G mod q, or None for
    the exhaustive layout. Equal by value, unhashable."""

    A: np.ndarray
    q: int
    R: np.ndarray | None = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, TrapdoorKey) and self.q == other.q
                and np.array_equal(self.A, other.A) and np.array_equal(self.R, other.R))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def mode(self) -> str:
        return "exhaustive" if self.R is None else "gadget"

    @property
    def n_bar(self) -> int:
        """Rows of Abar: m - n*k in the gadget layout, 0 otherwise."""
        return 0 if self.R is None else self.R.shape[1]

    def relation_holds(self) -> bool:
        """Check [R | I] A = G mod q (gadget mode only)."""
        if self.R is None:
            return True
        q = self.q
        Abar, bottom = np.split(self.A, [self.n_bar])
        return np.array_equal((self.R @ Abar + bottom) % q, _gadget_block(self.n, q))


@functools.lru_cache(maxsize=32)
def _gadget_block(n: int, q: int) -> np.ndarray:
    """The (n*k) x n block with base powers down each coordinate's rows.
    Read-only."""
    row = gadget_row(q)
    k = len(row)
    G = np.zeros((n * k, n), dtype=np.int64)
    for i in range(n):
        G[i * k : (i + 1) * k, i] = row
    return read_only(G)


def gen_trap(
    n: int, m: int, q: int, rng: np.random.Generator
) -> tuple[np.ndarray, TrapdoorKey]:
    """Generate (A, trapdoor) with A statistically close to uniform. A
    and R are read-only.

    Uses the gadget layout when it fits, and otherwise falls back to the
    exhaustive trapdoor when q^n is under the search cap.
    """
    w = n * bit_width(q)
    if not is_prime(q):
        raise ValueError(f"q={q} must be prime")

    if gadget_fits(n, m, q):
        Abar = rng.integers(0, q, size=(m - w, n), dtype=np.int64)
        R = rng.integers(-1, 2, size=(w, m - w), dtype=np.int64)
        bottom = (_gadget_block(n, q) - R @ Abar) % q
        A = read_only(np.vstack([Abar, bottom]))
        return A, TrapdoorKey(A, q, read_only(R))

    if q**n > EXHAUSTIVE_CAP:
        raise LayoutError(
            f"m={m} too small for gadget layout (need >= {w + 1}) and "
            f"q^n={q**n} exceeds the exhaustive-search cap {EXHAUSTIVE_CAP}"
        )
    # Resample until x -> Ax is injective over Z_q^n; without that the
    # exhaustive decode (and any claw structure) is ill-defined.
    for _ in range(200):
        A = rng.integers(0, q, size=(m, n), dtype=np.int64)
        if _injective_on_domain(A, q):
            return read_only(A), TrapdoorKey(A, q)
    raise LayoutError("could not sample an injective A for the exhaustive trapdoor")


def _injective_on_domain(A: np.ndarray, q: int) -> bool:
    images = mat_vec_mul(A, domain_grid(q, A.shape[1]), q)
    return rows_distinct(images, np.full(len(A), q, dtype=np.int64))


def _decode_syndrome_coord(u: np.ndarray, row: np.ndarray, q: int) -> int:
    """Decode s_i from u ~ row * s_i + noise mod q.

    Returns the s in [0, q) with max_j |lift(u_j - 2^j s)| < d/2, d =
    `gadget_minimax_distance(q)`: the residuals are integers, so each row
    must keep g s mod q in [c - r, c + r] with g = 2^j, c = u_j and
    r = ceil(d/2) - 1. The candidates are held as integer intervals,
    starting from [0, q - 1], and cut down row by row (`_survivors`).

    Exact: two survivors s, s' would have max_j |lift(2^j (s - s'))| <=
    2r < d, against the minimax distance, so at most one s survives all
    k rows, and a survivor is the unique argmin of the scan over all q
    candidates. No survivor means that scan's minimum is >= d/2, which
    DecodeFailure reports without running the scan.
    """
    d = gadget_minimax_distance(q)
    kept = _survivors(u, row, q, (d + 1) // 2 - 1, [(0, q - 1)])
    if not kept:
        raise DecodeFailure(f"syndrome residual >= certified radius {d / 2.0}")
    return kept[0][0]


def _survivors(u: np.ndarray, row: np.ndarray, q: int, r: int, intervals) -> list:
    """The integer intervals (lo, hi) of the s in `intervals` that keep
    |lift(u_j - g_j s)| <= r on every row j. Row j cuts each [lo, hi] to
    its intersections with [ceil((c - r + tq)/g), floor((c + r + tq)/g)],
    with c = u_j and g = g_j, for t from ceil((g lo - c - r)/q) to
    floor((g hi - c + r)/q), the t whose window g s can reach. Empty as
    soon as no interval survives a row."""
    for g, c in zip(row.tolist(), u.tolist()):
        kept = []
        for lo, hi in intervals:
            for t in range(-((c + r - g * lo) // q), (g * hi - c + r) // q + 1):
                a = -((r - c - t * q) // g)
                b = (c + r + t * q) // g
                a, b = (a if a > lo else lo), (b if b < hi else hi)  # clip to [lo, hi]
                if a <= b:
                    kept.append((a, b))
        if not kept:
            return kept
        intervals = kept
    return intervals


def invert(
    t: TrapdoorKey,
    v: np.ndarray,
    max_error_norm: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Recover (s, e) from v = A s + e, a length-m array of residues.

    Raises DecodeFailure instead of returning an uncertain answer; when
    max_error_norm is given, also rejects any decode whose residual error
    exceeds it. The returned pair of read-only arrays always satisfies
    A s + e = v mod q.
    """
    if len(v) != t.m:
        raise DimensionError(f"expected length {t.m}, got {len(v)}")
    q = t.q

    if t.R is not None:
        n_bar = t.n_bar
        u = (t.R @ v[:n_bar] + v[n_bar:]) % q  # = G s + (R e_top + e_bottom)
        row = gadget_row(q)
        s = np.array([_decode_syndrome_coord(ui, row, q) for ui in u.reshape(t.n, len(row))],
                     dtype=np.int64)
    else:
        s = _invert_exhaustive(t, v)

    e = (v - mat_vec_mul(t.A, s, q)) % q
    if max_error_norm is not None:
        norm = euclidean_norm(e, q)
        if norm > max_error_norm:
            raise DecodeFailure(
                f"residual error norm {norm:.3f} exceeds bound {max_error_norm:.3f}"
            )
    return read_only(s), read_only(e)


def _invert_exhaustive(t: TrapdoorKey, v: np.ndarray) -> np.ndarray:
    q = t.q
    n = t.n
    if q**n > EXHAUSTIVE_CAP:
        raise DecodeFailure("exhaustive search cap exceeded")
    # Enumerate all secrets; pick the one with the smallest error norm and
    # demand a strict gap to the runner-up.
    grid = domain_grid(q, n)  # q^n x n
    res = lift_residues((v - mat_vec_mul(t.A, grid, q)) % q, q)
    norms = (res.astype(np.float64) ** 2).sum(axis=1)
    order = np.argsort(norms)
    best, second = order[0], order[1]
    if norms[best] == norms[second]:
        raise DecodeFailure("ambiguous exhaustive decode (tied candidates)")
    return grid[best]
