"""Exact arithmetic over Z_q: A x mod q, centered lifts, norms, and the
bit-encoding map used by the equation check.

q is a plain int in every layer. `bit_width(q)` is ceil(log2 q), the J
block width and the gadget digit count, and checks that q is in
[2, 2^31); `is_prime(q)` is cached trial division. Vectors and matrices
are plain int64 arrays of residues in [0, q), and their producers hand
them out read-only; q travels beside them, in the params or the
trapdoor. The one typed value is `ZqVector`, the secret s, which stays
hashable and equal by value. Centered lifts (`lift_residues`) live in
(-q/2, q/2]. d and J(x) are 0/1 int64 arrays. q is restricted to
< 2**31 so that int64 products never overflow, and `mat_vec_mul`, the
one A x mod q, sums them unreduced only where no sum can overflow
either. `mat_vec_add_mod`, y +- A x mod q, owns the other exactness
bound: one float64 product where every sum stays below 2^53.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

Q_MAX = 2**31


class DimensionError(ValueError):
    """Raised when operand shapes or moduli do not line up."""


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it."""
    a.setflags(write=False)
    return a


def bit_width(q: int) -> int:
    """ceil(log2 q), at least 1: the J block width and the gadget digit
    count. ValueError unless q is in [2, 2^31)."""
    if not 2 <= q < Q_MAX:
        raise ValueError(f"modulus must be in [2, 2^31), got {q}")
    return max(1, (q - 1).bit_length())


@functools.lru_cache(maxsize=64)
def is_prime(q: int) -> bool:
    """Trial division, once per q."""
    if q < 4:
        return q in (2, 3)
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class ZqVector:
    """The secret s: an immutable vector over Z_q, entries normalized into
    [0, q), equal by value and hashable."""

    entries: np.ndarray
    q: int

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.int64) % self.q
        object.__setattr__(self, "entries", read_only(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZqVector)
            and self.q == other.q
            and np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.q, self.entries.tobytes()))

    @classmethod
    def uniform(cls, n: int, q: int, rng: np.random.Generator) -> "ZqVector":
        return cls(rng.integers(0, q, size=n, dtype=np.int64), q)


def domain_grid(q: int, n: int) -> np.ndarray:
    """Every x in Z_q^n, one per row, in lexicographic order."""
    return np.indices((q,) * n).reshape(n, -1).T.astype(np.int64)


def codes_are_digits(radices: np.ndarray) -> bool:
    """Whether `row_codes` reads rows in these radices as one int64 each.
    Only then are the codes of two calls comparable; otherwise they are
    ranks within one call."""
    return math.prod(radices.tolist()) < 2**63


def row_codes(rows: np.ndarray, radices: np.ndarray, cols=None) -> np.ndarray:
    """One int64 per row of a matrix whose column j holds digits below
    radices[j]: equal exactly when the rows are equal, and ordered as the
    rows are lexicographically. With `cols`, the codes of rows[:, cols]
    (radices[j] for column cols[j]), read in place where they are digits."""
    if codes_are_digits(radices):
        weights = np.ones(len(radices), dtype=np.int64)
        weights[:-1] = np.cumprod(radices[:0:-1])[::-1]
        if cols is not None:
            weights, place = np.zeros(rows.shape[1], dtype=np.int64), weights
            weights[cols] = place
        return rows @ weights
    # Too many digits for one int64: rank the distinct rows instead.
    rows = rows if cols is None else rows[:, cols]
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


def sort_codes(codes: np.ndarray, radices: np.ndarray):
    """(order, codes[order]): the ascending order of the `row_codes` of
    rows in these radices, and the codes in it. Where the codes leave
    room for a row index in their low bits, one np.sort of the packed
    values gives both; it took 24 us on 2.7k codes, against 39 us for
    np.argsort, which runs otherwise."""
    top = math.prod(radices.tolist()) if codes_are_digits(radices) else len(codes)
    shift = max(len(codes) - 1, 1).bit_length()
    if top << shift > 2**63:
        order = np.argsort(codes)
        return order, codes[order]
    packed = np.sort(codes << shift | np.arange(len(codes)))
    return packed & ((1 << shift) - 1), packed >> shift


def rows_distinct(rows: np.ndarray, radices: np.ndarray) -> bool:
    """Whether no row of the matrix repeats. Sorting the codes took 35 us
    on 5k rows, against 0.7 ms for hash-based np.unique."""
    codes = np.sort(row_codes(rows, radices))
    return not (codes[1:] == codes[:-1]).any()


def common_rows(a: np.ndarray, b: np.ndarray, radices: np.ndarray):
    """Indices (i, j) with a[i] == b[j], one pair per row the two matrices
    share, in the order of row_codes, for matrices of distinct rows whose
    digits fit `radices`. It codes both matrices in one call, so it also
    holds where the codes fall back to ranks. Its callers are
    `SparseState.fidelity` and, for rank codes only, the distances of
    `gaussian.Density`, whose rows are sorted and otherwise matched by
    one searchsorted."""
    codes = row_codes(np.vstack([a, b]), radices)
    ca, cb = codes[: len(a)], codes[len(a) :]
    # A stable sort is linear on the already sorted codes of a marginal.
    i, j = np.argsort(ca, kind="stable"), np.argsort(cb, kind="stable")
    ca, cb = ca[i], cb[j]
    pos = np.searchsorted(cb, ca)
    hit = pos < len(cb)
    hit[hit] = cb[pos[hit]] == ca[hit]
    return i[hit], j[pos[hit]]


def mat_vec_mul(A: np.ndarray, X: np.ndarray, q: int) -> np.ndarray:
    """A x mod q for a matrix A of residues and every x along the last
    axis of X (a vector or a stack of row vectors); the result has A's
    row count as its last axis."""
    cols = A.shape[1]
    if cols != X.shape[-1]:
        raise DimensionError(f"cannot multiply {A.shape[0]}x{cols} by length-{X.shape[-1]}")
    if cols * (q - 1) ** 2 < 2**63:  # no sum of products can overflow int64
        return X @ A.T % q
    # Reduce each product mod q before summing; partial sums then stay
    # below cols * 2^31, safely inside int64.
    return ((X[..., None, :] * A) % q).sum(axis=-1) % q


def mat_vec_add_mod(A: np.ndarray, X: np.ndarray, Y: np.ndarray, q: int,
                    sign: int = 1) -> np.ndarray:
    """Y + sign * A x mod q (sign +1 or -1) for every x along the last
    axis of X, with Y the residues to add, of the result's shape."""
    cols = A.shape[1]
    if cols != X.shape[-1]:
        raise DimensionError(f"cannot multiply {A.shape[0]}x{cols} by length-{X.shape[-1]}")
    if cols * (q - 1) ** 2 + q < 2**53:
        # One float64 product plus Y: its terms and partial sums are
        # integers below 2^53 in magnitude, so it is exact. So is the floor
        # that reduces it mod q: s/q rounds by less than |s/q| 2^-53 < 1/q,
        # and lies at least 1/q from every integer it is not.
        s = X.astype(np.float64) @ (sign * A.T).astype(np.float64)
        s += Y
        r = s / q
        np.floor(r, out=r)
        r *= q
        s -= r
        return s.astype(np.int64)
    s = mat_vec_mul(A, X, q)
    if sign < 0:
        np.subtract(q, s, out=s)  # -A x mod q, in (0, q]
    s += Y
    s -= q * (s >= q)  # from [0, 2q) into [0, q)
    return s


def lift_residues(a: np.ndarray, q: int) -> np.ndarray:
    """Map each residue of an array in [0, q) to its representative in
    (-q/2, q/2]."""
    # odd q: (q-1)/2 stays positive; even q: q/2, boundary value kept positive
    return np.where(a > q // 2, a - q, a)


def euclidean_norm(x: np.ndarray, q: int) -> float:
    """l2 norm of the centered lift of a vector of residues mod q."""
    lifted = lift_residues(x, q).astype(np.float64)
    return float(math.sqrt(float((lifted * lifted).sum())))


@functools.lru_cache(maxsize=64)
def _block_shifts(q: int) -> np.ndarray:
    """The bit positions w-1, ..., 0 of one J block, w = ceil(log2 q)."""
    return read_only(np.arange(bit_width(q) - 1, -1, -1, dtype=np.int64))


def j_encode(x: np.ndarray, q: int) -> np.ndarray:
    """Binary representation of a vector of residues mod q, as a 0/1 array.

    Each coordinate becomes a ceil(log2 q)-bit block, most significant
    bit first; blocks are concatenated in coordinate order.
    """
    return ((x[:, None] >> _block_shifts(q)) & 1).reshape(-1)


def j_decode(d: np.ndarray, q: int, n: int) -> np.ndarray:
    """Inverse of j_encode. Rejects blocks encoding a value >= q."""
    shifts = _block_shifts(q)
    if len(d) != n * len(shifts):
        raise DimensionError(f"expected {n * len(shifts)} bits, got {len(d)}")
    vals = d.reshape(n, len(shifts)) @ (1 << shifts)
    if n and vals.max() >= q:
        i = int(np.argmax(vals >= q))
        raise ValueError(f"block {i} decodes to {vals[i]} >= q={q}")
    return vals


def equation_bit(d: np.ndarray, x_bar0: np.ndarray, x_bar1: np.ndarray, q: int) -> int:
    """The test-round equation bit d . (J(x_bar0) xor J(x_bar1)) mod 2.

    J is positional, so J(x_bar0) xor J(x_bar1) = J(x_bar0 xor x_bar1)
    and one encoding serves both."""
    if x_bar0.shape != x_bar1.shape or len(d) != len(x_bar0) * len(_block_shifts(q)):
        raise DimensionError(
            f"d of length {len(d)} against vectors of shapes {x_bar0.shape}, {x_bar1.shape}"
        )
    return int(d @ j_encode(x_bar0 ^ x_bar1, q)) & 1
