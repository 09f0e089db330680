"""Exact arithmetic over Z_q: vectors, A x mod q, centered lifts, and the
bit-encoding map used by the equation check.

A matrix is a plain read-only (rows, cols) int64 array; only vectors
have a type here. All residues are stored in [0, q). Centered lifts
(`lift_residues`) live in (-q/2, q/2]. q is restricted to < 2**31 so
that int64 products never overflow, and `mul_rows_mod`, the one A x mod
q, reduces each product before summing so that its sums never do either.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

Q_MAX = 2**31


class DimensionError(ValueError):
    """Raised when operand shapes or moduli do not line up."""


@dataclass(frozen=True)
class Modulus:
    """A modulus q together with its bit width ceil(log2 q).

    Primality is not enforced here; callers that need a prime q (trapdoor
    key generation, the function family) check it themselves.
    """

    q: int

    def __post_init__(self):
        if not (2 <= self.q < Q_MAX):
            raise ValueError(f"modulus must be in [2, 2^31), got {self.q}")

    @property
    def bits(self) -> int:
        return max(1, (self.q - 1).bit_length())

    @property
    def is_prime(self) -> bool:
        return _is_prime(self.q)


@functools.lru_cache(maxsize=64)
def _is_prime(q: int) -> bool:
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
    """Immutable vector over Z_q. Entries normalized into [0, q)."""

    entries: np.ndarray
    modulus: Modulus

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.int64) % self.modulus.q
        object.__setattr__(self, "entries", entries)
        self.entries.setflags(write=False)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZqVector)
            and self.modulus == other.modulus
            and np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.modulus.q, self.entries.tobytes()))

    def __add__(self, other: "ZqVector") -> "ZqVector":
        self._check(other)
        return ZqVector(self.entries + other.entries, self.modulus)

    def __sub__(self, other: "ZqVector") -> "ZqVector":
        self._check(other)
        return ZqVector(self.entries - other.entries, self.modulus)

    def __neg__(self) -> "ZqVector":
        return ZqVector(-self.entries, self.modulus)

    def scale(self, c: int) -> "ZqVector":
        return ZqVector((c % self.modulus.q) * self.entries, self.modulus)

    def _check(self, other: "ZqVector"):
        if self.modulus != other.modulus or len(self) != len(other):
            raise DimensionError("vector mismatch")

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(v) for v in self.entries)

    @classmethod
    def zero(cls, n: int, modulus: Modulus) -> "ZqVector":
        return cls(np.zeros(n, dtype=np.int64), modulus)

    @classmethod
    def uniform(cls, n: int, modulus: Modulus, rng: np.random.Generator) -> "ZqVector":
        return cls(rng.integers(0, modulus.q, size=n, dtype=np.int64), modulus)


@dataclass(frozen=True)
class BitString:
    """A sequence over {0,1}."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def is_zero(self) -> bool:
        return all(b == 0 for b in self.bits)

    @classmethod
    def uniform(cls, w: int, rng: np.random.Generator) -> "BitString":
        return cls(tuple(int(b) for b in rng.integers(0, 2, size=w)))


def domain_grid(q: int, n: int) -> np.ndarray:
    """Every x in Z_q^n, one per row, in lexicographic order."""
    return np.indices((q,) * n).reshape(n, -1).T.astype(np.int64)


def row_codes(rows: np.ndarray, radices: np.ndarray) -> np.ndarray:
    """One int64 per row of a matrix whose column j holds digits below
    radices[j]: equal exactly when the rows are equal, and ordered as the
    rows are lexicographically."""
    if math.prod(radices.tolist()) < 2**63:
        weights = np.ones(len(radices), dtype=np.int64)
        weights[:-1] = np.cumprod(radices[:0:-1])[::-1]
        return rows @ weights
    # Too many digits for one int64: rank the distinct rows instead.
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


def rows_distinct(rows: np.ndarray, radices: np.ndarray) -> bool:
    """Whether no row of the matrix repeats. Sorting the codes took 35 us
    on 5k rows, against 0.7 ms for hash-based np.unique."""
    codes = np.sort(row_codes(rows, radices))
    return not (codes[1:] == codes[:-1]).any()


def common_rows(a: np.ndarray, b: np.ndarray, radices: np.ndarray):
    """Indices (i, j) with a[i] == b[j], one pair per row the two matrices
    share, in the order of row_codes, for matrices of distinct rows whose
    digits fit `radices`."""
    codes = row_codes(np.vstack([a, b]), radices)
    ca, cb = codes[: len(a)], codes[len(a) :]
    # A stable sort is linear on the already sorted codes of a marginal.
    i, j = np.argsort(ca, kind="stable"), np.argsort(cb, kind="stable")
    ca, cb = ca[i], cb[j]
    pos = np.searchsorted(cb, ca)
    hit = pos < len(cb)
    hit[hit] = cb[pos[hit]] == ca[hit]
    return i[hit], j[pos[hit]]


def mul_rows_mod(A: np.ndarray, X: np.ndarray, q: int) -> np.ndarray:
    """A x mod q for every x along the last axis of X (a vector or a stack
    of row vectors); the result has A's row count as its last axis."""
    # Reduce each product mod q before summing; partial sums then stay
    # below cols * 2^31, safely inside int64.
    return ((X[..., None, :] * A) % q).sum(axis=-1) % q


def mat_vec_mul(A: np.ndarray, x: ZqVector) -> ZqVector:
    """Compute A x mod q for a matrix A of residues below x's modulus."""
    if A.shape[1] != len(x):
        raise DimensionError(f"cannot multiply {A.shape[0]}x{A.shape[1]} by length-{len(x)}")
    return ZqVector(mul_rows_mod(A, x.entries, x.modulus.q), x.modulus)


def lift_residues(a: np.ndarray, q: int) -> np.ndarray:
    """Map each residue of an array in [0, q) to its representative in
    (-q/2, q/2]."""
    # odd q: (q-1)/2 stays positive; even q: q/2, boundary value kept positive
    return np.where(a > q // 2, a - q, a)


def centered_lift(x: ZqVector) -> np.ndarray:
    """Map each residue to its representative in (-q/2, q/2]."""
    return lift_residues(x.entries, x.modulus.q)


def euclidean_norm(x: ZqVector) -> float:
    """l2 norm of the centered lift."""
    lifted = centered_lift(x).astype(np.float64)
    return float(math.sqrt(float((lifted * lifted).sum())))


def j_encode(x: ZqVector) -> BitString:
    """Binary representation of a Z_q^n vector.

    Each coordinate becomes a ceil(log2 q)-bit block, most significant
    bit first; blocks are concatenated in coordinate order.
    """
    w = x.modulus.bits
    bits: list[int] = []
    for v in x.entries:
        v = int(v)
        bits.extend((v >> (w - 1 - i)) & 1 for i in range(w))
    return BitString(tuple(bits))


def j_decode(d: BitString, modulus: Modulus, n: int) -> ZqVector:
    """Inverse of j_encode. Rejects blocks encoding a value >= q."""
    w = modulus.bits
    if len(d) != n * w:
        raise DimensionError(f"expected {n * w} bits, got {len(d)}")
    vals = []
    for i in range(n):
        block = d.bits[i * w : (i + 1) * w]
        v = 0
        for b in block:
            v = (v << 1) | b
        if v >= modulus.q:
            raise ValueError(f"block {i} decodes to {v} >= q={modulus.q}")
        vals.append(v)
    return ZqVector(np.array(vals, dtype=np.int64), modulus)


def bit_dot_xor(d: BitString, u: BitString, v: BitString) -> int:
    """Return sum_i d_i * (u_i XOR v_i) mod 2."""
    if not (len(d) == len(u) == len(v)):
        raise DimensionError("bit string length mismatch")
    acc = 0
    for di, ui, vi in zip(d.bits, u.bits, v.bits):
        acc ^= di & (ui ^ vi)
    return acc


def equation_bit(d: BitString, x_bar0: ZqVector, x_bar1: ZqVector) -> int:
    """The test-round equation bit d . (J(x_bar0) xor J(x_bar1)) mod 2."""
    return bit_dot_xor(d, j_encode(x_bar0), j_encode(x_bar1))
