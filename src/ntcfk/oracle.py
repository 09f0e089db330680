"""Brute-force sparse state-vector simulator.

A state is a label matrix and an amplitude vector. The int64 label
matrix has one row per basis label and one column per register
coordinate; each register owns a run of columns, in the order of its
specs. Registers are either mod-q integer registers (coordinates in
[0, q)) or bit registers. Row i has the complex amplitude vec[i], and
no two rows are equal. This is the ground-truth oracle for the sampling
circuits: the function application is one modular update of the y
columns, measurements use exact marginals, and the Hadamard / QFT
transforms are dense per register.

Rows are grouped by mixed-radix codes: a row's coordinates read as the
digits of one integer, each in the radix of its column (q or 2), so
equal rows get equal codes and `np.unique` / `np.bincount` group them.
A transform groups rows by the code of every other column into a dense
(groups x values) block and applies one matrix product.

Desk scale only: label count is hard-capped, checked before a product
state or a dense block is allocated, and amplitudes below 1e-14 are
pruned.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .gaussian import Density, TruncatedGaussian
from .ntcf import NtcfKey
from .zq import DimensionError, domain_grid

PRUNE_EPS = 1e-14
NORM_TOL = 1e-9
MAX_LABELS = 2**22


class StateTooLarge(RuntimeError):
    """The sparse representation exceeded the label cap."""


def _check_cap(labels: int) -> None:
    if labels > MAX_LABELS:
        raise StateTooLarge(f"{labels} labels exceeds cap {MAX_LABELS}")


@dataclass(frozen=True)
class RegisterSpec:
    name: str
    kind: str  # "modq" | "bits"
    size: int  # coordinates for modq, width for bits
    q: int | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("register size must be positive")
        if self.kind == "modq":
            if self.q is None or self.q < 2:
                raise ValueError("modq register needs q >= 2")
        elif self.kind == "bits":
            if self.q is not None:
                raise ValueError("bit register takes no q")
        else:
            raise ValueError(f"unknown register kind {self.kind!r}")

    @property
    def radix(self) -> int:
        """Number of values of one coordinate."""
        return self.q if self.kind == "modq" else 2


def _row_codes(rows: np.ndarray, radices: np.ndarray) -> np.ndarray:
    """One int64 per row, equal exactly when the rows are equal and
    ordered as the rows are lexicographically."""
    if math.prod(radices.tolist()) < 2**63:
        weights = np.ones(len(radices), dtype=np.int64)
        weights[:-1] = np.cumprod(radices[:0:-1])[::-1]
        return rows @ weights
    # Too many digits for one int64: rank the distinct rows instead.
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


def _group_rows(rows: np.ndarray, radices: np.ndarray):
    """Group equal rows: (group of each row, first row of each group),
    groups in lexicographic order."""
    _codes, first, group = np.unique(
        _row_codes(rows, radices), return_index=True, return_inverse=True
    )
    return group.reshape(-1), first


def _marginal(state: "SparseState", cols):
    """|amp|^2 summed over the rows that agree on `cols`: the group of
    each row, the first row of each group and each group's weight."""
    group, first = _group_rows(state.labels[:, cols], state.radices[cols])
    return group, first, np.bincount(group, weights=np.abs(state.vec) ** 2)


class _AmpView(Mapping):
    """Read-only label -> amplitude view of a state. Labels are tuples of
    per-register tuples; the dict behind the view is built on first use.
    It holds the state's arrays, not the state, so that no reference
    cycle keeps a dropped state's arrays alive until the next collection."""

    def __init__(self, labels: np.ndarray, vec: np.ndarray, cols):
        self._arrays = (labels, vec, cols)
        self._dict = None

    def _items(self) -> dict:
        if self._dict is None:
            labels, vec, cols = self._arrays
            keys = (tuple(tuple(row[c]) for c in cols) for row in labels.tolist())
            self._dict = dict(zip(keys, vec.tolist()))
        return self._dict

    def __len__(self) -> int:
        return len(self._arrays[1])

    def __iter__(self):
        return iter(self._items())

    def __getitem__(self, label):
        return self._items()[label]


class SparseState:
    """Immutable-by-convention sparse state: an int64 label matrix and a
    complex128 amplitude vector, one row per basis label."""

    def __init__(self, specs, amps: Mapping):
        specs = tuple(specs)
        sizes = [s.size for s in specs]
        rows = []
        for lab in amps:
            if [len(part) for part in lab] != sizes:
                raise ValueError(f"label {lab!r} does not match register sizes {sizes}")
            rows.append([v for part in lab for v in part])
        labels = np.array(rows, dtype=np.int64).reshape(len(rows), sum(sizes))
        vec = np.fromiter(amps.values(), dtype=np.complex128, count=len(rows))
        self._init(specs, labels, vec)
        if ((self.labels < 0) | (self.labels >= self.radices)).any():
            raise ValueError("label coordinate outside its register's range")

    @classmethod
    def from_arrays(cls, specs, labels: np.ndarray, vec: np.ndarray) -> "SparseState":
        """A state from distinct label rows and their amplitudes."""
        state = cls.__new__(cls)
        state._init(tuple(specs), labels, vec)
        return state

    def _init(self, specs, labels, vec):
        self.specs = specs
        self._index = {s.name: i for i, s in enumerate(specs)}
        if len(self._index) != len(specs):
            raise ValueError("duplicate register names")
        stops = list(itertools.accumulate(s.size for s in specs))
        self.cols = tuple(slice(b - s.size, b) for b, s in zip(stops, specs))
        self.radices = np.array(
            [s.radix for s in specs for _ in range(s.size)], dtype=np.int64
        )
        keep = np.abs(vec) > PRUNE_EPS
        if not keep.all():
            labels, vec = labels[keep], vec[keep]
        _check_cap(len(vec))
        self.labels = labels
        self.vec = vec
        self.amps = _AmpView(labels, vec, self.cols)
        n = self.norm_sq()
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {n}, not 1")

    def spec(self, name: str) -> RegisterSpec:
        return self.specs[self._index[name]]

    def reg_pos(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"no register named {name!r}")
        return self._index[name]

    def reg_cols(self, name: str) -> slice:
        """The label-matrix columns of a register."""
        return self.cols[self.reg_pos(name)]

    def norm_sq(self) -> float:
        return float(np.vdot(self.vec, self.vec).real)

    def fidelity(self, other: "SparseState") -> float:
        """|<self|other>|^2 over the common support."""
        if [s.size for s in self.specs] != [s.size for s in other.specs]:
            return 0.0
        codes = _row_codes(
            np.vstack([self.labels, other.labels]),
            np.maximum(self.radices, other.radices),
        )
        n = len(self.vec)
        _common, i, j = np.intersect1d(
            codes[:n], codes[n:], assume_unique=True, return_indices=True
        )
        return abs(np.vdot(self.vec[i], other.vec[j])) ** 2


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every row of `left` followed by every row of `right`, left-major."""
    return np.hstack(
        [np.repeat(left, len(right), axis=0), np.tile(right, (len(left), 1))]
    )


def init_uniform(specs, domain) -> SparseState:
    """Equal amplitudes over the given basis labels."""
    labels = [tuple(tuple(part) for part in lab) for lab in domain]
    if not labels:
        raise ValueError("empty domain")
    a = 1.0 / math.sqrt(len(labels))
    return SparseState(specs, {lab: complex(a) for lab in labels})


def init_uniform_full(specs) -> SparseState:
    """Uniform superposition over the full product basis of all registers."""
    specs = tuple(specs)
    _check_cap(math.prod(s.radix**s.size for s in specs))
    labels = np.zeros((1, 0), dtype=np.int64)
    for s in specs:
        labels = _product(labels, domain_grid(s.radix, s.size))
    vec = np.full(len(labels), 1.0 / math.sqrt(len(labels)), dtype=np.complex128)
    return SparseState.from_arrays(specs, labels, vec)


def load_gaussian_register(
    state: SparseState, spec: RegisterSpec, g: TruncatedGaussian
) -> SparseState:
    """Tensor-extend the state with a Gaussian-amplitude register.

    Every existing branch is extended with amplitude sqrt(D(e0)) over the
    truncated support of g (Grover-Rudolph preparation replaced by direct
    amplitude assignment).
    """
    if spec.kind != "modq" or spec.q != g.modulus.q or spec.size != g.dim:
        raise DimensionError("register spec does not match the Gaussian")
    points, probs = g.support_arrays()
    live = probs > 0.0
    points, roots = points[live], np.sqrt(probs[live])
    _check_cap(len(state.vec) * len(roots))
    vec = (state.vec[:, None] * roots[None, :]).reshape(-1)
    return SparseState.from_arrays(
        state.specs + (spec,), _product(state.labels, points), vec
    )


def apply_ufkb(
    state: SparseState,
    key: NtcfKey,
    b_reg: str = "b",
    x_reg: str = "x",
    y_reg: str = "y",
    invert: bool = False,
) -> SparseState:
    """Basis permutation |b>|x>|w> -> |b>|x>|w + Ax + b*t mod q>.

    With invert=True the shift is subtracted (the uncompute direction).
    """
    p = key.params
    if state.spec(x_reg).size != p.n or state.spec(y_reg).size != p.m:
        raise DimensionError("register sizes do not match the key")
    q = p.q
    A = key.A.entries
    labels = state.labels
    xc, yc = state.reg_cols(x_reg), state.reg_cols(y_reg)
    b = labels[:, state.reg_cols(b_reg).start, None]
    shift = b * key.t.entries
    # Reduce each product mod q before summing, as zq.mat_vec_mul does,
    # so the sums stay inside int64 for any q < 2^31.
    for j in range(p.n):
        shift += labels[:, xc.start + j, None] * A[:, j] % q
    out = labels.copy()
    out[:, yc] = (labels[:, yc] + (-shift if invert else shift)) % q
    return SparseState.from_arrays(state.specs, out, state.vec)


def measure_register(state: SparseState, name: str, rng: np.random.Generator):
    """Sample an outcome from the exact marginal and collapse."""
    c = state.reg_cols(name)
    group, first, probs = _marginal(state, c)
    pick = int(rng.choice(len(probs), p=probs / probs.sum()))
    keep = group == pick
    vec = state.vec[keep]
    collapsed = SparseState.from_arrays(
        state.specs, state.labels[keep], vec / math.sqrt(np.vdot(vec, vec).real)
    )
    return tuple(state.labels[first[pick], c].tolist()), collapsed


def remove_register(state: SparseState, name: str) -> SparseState:
    """Drop a register whose value is identical on every branch."""
    i = state.reg_pos(name)
    c = state.cols[i]
    reg = state.labels[:, c]
    if (reg != reg[0]).any():
        raise ValueError(f"register {name!r} is entangled; cannot remove")
    labels = np.delete(state.labels, np.s_[c], axis=1)
    specs = state.specs[:i] + state.specs[i + 1 :]
    return SparseState.from_arrays(specs, labels, state.vec)


def _apply_dense(state: SparseState, c: slice, radix: int, U: np.ndarray) -> SparseState:
    """Apply U to the coordinates in columns c, whose joint values are
    numbered in mixed radix: U[k2, k] takes value k to value k2."""
    basis = domain_grid(radix, c.stop - c.start)  # row k is value k
    rest = np.delete(state.labels, np.s_[c], axis=1)
    group, first = _group_rows(rest, np.delete(state.radices, np.s_[c]))
    _check_cap(len(first) * len(basis))
    block = np.zeros((len(first), len(basis)), dtype=np.complex128)
    block[group, _row_codes(state.labels[:, c], state.radices[c])] = state.vec
    rest_rows = np.repeat(rest[first], len(basis), axis=0)
    labels = np.hstack(
        [rest_rows[:, : c.start], np.tile(basis, (len(first), 1)), rest_rows[:, c.start :]]
    )
    return SparseState.from_arrays(state.specs, labels, (block @ U.T).reshape(-1))


def apply_hadamard_bits(state: SparseState, name: str) -> SparseState:
    """Walsh-Hadamard transform on a bit register."""
    spec = state.spec(name)
    if spec.kind != "bits":
        raise DimensionError(f"register {name!r} is not a bit register")
    H = np.ones((1, 1))
    for _ in range(spec.size):
        H = np.kron(H, [[1.0, 1.0], [1.0, -1.0]])  # H[z, z2] = (-1)^popcount(z & z2)
    return _apply_dense(state, state.reg_cols(name), 2, H * 2.0 ** (-spec.size / 2.0))


def apply_qft_q(state: SparseState, name: str, inverse: bool = False) -> SparseState:
    """Per-coordinate QFT F_q with (F_q)_{jk} = omega^{jk}/sqrt(q)."""
    spec = state.spec(name)
    if spec.kind != "modq":
        raise DimensionError(f"register {name!r} is not a mod-q register")
    q = spec.q
    omega = np.exp((-2j if inverse else 2j) * np.pi / q)
    F = omega ** (np.outer(np.arange(q), np.arange(q))) / math.sqrt(q)
    start = state.reg_cols(name).start
    cur = state
    for coord in range(start, start + spec.size):
        cur = _apply_dense(cur, slice(coord, coord + 1), q, F)
    return cur


def full_distribution(state: SparseState, names) -> Density:
    """Exact |amp|^2 marginal over the named registers, flattened to a
    single tuple of ints per outcome."""
    cols = np.r_[tuple(state.reg_cols(n) for n in names)]
    _group, first, probs = _marginal(state, cols)
    keys = zip(*state.labels[np.ix_(first, cols)].T.tolist())
    return Density(dict(zip(keys, (probs / probs.sum()).tolist())))
