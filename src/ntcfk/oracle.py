"""Brute-force sparse state-vector simulator.

A state is a label matrix and an amplitude vector. The int64 label
matrix has one row per basis label and one column per register
coordinate; each register owns a run of columns, in the order of its
specs. Registers are either mod-q integer registers (coordinates in
[0, q)) or bit registers. Row i has the complex amplitude amps[i], and
no two rows are equal. This is the ground-truth oracle for the sampling
circuits: the function application is one modular update of the y
columns, measurements use exact marginals, and the Hadamard / QFT
transforms are dense per register.

`SparseState(specs, labels, amps)` is the one constructor, and every
transform builds its result with it. `init_uniform` takes a label matrix
the caller chose and checks its shape, range and distinctness.

Rows are grouped by their `zq.row_codes`: a row's coordinates read as
the digits of one integer, each in the radix of its column (q or 2), so
equal rows get equal codes, and one sort of the codes (`zq.sort_codes`)
puts the groups in lexicographic order. A marginal (`full_distribution`,
`measure_register`) codes the registers' columns in place, groups the
rows, sums |amp|^2 per group with `np.bincount` and copies those
columns of one row per group. The marginals of `full_distribution` code
every column in one radix, the largest of the registers', and hand the
grouped rows to the `Density` with their codes, so that it codes
nothing again. A transform groups rows by the code of every other
column into a dense (groups x values) block and applies one matrix
product. U_f is one update of the y columns (`zq.mat_vec_add_mod`).

Desk scale only: label count is hard-capped, checked before a product
state or a dense block is allocated, and amplitudes below 1e-14 are
pruned.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import Density, TruncatedGaussian
from .ntcf import NtcfKey
from .zq import (DimensionError, common_rows, domain_grid, mat_vec_add_mod, row_codes,
                 sort_codes)

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


def _radices(specs) -> np.ndarray:
    """The radix of every label column, in spec order."""
    return np.array([s.radix for s in specs for _ in range(s.size)], dtype=np.int64)


def _group_rows(rows: np.ndarray, radices: np.ndarray, cols=None):
    """Group equal rows (of rows[:, cols], with `cols`): (group of each
    row, one row index of each group, each group's code), groups in
    lexicographic order. Sorting the codes (`zq.sort_codes`) costs a
    fraction of the stable sort `np.unique` runs for its first indices,
    and any row of a group stands for it."""
    order, codes = sort_codes(row_codes(rows, radices, cols), radices)
    new = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    group = np.empty(len(codes), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return group, order[new], codes[new]


def _columns(state: "SparseState", names) -> np.ndarray:
    """The label columns of the named registers, side by side."""
    return np.concatenate([np.arange(c.start, c.stop) for c in map(state.reg_cols, names)])


def _marginal(state: "SparseState", names, radices=None):
    """|amp|^2 summed over the rows that agree on the named registers: the
    group of each row, each group's values on the registers' columns side
    by side (one row per group, in lexicographic order), each group's
    code in `radices` (default: the columns' own) and each group's
    weight, summed in row order. The columns are coded in place and
    copied only for the groups' rows."""
    cols = _columns(state, names)
    radices = state.radices[cols] if radices is None else radices
    group, first, codes = _group_rows(state.labels, radices, cols)
    weights = np.bincount(group, weights=np.abs(state.amps) ** 2)
    return group, state.labels.take(first, axis=0)[:, cols], codes, weights


class SparseState:
    """Immutable-by-convention sparse state: an int64 label matrix and a
    complex128 amplitude vector `amps`, one row per basis label."""

    def __init__(self, specs, labels: np.ndarray, amps: np.ndarray):
        """A state from distinct label rows and their amplitudes. Rows whose
        amplitude is at most PRUNE_EPS are dropped, then the label cap and
        the norm are checked."""
        self.specs = tuple(specs)
        self._index = {s.name: i for i, s in enumerate(self.specs)}
        if len(self._index) != len(self.specs):
            raise ValueError("duplicate register names")
        stops = list(itertools.accumulate(s.size for s in self.specs))
        self.cols = tuple(slice(b - s.size, b) for b, s in zip(stops, self.specs))
        self.radices = _radices(self.specs)
        keep = np.abs(amps) > PRUNE_EPS
        if not keep.all():
            labels, amps = labels[keep], amps[keep]
        _check_cap(len(amps))
        self.labels = labels
        self.amps = amps
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
        return float(np.vdot(self.amps, self.amps).real)

    def fidelity(self, other: "SparseState") -> float:
        """|<self|other>|^2 over the common support."""
        if [s.size for s in self.specs] != [s.size for s in other.specs]:
            return 0.0
        i, j = common_rows(
            self.labels, other.labels, np.maximum(self.radices, other.radices)
        )
        return abs(np.vdot(self.amps[i], other.amps[j])) ** 2


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every row of `left` followed by every row of `right`, left-major."""
    w = left.shape[1]
    out = np.empty((len(left), len(right), w + right.shape[1]), dtype=np.int64)
    out[:, :, :w] = left[:, None, :]
    out[:, :, w:] = right[None, :, :]
    return out.reshape(len(left) * len(right), -1)


def init_uniform(specs, labels) -> SparseState:
    """Equal amplitudes over the given basis labels: a matrix with one row
    per label and its columns in spec order. The labels are the caller's
    choice, so their shape, range and distinctness are checked here."""
    specs = tuple(specs)
    radices = _radices(specs)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise ValueError("empty domain")
    if labels.ndim != 2 or labels.shape[1] != len(radices):
        raise ValueError(f"label matrix of shape {labels.shape} needs {len(radices)} columns")
    if ((labels < 0) | (labels >= radices)).any():
        raise ValueError("label coordinate outside its register's range")
    if len(_group_rows(labels, radices)[1]) != len(labels):
        raise ValueError("repeated label")
    amps = np.full(len(labels), 1.0 / math.sqrt(len(labels)), dtype=np.complex128)
    return SparseState(specs, labels, amps)


def init_uniform_full(specs) -> SparseState:
    """Uniform superposition over the full product basis of all registers."""
    specs = tuple(specs)
    _check_cap(math.prod(s.radix**s.size for s in specs))
    labels = np.zeros((1, 0), dtype=np.int64)
    for s in specs:
        labels = _product(labels, domain_grid(s.radix, s.size))
    amps = np.full(len(labels), 1.0 / math.sqrt(len(labels)), dtype=np.complex128)
    return SparseState(specs, labels, amps)


def load_gaussian_register(
    state: SparseState, spec: RegisterSpec, g: TruncatedGaussian
) -> SparseState:
    """Tensor-extend the state with a Gaussian-amplitude register.

    Every existing branch is extended with amplitude sqrt(D(e0)) over the
    truncated support of g (Grover-Rudolph preparation replaced by direct
    amplitude assignment).
    """
    if spec.kind != "modq" or spec.q != g.q or spec.size != g.dim:
        raise DimensionError("register spec does not match the Gaussian")
    points, probs = g.support_arrays()
    live = probs > 0.0
    points, roots = points[live], np.sqrt(probs[live])
    _check_cap(len(state.amps) * len(roots))
    amps = (state.amps[:, None] * roots[None, :]).reshape(-1)
    return SparseState(state.specs + (spec,), _product(state.labels, points), amps)


def apply_ufkb(state: SparseState, key: NtcfKey, invert: bool = False) -> SparseState:
    """Basis permutation |b>|x>|w> -> |b>|x>|w + Ax + b*t mod q> on the
    registers named "b", "x" and "y".

    With invert=True the shift is subtracted (the uncompute direction).
    """
    p = key.params
    if (state.spec("x").size, state.spec("b").size, state.spec("y").size) != (p.n, 1, p.m):
        raise DimensionError("register sizes do not match the key")
    q = p.q
    labels = state.labels
    yc = state.reg_cols("y")
    # Ax + bt = [A | t] (x, b), with b < kappa <= q.
    y = mat_vec_add_mod(np.column_stack([key.A, key.t]), labels[:, _columns(state, ("x", "b"))],
                        labels[:, yc], q, -1 if invert else 1)
    out = labels.copy()
    out[:, yc] = y
    return SparseState(state.specs, out, state.amps)


def measure_register(state: SparseState, name: str, rng: np.random.Generator):
    """Sample an outcome from the exact marginal and collapse."""
    group, values, _codes, probs = _marginal(state, (name,))
    pick = int(rng.choice(len(probs), p=probs / probs.sum()))
    keep = group == pick
    amps = state.amps[keep]
    collapsed = SparseState(
        state.specs, state.labels[keep], amps / math.sqrt(np.vdot(amps, amps).real)
    )
    return tuple(values[pick].tolist()), collapsed


def remove_register(state: SparseState, name: str) -> SparseState:
    """Drop a register whose value is identical on every branch."""
    i = state.reg_pos(name)
    c = state.cols[i]
    reg = state.labels[:, c]
    if (reg != reg[0]).any():
        raise ValueError(f"register {name!r} is entangled; cannot remove")
    labels = np.delete(state.labels, np.s_[c], axis=1)
    specs = state.specs[:i] + state.specs[i + 1 :]
    return SparseState(specs, labels, state.amps)


def _apply_dense(state: SparseState, c: slice, radix: int, U: np.ndarray) -> SparseState:
    """Apply U to the coordinates in columns c, whose joint values are
    numbered in mixed radix: U[k2, k] takes value k to value k2."""
    basis = domain_grid(radix, c.stop - c.start)  # row k is value k
    rest = np.delete(state.labels, np.s_[c], axis=1)
    group, first, _codes = _group_rows(rest, np.delete(state.radices, np.s_[c]))
    _check_cap(len(first) * len(basis))
    block = np.zeros((len(first), len(basis)), dtype=np.complex128)
    block[group, row_codes(state.labels[:, c], state.radices[c])] = state.amps
    rest_rows = np.repeat(rest[first], len(basis), axis=0)
    labels = np.hstack(
        [rest_rows[:, : c.start], np.tile(basis, (len(first), 1)), rest_rows[:, c.start :]]
    )
    return SparseState(state.specs, labels, (block @ U.T).reshape(-1))


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
    """Exact |amp|^2 marginal over the named registers: one row per
    outcome, the registers' columns side by side, rows in lexicographic
    order. The rows are coded once, every column in the largest radix of
    the registers, and go to the `Density` with those codes."""
    cols = _columns(state, names)
    radix = int(state.radices[cols].max())
    radices = np.full(len(cols), radix, dtype=np.int64)
    _group, values, codes, probs = _marginal(state, names, radices)
    return Density.from_sorted(values, probs / probs.sum(), radix, codes)
