"""Brute-force sparse state-vector simulator.

States are finite maps from multi-register basis labels to complex
amplitudes. Registers are either mod-q integer registers (a tuple of
coordinates in [0, q)) or bit registers. This is the ground-truth oracle
for the sampling circuits: the function application is a basis
permutation, measurements use exact marginals, and the Hadamard / QFT
transforms are applied densely per register.

Desk scale only: label count is hard-capped and amplitudes below 1e-14
are pruned.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import Density, TruncatedGaussian
from .ntcf import NtcfKey
from .zq import DimensionError

PRUNE_EPS = 1e-14
NORM_TOL = 1e-9
MAX_LABELS = 2**22


class StateTooLarge(RuntimeError):
    """The sparse representation exceeded the label cap."""


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

    def basis(self):
        vals = range(self.q) if self.kind == "modq" else range(2)
        return itertools.product(vals, repeat=self.size)


class SparseState:
    """Immutable-by-convention sparse amplitude map over register labels."""

    def __init__(self, specs, amps: dict):
        self.specs = tuple(specs)
        self._index = {s.name: i for i, s in enumerate(self.specs)}
        if len(self._index) != len(self.specs):
            raise ValueError("duplicate register names")
        pruned = {lab: a for lab, a in amps.items() if abs(a) > PRUNE_EPS}
        if len(pruned) > MAX_LABELS:
            raise StateTooLarge(f"{len(pruned)} labels exceeds cap {MAX_LABELS}")
        self.amps = pruned
        n = self.norm_sq()
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {n}, not 1")

    def spec(self, name: str) -> RegisterSpec:
        return self.specs[self._index[name]]

    def reg_pos(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"no register named {name!r}")
        return self._index[name]

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def fidelity(self, other: "SparseState") -> float:
        """|<self|other>|^2 over the common support."""
        keys = self.amps.keys() & other.amps.keys()
        ip = sum(self.amps[k].conjugate() * other.amps[k] for k in keys)
        return abs(ip) ** 2


def init_uniform(specs, domain) -> SparseState:
    """Equal amplitudes over the given basis labels."""
    labels = [tuple(tuple(part) for part in lab) for lab in domain]
    if not labels:
        raise ValueError("empty domain")
    a = 1.0 / math.sqrt(len(labels))
    return SparseState(specs, {lab: complex(a) for lab in labels})


def init_uniform_full(specs) -> SparseState:
    """Uniform superposition over the full product basis of all registers."""
    return init_uniform(specs, itertools.product(*(s.basis() for s in specs)))


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
    table = g.table()
    roots = {pt: math.sqrt(p) for pt, p in table.table.items() if p > 0.0}
    amps = {}
    for lab, a in state.amps.items():
        for pt, r in roots.items():
            amps[lab + (pt,)] = a * r
    return SparseState(state.specs + (spec,), amps)


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
    bi, xi, yi = state.reg_pos(b_reg), state.reg_pos(x_reg), state.reg_pos(y_reg)
    if state.spec(x_reg).size != p.n or state.spec(y_reg).size != p.m:
        raise DimensionError("register sizes do not match the key")
    q = p.q
    A = key.A.entries
    t = key.t.entries
    sign = -1 if invert else 1
    shift_cache: dict[tuple, np.ndarray] = {}
    amps = {}
    for lab, a in state.amps.items():
        b = lab[bi][0]
        x = lab[xi]
        ck = (b, x)
        shift = shift_cache.get(ck)
        if shift is None:
            xv = np.array(x, dtype=np.int64)
            shift = (A @ xv % q + b * t) % q
            shift_cache[ck] = shift
        y = np.array(lab[yi], dtype=np.int64)
        y2 = tuple(int(v) for v in (y + sign * shift) % q)
        lab2 = lab[:yi] + (y2,) + lab[yi + 1 :]
        amps[lab2] = a
    return SparseState(state.specs, amps)


def measure_register(state: SparseState, name: str, rng: np.random.Generator):
    """Sample an outcome from the exact marginal and collapse."""
    i = state.reg_pos(name)
    marg: dict[tuple, float] = {}
    for lab, a in state.amps.items():
        marg[lab[i]] = marg.get(lab[i], 0.0) + abs(a) ** 2
    outcomes = sorted(marg)
    probs = np.array([marg[o] for o in outcomes])
    probs = probs / probs.sum()
    pick = outcomes[int(rng.choice(len(outcomes), p=probs))]
    keep = {lab: a for lab, a in state.amps.items() if lab[i] == pick}
    norm = math.sqrt(sum(abs(a) ** 2 for a in keep.values()))
    collapsed = SparseState(state.specs, {l: a / norm for l, a in keep.items()})
    return pick, collapsed


def remove_register(state: SparseState, name: str) -> SparseState:
    """Drop a register whose value is identical on every branch."""
    i = state.reg_pos(name)
    vals = {lab[i] for lab in state.amps}
    if len(vals) > 1:
        raise ValueError(f"register {name!r} is entangled; cannot remove")
    amps = {lab[:i] + lab[i + 1 :]: a for lab, a in state.amps.items()}
    specs = state.specs[:i] + state.specs[i + 1 :]
    return SparseState(specs, amps)


def apply_hadamard_bits(state: SparseState, name: str) -> SparseState:
    """Walsh-Hadamard transform on a bit register."""
    i = state.reg_pos(name)
    spec = state.spec(name)
    if spec.kind != "bits":
        raise DimensionError(f"register {name!r} is not a bit register")
    w = spec.size
    scale = 2.0 ** (-w / 2.0)
    groups: dict[tuple, dict[int, complex]] = {}
    for lab, a in state.amps.items():
        rest = lab[:i] + lab[i + 1 :]
        z = 0
        for bit in lab[i]:
            z = (z << 1) | bit
        groups.setdefault(rest, {})[z] = a
    amps = {}
    for rest, zamps in groups.items():
        for z2 in range(2**w):
            acc = 0.0 + 0.0j
            for z, a in zamps.items():
                acc += a * (-1) ** (bin(z & z2).count("1"))
            if abs(acc) > PRUNE_EPS / scale:
                bits2 = tuple((z2 >> (w - 1 - j)) & 1 for j in range(w))
                amps[rest[:i] + (bits2,) + rest[i:]] = scale * acc
    return SparseState(state.specs, amps)


def apply_qft_q(state: SparseState, name: str, inverse: bool = False) -> SparseState:
    """Per-coordinate QFT F_q with (F_q)_{jk} = omega^{jk}/sqrt(q)."""
    spec = state.spec(name)
    if spec.kind != "modq":
        raise DimensionError(f"register {name!r} is not a mod-q register")
    q = spec.q
    omega = np.exp((-2j if inverse else 2j) * np.pi / q)
    F = omega ** (np.outer(np.arange(q), np.arange(q))) / math.sqrt(q)
    i = state.reg_pos(name)
    cur = state
    for coord in range(spec.size):
        groups: dict[tuple, np.ndarray] = {}
        for lab, a in cur.amps.items():
            key = lab[:i] + (lab[i][:coord] + lab[i][coord + 1 :],) + lab[i + 1 :]
            vec = groups.setdefault(key, np.zeros(q, dtype=complex))
            vec[lab[i][coord]] += a
        amps = {}
        for key, vec in groups.items():
            out = F @ vec
            stripped = key[i]
            for j in range(q):
                if abs(out[j]) > PRUNE_EPS:
                    full = stripped[:coord] + (j,) + stripped[coord:]
                    amps[key[:i] + (full,) + key[i + 1 :]] = out[j]
        cur = SparseState(cur.specs, amps)
    return cur


def full_distribution(state: SparseState, names) -> Density:
    """Exact |amp|^2 marginal over the named registers, flattened to a
    single tuple of ints per outcome."""
    idx = [state.reg_pos(n) for n in names]
    table: dict[tuple, float] = {}
    for lab, a in state.amps.items():
        key = tuple(v for i in idx for v in lab[i])
        table[key] = table.get(key, 0.0) + abs(a) ** 2
    total = sum(table.values())
    return Density({k: v / total for k, v in table.items()})
