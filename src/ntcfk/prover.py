"""The honest prover as an analytic sampler, plus classical cheaters.

The quantum side of the protocol never needs a state vector: the image
measurement marginal and the residual claw superposition have closed
forms, so the prover samples (b, x, e0), announces y = Ax + e0 + b*t,
and carries the residual support explicitly. Two modes:

  exact-enumeration  the residual support is computed by scanning every
                     (b', x') against the public density, exactly what
                     the sparse oracle produces; feasible when
                     kappa * q^n is small.
  idealized-claw     the residual is assumed to be the clean kappa-point
                     claw with equal amplitudes. This is the unique-
                     decoding idealization; it needs the planted secret,
                     which a physical device would hold implicitly in
                     its state. Simulation shortcut only.

The RED procedure shifts branch labels by floor((kappa-1)/2), measures
the absolute value, and keeps the two-branch outcomes; the surviving
labels define the DCP state directly (no closed form needed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import TruncatedGaussian
from .ntcf import NtcfKey
from .zq import BitString, ZqVector, bit_dot_xor, j_encode, mat_vec_mul

ENUM_CAP = 2**16


class RedFailed(RuntimeError):
    """RED measured an outcome with no two-branch structure."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class ResidualState:
    """Post-image-measurement superposition over (b, x) labels."""

    key: NtcfKey
    image: ZqVector
    support: tuple[tuple[tuple[int, ZqVector], float], ...]

    def __post_init__(self):
        total = sum(a * a for _, a in self.support)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"residual amplitudes square-sum to {total}")

    def is_clean_claw(self, tol: float = 1e-9) -> bool:
        """True when there is exactly one equal-weight branch per b."""
        kappa = self.key.params.kappa
        if len(self.support) != kappa:
            return False
        bs = sorted(b for (b, _), _ in self.support)
        if bs != list(range(kappa)):
            return False
        target = 1.0 / math.sqrt(kappa)
        return all(abs(a - target) <= tol for _, a in self.support)


@dataclass(frozen=True)
class DcpState:
    """(1/sqrt(2)) (|0, x0> + |1, x1>) with secret sbar = x0 - x1."""

    x0: ZqVector
    x1: ZqVector

    @property
    def sbar(self) -> ZqVector:
        return self.x0 - self.x1


@dataclass(frozen=True)
class EquationResponse:
    c: int
    d: BitString


def samp_and_measure(
    k: NtcfKey,
    rng: np.random.Generator,
    mode: str = "exact-enumeration",
    secret_s: ZqVector | None = None,
) -> tuple[ZqVector, ResidualState]:
    """Run SAMP and the Y measurement; return the image and residual.

    The image marginal is sampled directly: b and x uniform, e0 from the
    B_P Gaussian, y = Ax + e0 + b*t.
    """
    p = k.params
    b = int(rng.integers(0, p.kappa))
    x = ZqVector(rng.integers(0, p.q, size=p.n, dtype=np.int64), p.modulus)
    e0 = TruncatedGaussian(p.modulus, p.b_p, p.m).sample(rng)
    y = mat_vec_mul(k.A, x) + e0 + k.t.scale(b)

    if mode == "exact-enumeration":
        support = _enumerate_residual(k, y)
    elif mode == "idealized-claw":
        if secret_s is None:
            raise ValueError("idealized-claw mode needs the planted secret")
        x0 = x + secret_s.scale(b)
        amp = 1.0 / math.sqrt(p.kappa)
        support = tuple(
            ((bb, x0 - secret_s.scale(bb)), amp) for bb in range(p.kappa)
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return y, ResidualState(k, y, support)


def _enumerate_residual(k: NtcfKey, y: ZqVector):
    """Scan all (b', x') for nonzero amplitude sqrt(f'(x')(y))."""
    p = k.params
    if p.kappa * p.q**p.n > ENUM_CAP:
        raise ValueError(
            f"enumeration size {p.kappa * p.q ** p.n} exceeds cap {ENUM_CAP}"
        )
    g = TruncatedGaussian(p.modulus, p.b_p, p.m)
    prob_by_residue = np.array([g.eval_1d(r) for r in range(p.q)])
    grid = np.indices((p.q,) * p.n).reshape(p.n, -1).T.astype(np.int64)
    images = (grid @ k.A.entries.T) % p.q  # q^n x m
    entries = []
    for b in range(p.kappa):
        res = (y.entries[None, :] - images - b * k.t.entries[None, :]) % p.q
        w = prob_by_residue[res].prod(axis=1)
        for i in np.nonzero(w)[0]:
            entries.append(((b, ZqVector(grid[i], p.modulus)), float(w[i])))
    total = sum(w for _, w in entries)
    return tuple((lab, math.sqrt(w / total)) for lab, w in entries)


def preimage_measure(r: ResidualState, rng: np.random.Generator):
    """Computational-basis measurement of the BX registers."""
    probs = np.array([a * a for _, a in r.support])
    probs /= probs.sum()
    i = int(rng.choice(len(r.support), p=probs))
    return r.support[i][0]


def red_valid_range(kappa: int) -> tuple[int, ...]:
    """The b-hat-prime values whose |b'| outcome has two preimages."""
    shift = (kappa - 1) // 2
    vals = []
    for v in range(1, max(shift, kappa - 1 - shift) + 1):
        if shift - v >= 0 and shift + v <= kappa - 1:
            vals.append(v)
    return tuple(vals)


def red(r: ResidualState, rng: np.random.Generator) -> tuple[int, DcpState]:
    """Collapse a clean claw state to a DCP state.

    Shifts b to b' = b - floor((kappa-1)/2) and measures |b'|. On an
    outcome v with both b' = -v and b' = +v present, the survivors are
    relabeled (0, x_bar0), (1, x_bar1) with x_bar0 the b' = -v branch,
    so sbar = x_bar0 - x_bar1 = 2v*s. Outcome 0 and singleton outcomes
    raise RedFailed.
    """
    if not r.is_clean_claw():
        raise ValueError("RED needs a clean kappa-point claw residual")
    kappa = r.key.params.kappa
    xs = {b: x for (b, x), _ in r.support}
    return _red_from_branches(xs, kappa, rng)


def _red_from_branches(
    xs: dict[int, ZqVector], kappa: int, rng: np.random.Generator
) -> tuple[int, DcpState]:
    """Shared RED measurement over equal-weight branches b -> x_b."""
    shift = (kappa - 1) // 2
    groups: dict[int, list[int]] = {}
    for b in xs:
        groups.setdefault(abs(b - shift), []).append(b)
    outcomes = sorted(groups)
    probs = np.array([len(groups[v]) for v in outcomes], dtype=np.float64)
    probs /= probs.sum()
    v = outcomes[int(rng.choice(len(outcomes), p=probs))]
    if v == 0:
        raise RedFailed("measured b' = 0")
    if len(groups[v]) == 1:
        raise RedFailed(f"singleton outcome |b'| = {v}")
    return v, DcpState(x0=xs[shift - v], x1=xs[shift + v])


def equation_measure(d_state: DcpState, rng: np.random.Generator) -> EquationResponse:
    """Hadamard measurement over the J-encoded DCP state: d uniform,
    c = d . (J(x_bar0) xor J(x_bar1))."""
    n = len(d_state.x0)
    w = n * d_state.x0.modulus.bits
    d = BitString(tuple(int(b) for b in rng.integers(0, 2, size=w)))
    c = bit_dot_xor(d, j_encode(d_state.x0), j_encode(d_state.x1))
    return EquationResponse(c, d)


# prover implementations ----------------------------------------------------

class HonestProver:
    """Honest quantum device, simulated analytically.

    Callback order per round: receive_key -> respond_generation or
    respond_test. In idealized-claw mode the driver must supply the
    planted secret through set_secret_hint before receive_key.
    """

    kind = "honest"

    def __init__(self, rng: np.random.Generator, mode: str = "exact-enumeration"):
        self.rng = rng
        self.mode = mode
        self._secret: ZqVector | None = None
        self._residual: ResidualState | None = None

    @property
    def wants_secret_hint(self) -> bool:
        return self.mode == "idealized-claw"

    def set_secret_hint(self, s: ZqVector) -> None:
        self._secret = s

    def receive_key(self, key: NtcfKey) -> ZqVector:
        y, residual = samp_and_measure(
            key, self.rng, mode=self.mode, secret_s=self._secret
        )
        self._residual = residual
        return y

    def respond_generation(self):
        return preimage_measure(self._residual, self.rng)

    def respond_test(self):
        """Returns (b_hat_prime, EquationResponse); may raise RedFailed.

        kappa = 2 skips RED (the residual is already a two-point state)
        and reports b_hat_prime = 0 to mean the direct claw.
        """
        kappa = self._residual.key.params.kappa
        if kappa == 2:
            xs = {b: x for (b, x), _ in self._residual.support}
            return 0, equation_measure(DcpState(xs[0], xs[1]), self.rng)
        v, d_state = red(self._residual, self.rng)
        return v, equation_measure(d_state, self.rng)


class CheatCommitProver:
    """Classical strategy: commit to one (b, x, e0), answer generation
    honestly for that branch, guess uniformly on test rounds."""

    kind = "cheat-commit"
    wants_secret_hint = False

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._committed = None
        self._key: NtcfKey | None = None

    def receive_key(self, key: NtcfKey) -> ZqVector:
        p = key.params
        b = int(self.rng.integers(0, p.kappa))
        x = ZqVector(self.rng.integers(0, p.q, size=p.n, dtype=np.int64), p.modulus)
        e0 = TruncatedGaussian(p.modulus, p.b_p, p.m).sample(self.rng)
        self._committed = (b, x)
        self._key = key
        return mat_vec_mul(key.A, x) + e0 + key.t.scale(b)

    def respond_generation(self):
        return self._committed

    def respond_test(self):
        p = self._key.params
        valid = red_valid_range(p.kappa)
        v = int(self.rng.choice(valid)) if valid else 0
        w = p.d_len
        d = BitString(tuple(int(b) for b in self.rng.integers(0, 2, size=w)))
        c = int(self.rng.integers(0, 2))
        return v, EquationResponse(c, d)


class CheatRandomProver:
    """Baseline that answers everything uniformly at random."""

    kind = "cheat-random"
    wants_secret_hint = False

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._key: NtcfKey | None = None

    def receive_key(self, key: NtcfKey) -> ZqVector:
        self._key = key
        p = key.params
        return ZqVector(
            self.rng.integers(0, p.q, size=p.m, dtype=np.int64), p.modulus
        )

    def respond_generation(self):
        p = self._key.params
        b = int(self.rng.integers(0, p.kappa))
        x = ZqVector(self.rng.integers(0, p.q, size=p.n, dtype=np.int64), p.modulus)
        return b, x

    def respond_test(self):
        p = self._key.params
        valid = red_valid_range(p.kappa)
        v = int(self.rng.choice(valid)) if valid else 0
        d = BitString(tuple(int(b) for b in self.rng.integers(0, 2, size=p.d_len)))
        return v, EquationResponse(int(self.rng.integers(0, 2)), d)
