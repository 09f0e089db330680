"""The honest prover as an analytic sampler, plus classical cheaters.

The quantum side of the protocol never needs a state vector: the image
measurement marginal and the residual claw superposition have closed
forms, so the prover samples (b, x, e0), announces y = Ax + e0 + b*t,
and carries the residual support explicitly. `sample_images` is the one
image sampler: it returns any number of draws as whole arrays, and
`sample_image` (the protocol's prover and the cheaters) is its one-draw
case. Two modes for the residual:

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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .gaussian import TruncatedGaussian
from .ntcf import NtcfKey, NtcfParams, claw
from .zq import BitString, ZqVector, domain_grid, equation_bit, mul_rows_mod
from .zq import mat_vec_mul  # noqa: F401  (perfbench/tracing.py wraps this name)

ENUM_CAP = 2**16


def fits_enumeration(p: NtcfParams) -> bool:
    """Whether exact-enumeration mode can scan all kappa * q^n labels."""
    return p.kappa * p.q**p.n <= ENUM_CAP


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

    def branches(self) -> tuple[ZqVector, ...]:
        """The claw (x_0, ..., x_{kappa-1}) held by this residual.

        Raises ValueError unless there is exactly one point per branch.
        """
        kappa = self.key.params.kappa
        xs = {b: x for (b, x), _ in self.support}
        if len(self.support) != kappa or sorted(xs) != list(range(kappa)):
            raise ValueError(f"residual is not a clean {kappa}-branch claw")
        return tuple(xs[b] for b in range(kappa))

    def is_clean_claw(self) -> bool:
        """True when there is exactly one equal-weight branch per b."""
        try:
            self.branches()
        except ValueError:
            return False
        target = 1.0 / math.sqrt(self.key.params.kappa)
        return all(abs(a - target) <= 1e-9 for _, a in self.support)


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
    """Run SAMP and the Y measurement; return the image and residual."""
    p = k.params
    b, x, y = sample_image(k, rng)
    if mode == "exact-enumeration":
        support = _enumerate_residual(k, y)
    elif mode == "idealized-claw":
        if secret_s is None:
            raise ValueError("idealized-claw mode needs the planted secret")
        amp = 1.0 / math.sqrt(p.kappa)
        xs = claw(x + secret_s.scale(b), secret_s, p.kappa)
        support = tuple(((bb, xb), amp) for bb, xb in enumerate(xs))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return y, ResidualState(k, y, support)


def sample_images(
    k: NtcfKey, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SAMP's image marginal, sampled directly count times: b and x
    uniform, e0 from the B_P Gaussian, y = Ax + e0 + b*t. Returns int64
    arrays B (count,), X (count, n) and Y (count, m), row i from draw i.

    Each draw takes b, then x, then e0's uniforms from rng, the order of
    one draw at a time; everything after the draws is whole-array.
    """
    p = k.params
    B = np.empty(count, dtype=np.int64)
    X = np.empty((count, p.n), dtype=np.int64)
    U = np.empty((count, p.m))
    for i in range(count):
        B[i] = rng.integers(0, p.kappa)
        X[i] = rng.integers(0, p.q, size=p.n, dtype=np.int64)
        U[i] = rng.random(p.m)
    E = TruncatedGaussian(p.modulus, p.b_p, p.m).inverse_cdf(U)
    Y = (mul_rows_mod(k.A.entries, X, p.q) + E + B[:, None] * k.t.entries) % p.q
    return B, X, Y


def sample_image(k: NtcfKey, rng: np.random.Generator) -> tuple[int, ZqVector, ZqVector]:
    """One draw of `sample_images`, as (b, x, y)."""
    B, X, Y = sample_images(k, rng, 1)
    return int(B[0]), ZqVector(X[0], k.params.modulus), ZqVector(Y[0], k.params.modulus)


def _enumerate_residual(k: NtcfKey, y: ZqVector):
    """Scan all (b', x') for nonzero amplitude sqrt(f'(x')(y))."""
    p = k.params
    if not fits_enumeration(p):
        raise ValueError(
            f"enumeration size {p.kappa * p.q ** p.n} exceeds cap {ENUM_CAP}"
        )
    prob_by_residue = TruncatedGaussian(p.modulus, p.b_p, p.m).residue_probs()
    grid = domain_grid(p.q, p.n)
    images = mul_rows_mod(k.A.entries, grid, p.q)  # q^n x m
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


def red_branches(kappa: int, b_prime: int) -> tuple[int, int] | None:
    """The claw branches (i, j) that a test answer b' pairs, or None.

    RED shifts b to b - floor((kappa-1)/2), so |b'| = v >= 1 keeps the
    branches shift -/+ v when both exist. At kappa = 2 there is no RED:
    b' = 0 names the direct claw (0, 1).
    """
    if kappa == 2:
        return (0, 1) if b_prime == 0 else None
    shift = (kappa - 1) // 2
    return (shift - b_prime, shift + b_prime) if 1 <= b_prime <= shift else None


def red_valid_range(kappa: int) -> tuple[int, ...]:
    """The b-hat-prime values whose |b'| outcome has two preimages."""
    return tuple(v for v in range(1, kappa) if red_branches(kappa, v))


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
    return _red_from_branches(r.branches(), rng)


def _red_from_branches(
    xs: tuple[ZqVector, ...], rng: np.random.Generator
) -> tuple[int, DcpState]:
    """Shared RED measurement over the equal-weight claw xs[b] = x_b."""
    kappa = len(xs)
    shift = (kappa - 1) // 2
    sizes = Counter(abs(b - shift) for b in range(kappa))
    outcomes = sorted(sizes)
    probs = np.array([sizes[v] for v in outcomes], dtype=np.float64)
    probs /= probs.sum()
    v = outcomes[int(rng.choice(len(outcomes), p=probs))]
    if v == 0:
        raise RedFailed("measured b' = 0")
    pair = red_branches(kappa, v)
    if pair is None:
        raise RedFailed(f"singleton outcome |b'| = {v}")
    return v, DcpState(x0=xs[pair[0]], x1=xs[pair[1]])


def equation_measure(d_state: DcpState, rng: np.random.Generator) -> EquationResponse:
    """Hadamard measurement over the J-encoded DCP state: d uniform,
    c = d . (J(x_bar0) xor J(x_bar1))."""
    d = BitString.uniform(len(d_state.x0) * d_state.x0.modulus.bits, rng)
    return EquationResponse(equation_bit(d, d_state.x0, d_state.x1), d)


def _guess_test(p: NtcfParams, rng: np.random.Generator) -> tuple[int, EquationResponse]:
    """A classical test answer: b' uniform over the RED pairs (0, the
    direct claw, at kappa = 2), then d and c uniform."""
    valid = red_valid_range(p.kappa)
    v = int(rng.choice(valid)) if valid else 0
    d = BitString.uniform(p.d_len, rng)
    return v, EquationResponse(int(rng.integers(0, 2)), d)


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
            xs = self._residual.branches()
            i, j = red_branches(kappa, 0)
            return 0, equation_measure(DcpState(xs[i], xs[j]), self.rng)
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
        b, x, y = sample_image(key, self.rng)
        self._committed = (b, x)
        self._key = key
        return y

    def respond_generation(self):
        return self._committed

    def respond_test(self):
        return _guess_test(self._key.params, self.rng)


class CheatRandomProver:
    """Baseline that answers everything uniformly at random."""

    kind = "cheat-random"
    wants_secret_hint = False

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._key: NtcfKey | None = None

    def receive_key(self, key: NtcfKey) -> ZqVector:
        self._key = key
        return ZqVector.uniform(key.params.m, key.params.modulus, self.rng)

    def respond_generation(self):
        p = self._key.params
        b = int(self.rng.integers(0, p.kappa))
        return b, ZqVector.uniform(p.n, p.modulus, self.rng)

    def respond_test(self):
        return _guess_test(self._key.params, self.rng)
