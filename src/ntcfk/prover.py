"""The honest prover as an analytic sampler, plus classical cheaters.

The quantum side of the protocol never needs a state vector: the image
measurement marginal and the residual claw superposition have closed
forms, so the prover samples (b, x, e0), announces y = Ax + e0 + b*t,
and carries the residual support explicitly. `sample_draws` makes SAMP's
random choices: per draw b, x and e0's uniforms, in two generator calls
and the order of one draw at a time. `sample_images` is the one image
sampler, built on those draws: it turns them into e0 and y on whole
arrays, and `sample_image` (the protocol's prover and the cheaters) is
its one-draw case. The planted-secret reductions take the draws alone,
since the idealized claw of (b, x) needs no image. Two modes for the
residual:

  exact-enumeration  the residual support is computed by scanning every
                     (b', x') against the public density, exactly what
                     the sparse oracle produces; feasible when
                     kappa * q^n is small.
  idealized-claw     the residual is assumed to be the clean kappa-point
                     claw with equal amplitudes. This is the unique-
                     decoding idealization; it needs the planted secret,
                     which a physical device would hold implicitly in
                     its state. Simulation shortcut only.

A residual is held as arrays in branch order: a branch vector, a label
matrix and an amplitude vector. A claw is one (kappa, n) label array, and
`CosetState` is the one coset-state form: row j holds x_j = x_0 - j*sbar,
so two rows are a DCP state and kappa rows an EDCP state. RED
(`red_edcp_to_dcp`) shifts branch labels by floor((kappa-1)/2), measures
the absolute value, and keeps the two surviving rows as a DCP state.
Images and preimages are int64 arrays of residues (read-only where the
sampler hands them out) and d is a 0/1 int64 array; only the secret
hint is a `ZqVector`.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .ntcf import NtcfKey, NtcfParams, claws, image_gaussian
from .zq import ZqVector, bit_width, domain_grid, equation_bit, mat_vec_mul, read_only

ENUM_CAP = 2**16


def fits_enumeration(p: NtcfParams) -> bool:
    """Whether exact-enumeration mode can scan all kappa * q^n labels."""
    return p.kappa * p.q**p.n <= ENUM_CAP


class RedFailed(RuntimeError):
    """RED measured an outcome with no two-branch structure."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True, eq=False)
class ResidualState:
    """Post-image-measurement superposition sum_i amps[i] |branch[i], labels[i]>:
    an int64 (N,) branch vector, an int64 (N, n) label matrix and a
    float64 (N,) amplitude vector, in branch order."""

    key: NtcfKey
    image: np.ndarray
    branch: np.ndarray
    labels: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        total = float(self.amps @ self.amps)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"residual amplitudes square-sum to {total}")

    def branches(self) -> np.ndarray:
        """The (kappa, n) claw held by this residual: row b is x_b.

        Raises ValueError unless there is exactly one point per branch.
        """
        kappa = self.key.params.kappa
        if not np.array_equal(self.branch, np.arange(kappa)):
            raise ValueError(f"residual is not a clean {kappa}-branch claw")
        return self.labels

    def is_clean_claw(self) -> bool:
        """True when there is exactly one equal-weight branch per b."""
        try:
            self.branches()
        except ValueError:
            return False
        target = 1.0 / math.sqrt(self.key.params.kappa)
        return bool((np.abs(self.amps - target) <= 1e-9).all())


@dataclass(frozen=True, eq=False)
class CosetState:
    """The uniform coset state over an int64 (rows, n) array of residues
    mod q: row j holds x_j = x_0 - j*sbar. Two rows make a DCP state and
    kappa rows an EDCP state."""

    labels: np.ndarray
    q: int

    @property
    def kappa(self) -> int:
        return len(self.labels)

    @property
    def x0(self) -> np.ndarray:
        return self.labels[0]

    @property
    def x1(self) -> np.ndarray:
        return self.labels[1]

    @property
    def sbar(self) -> np.ndarray:
        return (self.x0 - self.x1) % self.q

    @property
    def support(self) -> tuple[tuple[int, np.ndarray], ...]:
        """The (j, x_j) labels, for readers of the state one row at a time."""
        return tuple(enumerate(self.labels))


@dataclass(frozen=True, eq=False)
class EquationResponse:
    c: int
    d: np.ndarray


def samp_and_measure(
    k: NtcfKey,
    rng: np.random.Generator,
    mode: str = "exact-enumeration",
    secret_s: ZqVector | None = None,
) -> tuple[np.ndarray, ResidualState]:
    """Run SAMP and the Y measurement; return the image and residual."""
    kappa = k.params.kappa
    b, x, y = sample_image(k, rng)
    if mode == "exact-enumeration":
        return y, _enumerate_residual(k, y)
    if mode != "idealized-claw":
        raise ValueError(f"unknown mode {mode!r}")
    if secret_s is None:
        raise ValueError("idealized-claw mode needs the planted secret")
    labels = claws((x + b * secret_s.entries)[None, :], secret_s, kappa)[0]
    amps = np.full(kappa, 1.0 / math.sqrt(kappa))
    return y, ResidualState(k, y, np.arange(kappa), labels, amps)


def sample_draws(
    k: NtcfKey, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SAMP's random choices, count times: b and x uniform and e0's m
    uniforms. Returns read-only int64 arrays B (count,) and X (count, n)
    and the float64 (count, m) uniforms U, row i draw i.

    Each draw takes b, then x, then e0's uniforms from rng, the order of
    one draw at a time, in two generator calls: one `integers` call with
    the bounds [kappa, q, ..., q] and one `random` into U's row.
    """
    p = k.params
    BX = np.empty((count, 1 + p.n), dtype=np.int64)
    U = np.empty((count, p.m))
    high = np.full(1 + p.n, p.q, dtype=np.int64)
    high[0] = p.kappa
    for i in range(count):
        BX[i] = rng.integers(0, high)
        rng.random(out=U[i])
    return read_only(BX[:, 0]), read_only(BX[:, 1:]), U


def sample_images(
    k: NtcfKey, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SAMP's image marginal, sampled directly count times: the draws of
    `sample_draws`, then e0 from the B_P Gaussian by inverse CDF and
    y = Ax + e0 + b*t on whole arrays. Returns read-only int64 arrays
    B (count,), X (count, n) and Y (count, m), row i draw i.
    """
    p = k.params
    B, X, U = sample_draws(k, rng, count)
    E = image_gaussian(p).inverse_cdf(U)
    Y = (mat_vec_mul(k.A, X, p.q) + E + B[:, None] * k.t) % p.q
    return B, X, read_only(Y)


def sample_image(k: NtcfKey, rng: np.random.Generator) -> tuple[int, np.ndarray, np.ndarray]:
    """One draw of `sample_images`, as (b, x, y); x and y are read-only."""
    B, X, Y = sample_images(k, rng, 1)
    return int(B[0]), X[0], Y[0]


def _enumerate_residual(k: NtcfKey, y: np.ndarray) -> ResidualState:
    """Scan all (b', x') for nonzero amplitude sqrt(f'(x')(y)).

    The weights are normalised by one sum over the nonzero entries in
    branch-major order, so every amplitude is the same float as a scan
    one entry at a time gives."""
    p = k.params
    if not fits_enumeration(p):
        raise ValueError(
            f"enumeration size {p.kappa * p.q ** p.n} exceeds cap {ENUM_CAP}"
        )
    prob_by_residue = image_gaussian(p).residue_probs()
    grid = domain_grid(p.q, p.n)
    images = mat_vec_mul(k.A, grid, p.q)  # q^n x m
    shifts = np.arange(p.kappa)[:, None, None] * k.t  # kappa x 1 x m
    weights = prob_by_residue[(y - images - shifts) % p.q].prod(axis=2)
    branch, idx = np.nonzero(weights)  # kappa x q^n, read branch-major
    w = weights[branch, idx]
    return ResidualState(k, y, branch, grid[idx], np.sqrt(w / sum(w.tolist())))


def preimage_measure(r: ResidualState, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Computational-basis measurement of the BX registers."""
    probs = r.amps * r.amps
    probs /= probs.sum()
    i = int(rng.choice(len(probs), p=probs))
    return int(r.branch[i]), r.labels[i]


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


def red(r: ResidualState, rng: np.random.Generator) -> tuple[int, CosetState]:
    """RED on a residual: ValueError unless it is a clean claw, else
    `red_edcp_to_dcp` on its claw."""
    if not r.is_clean_claw():
        raise ValueError("RED needs a clean kappa-point claw residual")
    return red_edcp_to_dcp(CosetState(r.branches(), r.key.params.q), rng)


def red_edcp_to_dcp(
    state: CosetState, rng: np.random.Generator
) -> tuple[int, CosetState]:
    """Collapse a uniform EDCP state to a DCP state.

    Shifts b to b' = b - floor((kappa-1)/2) and measures |b'|. On an
    outcome v with both b' = -v and b' = +v present, the survivors are
    relabeled (0, x_bar0), (1, x_bar1) with x_bar0 the b' = -v row, so
    sbar = x_bar0 - x_bar1 = 2v*s. Outcome 0 and singleton outcomes
    raise RedFailed.
    """
    kappa = state.kappa
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
    return v, CosetState(state.labels[list(pair)], state.q)


def equation_measure(d_state: CosetState, rng: np.random.Generator) -> EquationResponse:
    """Hadamard measurement over the J-encoded DCP state: d uniform,
    c = d . (J(x_bar0) xor J(x_bar1))."""
    d = rng.integers(0, 2, size=d_state.labels.shape[1] * bit_width(d_state.q))
    return EquationResponse(equation_bit(d, d_state.x0, d_state.x1, d_state.q), d)


def _guess_test(p: NtcfParams, rng: np.random.Generator) -> tuple[int, EquationResponse]:
    """A classical test answer: b' uniform over the RED pairs (0, the
    direct claw, at kappa = 2), then d and c uniform."""
    valid = red_valid_range(p.kappa)
    v = int(rng.choice(valid)) if valid else 0
    d = rng.integers(0, 2, size=p.d_len)
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

    def receive_key(self, key: NtcfKey) -> np.ndarray:
        y, residual = samp_and_measure(
            key, self.rng, mode=self.mode, secret_s=self._secret
        )
        self._residual = residual
        return y

    def respond_generation(self):
        return preimage_measure(self._residual, self.rng)

    def respond_test(self):
        """Returns (b_hat_prime, EquationResponse); may raise RedFailed,
        also when an exact residual is not a clean claw (noise can drop or
        reweight its branches), so the verifier retries the round.

        kappa = 2 skips RED (the residual is already a two-point state)
        and reports b_hat_prime = 0 to mean the direct claw.
        """
        r = self._residual
        try:
            if r.key.params.kappa == 2:
                v, d_state = 0, CosetState(r.branches(), r.key.params.q)
            else:
                v, d_state = red(r, self.rng)
        except ValueError as exc:
            raise RedFailed(str(exc)) from exc
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

    def receive_key(self, key: NtcfKey) -> np.ndarray:
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

    def receive_key(self, key: NtcfKey) -> np.ndarray:
        self._key = key
        return self.rng.integers(0, key.params.q, size=key.params.m, dtype=np.int64)

    def respond_generation(self):
        p = self._key.params
        b = int(self.rng.integers(0, p.kappa))
        return b, self.rng.integers(0, p.q, size=p.n, dtype=np.int64)

    def respond_test(self):
        return _guess_test(self._key.params, self.rng)
