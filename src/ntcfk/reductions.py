"""LWE to DCP / EDCP reduction pipelines with desk-scale solver oracles.

The pipelines reuse the prover's sampling machinery: an LWE instance
(A, t = As + e) is wrapped as a function-family key, the claw
superposition is produced for each state, and its labels form the coset
states. The DCP secret that falls out is s_tilde = -s mod q (the second
label minus the first), while EDCP states carry s directly in their
consecutive-label differences.

With a planted secret (the idealized claw) all of a call's images come
from one `prover.sample_images` call and all its claws from one
`ntcf.claws` array, drawn in the order of one state at a time. Without
one, each state's residual is enumerated exactly from its own image.

The solvers here simply read the secret off the explicit sparse
supports, stacked into one array, and check consistency and unanimity
with whole-array comparisons. They stand in for the efficient DCP
solver whose existence the reduction theorems assume; this artifact
demonstrates the reduction direction, not the solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ntcf import NtcfKey, NtcfParams, claws, compute_bp
from .prover import DcpState, _red_from_branches, samp_and_measure, sample_images
from .zq import Modulus, ZqMatrix, ZqVector, euclidean_norm, mat_vec_mul


@dataclass(frozen=True)
class LweInstance:
    A: ZqMatrix
    t: ZqVector
    params: NtcfParams
    planted_s: ZqVector | None = None  # simulation shortcut, see module doc

    def __post_init__(self):
        if len(self.t) != self.params.m:
            raise ValueError(f"t must have length m={self.params.m}")


@dataclass(frozen=True)
class EdcpState:
    """Uniform extrapolated coset state: support {(j, x0 - j*s)}_{j<kappa}.

    Stored with weights implied uniform; label differences carry s.
    """

    support: tuple[tuple[int, ZqVector], ...]

    def __post_init__(self):
        js = [j for j, _ in self.support]
        if js != list(range(len(js))):
            raise ValueError("EDCP labels must be 0..kappa-1 in order")

    @property
    def kappa(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class SolverReport:
    success: bool
    candidate: ZqVector | None
    states_consumed: int
    detail: str


def instance_from_key(k: NtcfKey, planted_s: ZqVector | None = None) -> LweInstance:
    return LweInstance(k.A, k.t, k.params, planted_s)


def _sampling_key(inst: LweInstance, kappa: int) -> NtcfKey:
    """View the LWE instance as a kappa-branch sampling key."""
    p = inst.params
    if kappa != p.kappa:
        p = replace(p, kappa=kappa, b_p=compute_bp(p.q, p.n, p.m, kappa, p.c_t))
    return NtcfKey(p, inst.A, inst.t)


def _sample_claws(
    inst: LweInstance, kappa: int, count: int, rng: np.random.Generator
) -> list[tuple[ZqVector, ...]]:
    """Run the kappa-branch sampling circuit count times and keep each
    residual's claw.

    With a planted secret all count images come from one `sample_images`
    call and the claws from one `claws` array: the idealized claw of
    (b, x) has x_0 = x + b*s. Without one, each residual is enumerated
    from its own image, and ValueError is raised if it is not a clean
    claw.
    """
    k = _sampling_key(inst, kappa)
    s = inst.planted_s
    if s is None:
        return [
            samp_and_measure(k, rng, mode="exact-enumeration")[1].branches()
            for _ in range(count)
        ]
    B, X, _Y = sample_images(k, rng, count)
    rows = claws(X + B[:, None] * s.entries, s, kappa)
    return [tuple(ZqVector(x, s.modulus) for x in claw_rows) for claw_rows in rows]


def lwe_to_dcp(
    inst: LweInstance, count: int, rng: np.random.Generator
) -> list[DcpState]:
    """Produce DCP states {(0, x), (1, x + s_tilde)} with s_tilde = -s.

    Runs the kappa=2 sampling circuit per state; the claw (x0, x0 - s)
    relabels directly into DCP form with secret x1 - x0 = -s.
    """
    return [DcpState(x0, x1) for x0, x1 in _sample_claws(inst, 2, count, rng)]


def lwe_to_edcp(
    inst: LweInstance, ell: int, kappa: int, rng: np.random.Generator
) -> list[EdcpState]:
    """Produce ell uniform EDCP states with fresh x0 per state."""
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    claws = _sample_claws(inst, kappa, ell, rng)
    return [EdcpState(tuple(enumerate(xs))) for xs in claws]


def red_edcp_to_dcp(
    state: EdcpState, rng: np.random.Generator
) -> tuple[int, DcpState]:
    """RED on a uniform EDCP state; the DCP secret is 2*b_hat_prime*s.

    Raises RedFailed on the zero / singleton outcomes.
    """
    return _red_from_branches(tuple(x for _, x in state.support), rng)


_NO_STATES = SolverReport(False, None, 0, "no states supplied")


def _unanimous(candidates: np.ndarray, modulus: Modulus) -> SolverReport:
    """Success iff every row of the (states, n) candidate array agrees."""
    if (candidates == candidates[0]).all():
        candidate = ZqVector(candidates[0], modulus)
        return SolverReport(True, candidate, len(candidates), "unanimous")
    return SolverReport(False, None, len(candidates), "inconsistent states")


def solve_dcp_desk(states: list[DcpState]) -> SolverReport:
    """Read s_tilde = x1 - x0 off each state; success iff unanimous."""
    if not states:
        return _NO_STATES
    modulus = states[0].x0.modulus
    x0 = np.array([st.x0.entries for st in states])
    x1 = np.array([st.x1.entries for st in states])
    return _unanimous((x1 - x0) % modulus.q, modulus)


def solve_edcp_desk(states: list[EdcpState]) -> SolverReport:
    """Read s off each state's consecutive-label difference; success iff
    every state's differences agree and the states are unanimous. The
    states share one kappa, as `lwe_to_edcp` makes them."""
    if not states:
        return _NO_STATES
    modulus = states[0].support[0][1].modulus
    labels = np.array([[x.entries for _, x in st.support] for st in states])
    diffs = (labels[:, :-1] - labels[:, 1:]) % modulus.q  # (states, kappa-1, n)
    if not (diffs == diffs[:, :1]).all():
        return SolverReport(False, None, len(states), "inconsistent label differences")
    return _unanimous(diffs[:, 0], modulus)


def verify_candidate(inst: LweInstance, s: ZqVector) -> bool:
    """Accept s iff the residual t - As is a valid B_V-bounded error."""
    resid = inst.t - mat_vec_mul(inst.A, s)
    return euclidean_norm(resid) <= inst.params.b_v * math.sqrt(inst.params.m)


def end_to_end_recover(
    inst: LweInstance,
    path: str,
    rng: np.random.Generator,
    count: int = 8,
    kappa: int | None = None,
) -> SolverReport:
    """Full pipeline: coset states -> solver -> LWE secret, verified.

    path "dcp" negates the recovered s_tilde; path "edcp" reads s
    directly. The returned candidate is the LWE secret estimate.
    """
    if path == "dcp":
        report = solve_dcp_desk(lwe_to_dcp(inst, count, rng))
        if not report.success:
            return report
        cand = -report.candidate
    elif path == "edcp":
        kap = kappa if kappa is not None else max(inst.params.kappa, 3)
        report = solve_edcp_desk(lwe_to_edcp(inst, count, kap, rng))
        if not report.success:
            return report
        cand = report.candidate
    else:
        raise ValueError(f"unknown path {path!r}")
    if not verify_candidate(inst, cand):
        return SolverReport(
            False, cand, report.states_consumed, "candidate fails LWE verification"
        )
    return SolverReport(True, cand, report.states_consumed, "verified")
