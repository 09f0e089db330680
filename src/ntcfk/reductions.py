"""LWE to DCP / EDCP reduction pipelines with desk-scale solver oracles.

The pipelines reuse the prover's sampling machinery: an LWE instance
(A, t = As + e) is wrapped as a function-family key, the claw
superposition is produced per draw, and its labels form the coset
states. The DCP secret that falls out is s_tilde = -s mod q (the second
label minus the first), while EDCP states carry s directly in their
consecutive-label differences.

The solvers here simply read the secret off the explicit sparse
supports and cross-check unanimity. They stand in for the efficient DCP
solver whose existence the reduction theorems assume; this artifact
demonstrates the reduction direction, not the solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ntcf import NtcfKey, NtcfParams, compute_bp
from .prover import DcpState, _red_from_branches, samp_and_measure
from .zq import ZqMatrix, ZqVector, euclidean_norm, mat_vec_mul


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

    def label_difference(self) -> ZqVector:
        """The common difference x_j - x_{j+1}; checked for consistency."""
        xs = [x for _, x in self.support]
        diff = xs[0] - xs[1]
        for j in range(1, len(xs) - 1):
            if xs[j] - xs[j + 1] != diff:
                raise ValueError("inconsistent label differences")
        return diff


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
    residual's claw; ValueError if a residual is not a clean claw."""
    k = _sampling_key(inst, kappa)
    mode = "exact-enumeration" if inst.planted_s is None else "idealized-claw"
    return [
        samp_and_measure(k, rng, mode=mode, secret_s=inst.planted_s)[1].branches()
        for _ in range(count)
    ]


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


def _unanimous(candidates: list[ZqVector]) -> SolverReport:
    """Success iff there are candidates and they all agree."""
    if not candidates:
        return SolverReport(False, None, 0, "no states supplied")
    if all(c == candidates[0] for c in candidates):
        return SolverReport(True, candidates[0], len(candidates), "unanimous")
    return SolverReport(False, None, len(candidates), "inconsistent states")


def solve_dcp_desk(states: list[DcpState]) -> SolverReport:
    """Read s_tilde = x1 - x0 off each state; success iff unanimous."""
    return _unanimous([st.x1 - st.x0 for st in states])


def solve_edcp_desk(states: list[EdcpState]) -> SolverReport:
    """Read s off each state's consecutive-label difference; success iff
    unanimous."""
    try:
        candidates = [st.label_difference() for st in states]
    except ValueError as exc:
        return SolverReport(False, None, len(states), str(exc))
    return _unanimous(candidates)


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
