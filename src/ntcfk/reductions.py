"""LWE to DCP / EDCP reduction pipelines with desk-scale solver oracles.

The pipelines reuse the prover's sampling machinery: an LWE instance
holds (A, t = As + e) as a function-family key, the claw
superposition is produced for each state, and its (kappa, n) label array
is the coset state (`prover.CosetState`, two rows for DCP). The DCP
secret that falls out is s_tilde = -s mod q (the second label minus the
first), while EDCP states carry s directly in their consecutive-label
differences. RED from EDCP to DCP is `prover.red_edcp_to_dcp`.

A call's claws are one (count, kappa, n) array. With a planted secret
(the idealized claw) the claw needs only the draw (b, x), not the image
y: all the draws come from one `prover.sample_draws` call, in the order
of one state at a time and e0's uniforms included, so the generator
ends where a per-state run of the sampling circuit leaves it, and the
claws come from one `ntcf.claws` call. Without one, each state's
residual is enumerated exactly from its own image. The kappa-branch
view of the parameters is cached per (params, kappa).

The solvers here simply read the secret off the label arrays, stacked
into one array, and check consistency and unanimity with whole-array
comparisons, after a ValueError check of the states' shapes: two rows
per DCP state, one kappa >= 2 across the EDCP states. They stand in for
the efficient DCP solver whose existence the reduction theorems assume;
this artifact demonstrates the reduction direction, not the solver.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .ntcf import NtcfKey, NtcfParams, claws, compute_bp
from .prover import CosetState, samp_and_measure, sample_draws
from .zq import ZqVector, euclidean_norm, mat_vec_mul


@dataclass(frozen=True, eq=False)
class LweInstance:
    """The key (A, t) and the planted s."""

    key: NtcfKey
    planted_s: ZqVector | None = None  # simulation shortcut, see module doc


@dataclass(frozen=True)
class SolverReport:
    success: bool
    candidate: ZqVector | None
    states_consumed: int
    detail: str


def instance_from_key(k: NtcfKey, planted_s: ZqVector | None = None) -> LweInstance:
    return LweInstance(k, planted_s)


@functools.lru_cache(maxsize=64)
def _kappa_view(p: NtcfParams, kappa: int) -> NtcfParams:
    """p with kappa branches and the B_P that kappa gives."""
    if kappa == p.kappa:
        return p
    return replace(p, kappa=kappa, b_p=compute_bp(p.q, p.n, p.m, kappa, p.c_t))


def _sampling_key(inst: LweInstance, kappa: int) -> NtcfKey:
    """View the LWE instance as a kappa-branch sampling key."""
    return NtcfKey(_kappa_view(inst.key.params, kappa), inst.key.A, inst.key.t)


def _coset_states(
    inst: LweInstance, kappa: int, count: int, rng: np.random.Generator
) -> list[CosetState]:
    """Run the kappa-branch sampling circuit count times and keep each
    residual's claw as a coset state.

    The claws are one (count, kappa, n) array. With a planted secret all
    count draws come from one `sample_draws` call, which builds no
    image, and the claws from one `claws` call: the idealized claw of
    (b, x) has x_0 = x + b*s. Without one, each residual is enumerated
    from its own image, and ValueError is raised if it is not a clean
    claw. ValueError also for a negative count.
    """
    if count < 0:
        raise ValueError(f"state count must be >= 0, got {count}")
    k = _sampling_key(inst, kappa)
    s = inst.planted_s
    if s is None:
        rows = np.empty((count, kappa, k.params.n), dtype=np.int64)
        for i in range(count):
            rows[i] = samp_and_measure(k, rng, mode="exact-enumeration")[1].branches()
    else:
        B, X, _U = sample_draws(k, rng, count)
        rows = claws(X + B[:, None] * s.entries, s, kappa)
    return [CosetState(labels, inst.key.params.q) for labels in rows]


def lwe_to_dcp(
    inst: LweInstance, count: int, rng: np.random.Generator
) -> list[CosetState]:
    """Produce DCP states {(0, x), (1, x + s_tilde)} with s_tilde = -s.

    Runs the kappa=2 sampling circuit per state; the claw (x0, x0 - s)
    is directly a DCP state with secret x1 - x0 = -s.
    """
    return _coset_states(inst, 2, count, rng)


def lwe_to_edcp(
    inst: LweInstance, ell: int, kappa: int, rng: np.random.Generator
) -> list[CosetState]:
    """Produce ell uniform EDCP states with fresh x0 per state; ValueError
    unless 2 <= kappa <= q (past q, claw labels b and b + q are equal)."""
    q = inst.key.params.q
    if not 2 <= kappa <= q:
        raise ValueError(f"kappa={kappa} must be >= 2 and <= q={q}")
    return _coset_states(inst, kappa, ell, rng)


_NO_STATES = SolverReport(False, None, 0, "no states supplied")


def _row_counts(states: list[CosetState]) -> list[int]:
    """The distinct row counts (kappas) of the states, in order."""
    return sorted({st.kappa for st in states})


def _unanimous(candidates: np.ndarray, q: int) -> SolverReport:
    """Success iff every row of the (states, n) candidate array agrees."""
    if (candidates == candidates[0]).all():
        candidate = ZqVector(candidates[0], q)
        return SolverReport(True, candidate, len(candidates), "unanimous")
    return SolverReport(False, None, len(candidates), "inconsistent states")


def solve_dcp_desk(states: list[CosetState]) -> SolverReport:
    """Read s_tilde = x1 - x0 off each state; success iff unanimous.

    ValueError unless every state has two rows."""
    if not states:
        return _NO_STATES
    kappas = _row_counts(states)
    if kappas != [2]:
        raise ValueError(f"DCP states have two rows each, got row counts {kappas}")
    q = states[0].q
    labels = np.stack([st.labels for st in states])  # (states, 2, n)
    return _unanimous((labels[:, 1] - labels[:, 0]) % q, q)


def solve_edcp_desk(states: list[CosetState]) -> SolverReport:
    """Read s off each state's consecutive-label difference; success iff
    every state's differences agree and the states are unanimous.

    ValueError unless the states share one kappa >= 2, as `lwe_to_edcp`
    makes them."""
    if not states:
        return _NO_STATES
    kappas = _row_counts(states)
    if len(kappas) != 1 or kappas[0] < 2:
        raise ValueError(f"EDCP states share one kappa >= 2, got row counts {kappas}")
    q = states[0].q
    labels = np.stack([st.labels for st in states])  # (states, kappa, n)
    diffs = (labels[:, :-1] - labels[:, 1:]) % q  # (states, kappa-1, n)
    if not (diffs == diffs[:, :1]).all():
        return SolverReport(False, None, len(states), "inconsistent label differences")
    return _unanimous(diffs[:, 0], q)


def verify_candidate(inst: LweInstance, s: ZqVector) -> bool:
    """Accept s iff the residual t - As is a valid B_V-bounded error."""
    k = inst.key
    p = k.params
    resid = (k.t - mat_vec_mul(k.A, s.entries, p.q)) % p.q
    return euclidean_norm(resid, p.q) <= p.b_v * math.sqrt(p.m)


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
        cand = ZqVector(-report.candidate.entries, report.candidate.q)
    elif path == "edcp":
        kap = kappa if kappa is not None else max(inst.key.params.kappa, 3)
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
