"""Side-by-side comparison of the analytic prover and the sparse-state
oracle on the full sampling circuit.

Both sides produce the exact joint distribution over (y, b, x): the
image measurement outcome together with a computational-basis
measurement of the BX registers. The analytic side uses the closed form
P(y, b, x) = D_{B_P}(y - Ax - b t) / (kappa * q^n); the oracle side runs
uniform B,X + Gaussian E + U_f and reads the marginal off the state.
"""
from __future__ import annotations

import numpy as np

from .gaussian import Density, TruncatedGaussian, tv_distance
from .ntcf import NtcfKey, image_gaussian
from .oracle import (
    RegisterSpec,
    apply_ufkb,
    full_distribution,
    init_uniform_full,
    load_gaussian_register,
)
from .zq import domain_grid, mat_vec_mul

ANALYTIC_CAP = 2**20


def analytic_joint(k: NtcfKey, mis_shift: int = 0) -> Density:
    """Exact joint over (y..., b, x...) rows.

    mis_shift deliberately offsets the y coordinates; it exists as a
    fault-injection hook so the comparison's sensitivity is testable.
    """
    p = k.params
    e0, prob = _capped_gaussian(p).support_arrays()
    q = p.q
    probs = np.tile(prob / (p.kappa * q**p.n), p.kappa * q**p.n)
    return Density(_analytic_rows(k, e0, mis_shift), probs)


def _capped_gaussian(p) -> TruncatedGaussian:
    """The image Gaussian, once the analytic joint's support is checked
    against ANALYTIC_CAP (ValueError past it)."""
    g = image_gaussian(p)
    total = p.kappa * p.q**p.n * g.support_size()
    if total > ANALYTIC_CAP:
        raise ValueError(f"joint support {total} exceeds cap {ANALYTIC_CAP}")
    return g


def _analytic_rows(k: NtcfKey, e0: np.ndarray, mis_shift: int) -> np.ndarray:
    """One (y, b, x) row per (b, x, e0), with y = Ax + b t + e0 mod q,
    written into one matrix. Distinct support points are distinct mod q,
    so every row is distinct, with probability D(e0) / (kappa q^n)."""
    p = k.params
    q, m = p.q, p.m
    xs = domain_grid(q, p.n)
    b = np.arange(p.kappa, dtype=np.int64)
    # Both terms of y are residues, so one conditional subtraction reduces it.
    center = (mat_vec_mul(k.A, xs, q) + (b[:, None] * k.t)[:, None, :]) % q
    y = center[:, :, None, :] + (e0 + mis_shift) % q
    y -= q * (y >= q)
    rows = np.empty((p.kappa, len(xs), len(e0), m + 1 + p.n), dtype=np.int64)
    rows[..., :m] = y
    rows[..., m] = b[:, None, None]
    rows[..., m + 1 :] = xs[None, :, None, :]
    return rows.reshape(-1, rows.shape[-1])


def oracle_joint(k: NtcfKey) -> Density:
    """The same joint, from the brute-force circuit simulation."""
    p = k.params
    specs = (
        RegisterSpec("b", "modq", 1, p.kappa),
        RegisterSpec("x", "modq", p.n, p.q),
    )
    state = init_uniform_full(specs)
    g = image_gaussian(p)
    state = load_gaussian_register(state, RegisterSpec("y", "modq", p.m, p.q), g)
    state = apply_ufkb(state, k)
    return full_distribution(state, ("y", "b", "x"))


def compare_joint(k: NtcfKey, mis_shift: int = 0) -> float:
    """Total variation distance between the two joints. The oracle runs
    first, once the analytic cap is checked: its state peaks higher than
    the analytic joint, so it runs with no other joint alive."""
    _capped_gaussian(k.params)
    oracle = oracle_joint(k)
    return tv_distance(analytic_joint(k, mis_shift=mis_shift), oracle)
