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

from .gaussian import Density, tv_distance
from .ntcf import NtcfKey, image_gaussian
from .oracle import (
    RegisterSpec,
    apply_ufkb,
    full_distribution,
    init_uniform_full,
    load_gaussian_register,
)
from .zq import domain_grid

ANALYTIC_CAP = 2**20


def analytic_joint(k: NtcfKey, mis_shift: int = 0) -> Density:
    """Exact joint over (y..., b, x...) rows.

    mis_shift deliberately offsets the y coordinates; it exists as a
    fault-injection hook so the comparison's sensitivity is testable.
    """
    p = k.params
    g = image_gaussian(p)
    total = p.kappa * p.q**p.n * g.support_size()
    if total > ANALYTIC_CAP:
        raise ValueError(f"joint support {total} exceeds cap {ANALYTIC_CAP}")
    e0, prob = g.support_arrays()
    q = p.q
    xs = domain_grid(q, p.n)
    b = np.repeat(np.arange(p.kappa, dtype=np.int64), len(xs))[:, None]
    x = np.tile(xs, (p.kappa, 1))
    # center = Ax + b t mod q for every (b, x); each product is reduced
    # before summing so the sums stay inside int64.
    center = b * k.t
    for j in range(p.n):
        center += x[:, j, None] * k.A[:, j] % q
    # Distinct support points are distinct mod q, so every (y, b, x) below
    # is one row with probability D(e0) / (kappa q^n).
    y = (center[:, None, :] + e0[None, :, :] + mis_shift) % q
    bx = np.hstack([b, x])
    keys = np.concatenate(
        [y.reshape(-1, p.m), np.repeat(bx, len(e0), axis=0)], axis=1
    )
    probs = np.tile(prob / (p.kappa * q**p.n), len(bx))
    return Density(keys, probs)


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
    """Total variation distance between the two joints."""
    return tv_distance(analytic_joint(k, mis_shift=mis_shift), oracle_joint(k))
