"""The analytic joint against the oracle circuit on a noisy key.

tiny-exact (C03) has zero noise: its Gaussian register is one point, so
the amplitude loading, the modular update of many y labels and the
grouping of the marginal are never stressed there. These keys have
B_P ~ 1.83, three noise values per coordinate and 2673 labels.

NOISY's B_V = 0.3 truncates the key error to the single point 0, so its
t is always As. WIDE has B_V = 1.0, whose error takes three values per
coordinate, so the branch shift b*t also moves by b*e.
"""
import hashlib

import numpy as np
import pytest

from ntcfk import ntcf
from ntcfk.crosscheck import analytic_joint, compare_joint, oracle_joint
from ntcfk.gaussian import TruncatedGaussian
from ntcfk.oracle import (
    RegisterSpec,
    apply_ufkb,
    init_uniform_full,
    load_gaussian_register,
)

NOISY = ntcf.NtcfParams(
    q=11, n=1, m=4, ell=1, kappa=3, b_l=0.2, b_v=0.3,
    b_p=ntcf.compute_bp(11, 1, 4, 3, 0.5), c_t=0.5,
)
WIDE = ntcf.NtcfParams(
    q=11, n=1, m=4, ell=1, kappa=3, b_l=0.5, b_v=1.0,
    b_p=ntcf.compute_bp(11, 1, 4, 3, 0.5), c_t=0.5,
)
SEEDS = (0, 1, 2)
KEYS = [pytest.param(NOISY, seed, id=str(seed)) for seed in SEEDS] + [
    pytest.param(WIDE, seed, id=f"bv1-{seed}") for seed in SEEDS
]

# Captured from the per-label implementation, for the key of seed 0: the
# distinct probabilities of the joint (each key's probability lies within
# 1e-16 of one of them) and a sha256 over the sorted (key, level index)
# pairs, the same for the analytic and the oracle joint.
PIN_SEED = 0
PIN_LEVELS = (
    7.092634515255593e-05,
    0.0001806083129852387,
    0.0004599047455386677,
    0.0011711109609128223,
    0.002982141184831157,
)
PIN_DIGEST = "ede87a10a995786aa4363153f76ca75c33bf2f66200ba7f0791615472c2ad0f7"
PIN_TOL = 1e-15


def noisy_key(seed, params=NOISY):
    key, _t = ntcf.gen(params, np.random.default_rng(seed))
    return key


def noisy_state(key):
    p = key.params
    st = init_uniform_full(
        (RegisterSpec("b", "modq", 1, p.kappa), RegisterSpec("x", "modq", p.n, p.q))
    )
    g = TruncatedGaussian(p.modulus, p.b_p, p.m)
    return load_gaussian_register(st, RegisterSpec("y", "modq", p.m, p.q), g)


def test_noise_is_nontrivial():
    assert NOISY.b_p == pytest.approx(1.8333, abs=1e-3)
    assert TruncatedGaussian(NOISY.modulus, NOISY.b_p, NOISY.m).support_size() == 81


def test_wide_key_error_is_nonzero():
    errors = [ntcf.gen(WIDE, np.random.default_rng(seed))[1].e for seed in SEEDS]
    assert any(e.entries.any() for e in errors)


@pytest.mark.parametrize("params, seed", KEYS)
def test_joints_agree(params, seed):
    assert compare_joint(noisy_key(seed, params)) <= 1e-9


@pytest.mark.parametrize("params, seed", KEYS)
def test_mis_shift_detected(params, seed):
    assert compare_joint(noisy_key(seed, params), mis_shift=1) > 0.1


@pytest.mark.parametrize("seed", SEEDS)
def test_label_count(seed):
    key = noisy_key(seed)
    assert len(apply_ufkb(noisy_state(key), key).amps) == 2673


def pin_digest(density):
    h = hashlib.sha256()
    for key in sorted(density.table):
        p = density.table[key]
        level = min(range(len(PIN_LEVELS)), key=lambda i: abs(PIN_LEVELS[i] - p))
        assert abs(PIN_LEVELS[level] - p) <= PIN_TOL, (key, p)
        h.update(repr((key, level)).encode())
    return h.hexdigest()


def test_pinned_joint():
    key = noisy_key(PIN_SEED)
    analytic, oracle = analytic_joint(key), oracle_joint(key)
    assert analytic.table.keys() == oracle.table.keys()
    for d in (analytic, oracle):
        assert all(type(v) is int for k in d.table for v in k)
        assert pin_digest(d) == PIN_DIGEST
