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
import math
import mmap
import tracemalloc

import numpy as np
import pytest

from ntcfk import crosscheck, ntcf
from ntcfk.crosscheck import analytic_joint, compare_joint, oracle_joint
from ntcfk.gaussian import TruncatedGaussian
from ntcfk.presets import get_preset
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
# A kappa=2 set and an n=2 set, for the caches (9 and 5 noise values per
# coordinate; 18,954 and 9,375 labels).
KAPPA2 = ntcf.NtcfParams(
    q=13, n=1, m=3, ell=1, kappa=2, b_l=0.2, b_v=0.6,
    b_p=ntcf.compute_bp(13, 1, 3, 2, 0.4), c_t=0.4,
)
N2 = ntcf.NtcfParams(
    q=5, n=2, m=3, ell=1, kappa=3, b_l=0.05, b_v=0.1,
    b_p=ntcf.compute_bp(5, 2, 3, 3, 0.1), c_t=0.1,
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
    g = TruncatedGaussian(p.q, p.b_p, p.m)
    return load_gaussian_register(st, RegisterSpec("y", "modq", p.m, p.q), g)


def test_noise_is_nontrivial():
    assert NOISY.b_p == pytest.approx(1.8333, abs=1e-3)
    assert TruncatedGaussian(NOISY.q, NOISY.b_p, NOISY.m).support_size() == 81


def test_wide_key_error_is_nonzero():
    errors = [ntcf.gen(WIDE, np.random.default_rng(seed))[1].e for seed in SEEDS]
    assert any(e.any() for e in errors)


@pytest.mark.parametrize("params, seed", KEYS)
def test_joints_agree(params, seed):
    assert compare_joint(noisy_key(seed, params)) <= 1e-9


@pytest.mark.parametrize("params, seed", KEYS)
def test_mis_shift_detected(params, seed):
    assert compare_joint(noisy_key(seed, params), mis_shift=1) > 0.1


def tv_reference(t0, t1):
    """TV over {point: prob} dicts, one term per point of either table."""
    diffs = [abs(p - t1.get(x, 0.0)) for x, p in t0.items()]
    diffs += [p for x, p in t1.items() if x not in t0]
    return min(max(0.5 * math.fsum(diffs), 0.0), 1.0)


@pytest.mark.parametrize("mis_shift", [0, 1])
@pytest.mark.parametrize("params, seed", KEYS)
def test_tv_equals_dict_reference(params, seed, mis_shift):
    """The sorted-code TV is the dict formula's exactly rounded float."""
    key = noisy_key(seed, params)
    want = tv_reference(analytic_joint(key, mis_shift=mis_shift).table, oracle_joint(key).table)
    got = compare_joint(key, mis_shift=mis_shift)
    assert type(got) is float and got == want


# The tracemalloc peak of one compare_joint before the joints kept their
# rows sorted (numpy 2.4.6), when the TV stacked both joints into one
# 5,346-row matrix. Sorted, the peak was about 505 KiB; with the circuit
# before U_f cached and the analytic rows sorted in place it is about
# 465 KiB, so a temporary the size of that matrix (250 KiB) coming back
# passes the limit.
PEAK_LIMIT = 693 * 1024


def test_compare_joint_memory_peak():
    key = noisy_key(7)
    compare_joint(key)  # the cached tables are built here
    tracemalloc.start()
    try:
        compare_joint(key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_LIMIT


@pytest.mark.parametrize("seed", SEEDS)
def test_label_count(seed):
    key = noisy_key(seed)
    assert len(apply_ufkb(noisy_state(key), key).amps) == 2673


def pin_digest(density):
    h = hashlib.sha256()
    table = density.table  # a property that builds the whole dict
    for key in sorted(table):
        p = table[key]
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


def clear_caches():
    crosscheck._oracle_prefix.cache_clear()
    crosscheck._analytic_skeleton.cache_clear()


class TestParameterSetCaches:
    """The circuit before U_f and the analytic skeleton are built once per
    parameter set and shared by every key of that set."""

    def cached(self, params=NOISY):
        g = ntcf.image_gaussian(params)
        return (crosscheck._oracle_prefix(params.kappa, params.n, g),
                crosscheck._analytic_skeleton(params.kappa, params.n, g))

    def test_cached_arrays_are_read_only(self):
        compare_joint(noisy_key(0))
        prefix, skeleton = self.cached()
        arrays = [prefix.labels, prefix.amps, prefix.radices, *skeleton]
        assert len(arrays) == 7
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1

    def test_large_cached_arrays_live_in_their_own_maps(self):
        """Outside the malloc heap, so they leave its free space to the
        temporaries of each call."""
        compare_joint(noisy_key(0))
        prefix, (_bx, _xs, _e0, probs) = self.cached()
        for a in (prefix.labels, prefix.amps, probs):
            base = a
            while isinstance(base, np.ndarray):
                base = base.base
            assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)

    def test_one_prefix_per_parameter_set(self):
        clear_caches()
        for seed in SEEDS:
            compare_joint(noisy_key(seed))
        info = crosscheck._oracle_prefix.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert crosscheck._analytic_skeleton.cache_info().misses == 1

    def test_sets_above_the_label_bound_are_not_cached(self, monkeypatch):
        """NOISY has 2,673 labels; with the bound below that, each call
        builds its own arrays and gives the TV the cache gives."""
        key = noisy_key(2)
        want = compare_joint(key)
        clear_caches()
        monkeypatch.setattr(crosscheck, "CACHED_LABELS", 2672)
        assert compare_joint(key) == want
        for cache in (crosscheck._oracle_prefix, crosscheck._analytic_skeleton):
            assert cache.cache_info().currsize == 0
        monkeypatch.setattr(crosscheck, "CACHED_LABELS", 2673)
        assert compare_joint(key) == want
        for cache in (crosscheck._oracle_prefix, crosscheck._analytic_skeleton):
            assert cache.cache_info().currsize == 1

    def test_interleaved_keys_match_a_cold_cache(self):
        """Keys of five parameter sets, taken in turn through warm caches,
        give the TVs that each gives through empty ones, bit for bit. Two
        of the sets differ from the others in kappa and in n."""
        sets = (NOISY, WIDE, get_preset("tiny-exact"), KAPPA2, N2)
        keys = [ntcf.gen(params, np.random.default_rng(seed))[0]
                for seed in range(3) for params in sets]
        warm = [(compare_joint(k), compare_joint(k, mis_shift=1)) for k in keys]
        cold = []
        for k in keys:
            clear_caches()
            cold.append((compare_joint(k), compare_joint(k, mis_shift=1)))
        assert [tuple(map(float.hex, t)) for t in warm] == [tuple(map(float.hex, t)) for t in cold]
        assert all(tv <= 1e-9 < 0.1 < shifted for tv, shifted in warm)

    def test_mis_shift_detected_after_a_warm_call(self):
        key = noisy_key(1, WIDE)
        assert compare_joint(key) <= 1e-9
        assert compare_joint(key, mis_shift=1) > 0.1
        assert compare_joint(key) <= 1e-9
