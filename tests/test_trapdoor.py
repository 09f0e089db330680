import math

import numpy as np
import pytest
import scipy.stats

from ntcfk.gaussian import TruncatedGaussian
from ntcfk.trapdoor import (
    DecodeFailure,
    LayoutError,
    gadget_minimax_distance,
    gadget_row,
    gen_trap,
    invert,
)
from ntcfk.zq import Modulus, ZqVector, mat_vec_mul


def minimax_distance_double_loop(q):
    """min over delta != 0 of max over j < k of |lift(2^j * delta mod q)|,
    with k the smallest digit count with 2^k >= q."""
    k = 1
    while 2**k < q:
        k += 1
    best = q
    for delta in range(1, q):
        worst = 0
        for j in range(k):
            r = 2**j * delta % q
            worst = max(worst, min(r, q - r))
        best = min(best, worst)
    return k, best


PRIMES_BELOW_200 = [q for q in range(2, 200) if Modulus(q).is_prime]


class TestGadget:
    def test_minimax_distance_values(self):
        assert gadget_minimax_distance(521) == 210
        assert gadget_minimax_distance(17) == 7
        assert gadget_minimax_distance(7) == 3

    def test_minimax_distance_matches_double_loop(self):
        for q in PRIMES_BELOW_200:
            k, distance = minimax_distance_double_loop(q)
            row = gadget_row(q)
            assert len(row) == Modulus(q).bits == k, q
            assert row.tolist() == [2**j for j in range(k)], q
            assert gadget_minimax_distance(q) == distance, q


class TestGenTrap:
    def test_shape(self, rng):
        A, t = gen_trap(2, 40, 521, rng)
        assert (A.rows, A.cols) == (40, 2)
        assert t.mode == "gadget"

    def test_relation_holds_fresh_keys(self, rng):
        for _ in range(100):
            _A, t = gen_trap(1, 12, 17, rng)
            assert t.relation_holds()

    def test_exhaustive_fallback(self, rng):
        A, t = gen_trap(1, 2, 7, rng)
        assert t.mode == "exhaustive"

    def test_fallback_cap(self, rng):
        with pytest.raises(LayoutError):
            gen_trap(3, 2, 521, rng)  # q^n way over the cap, no gadget fit

    def test_composite_q_rejected(self, rng):
        with pytest.raises(ValueError):
            gen_trap(1, 12, 16, rng)

    def test_entry_uniformity_chi_square(self):
        # Pool all entries of A over many keys; the gadget rows are only
        # statistically close to uniform, so n_bar is kept comfortable.
        rng = np.random.default_rng(42)
        q = 17
        counts = np.zeros(q, dtype=np.int64)
        for _ in range(10_000):
            A, _t = gen_trap(1, 15, q, rng)
            counts += np.bincount(A.entries.ravel(), minlength=q)
        _chi, p = scipy.stats.chisquare(counts)
        assert p > 0.01


class TestInvert:
    def test_noiseless(self, rng):
        mod = Modulus(521)
        for _ in range(20):
            A, t = gen_trap(2, 40, 521, rng)
            s = ZqVector(rng.integers(0, 521, size=2, dtype=np.int64), mod)
            s_hat, e_hat = invert(t, mat_vec_mul(A, s))
            assert s_hat == s
            assert list(e_hat.entries) == [0] * 40

    def test_gaussian_noise_recovery(self, rng):
        mod = Modulus(521)
        g = TruncatedGaussian(mod, 1.0, 40)
        for _ in range(200):
            A, t = gen_trap(2, 40, 521, rng)
            s = ZqVector(rng.integers(0, 521, size=2, dtype=np.int64), mod)
            e = g.sample(rng)
            s_hat, e_hat = invert(t, mat_vec_mul(A, s) + e)
            assert s_hat == s
            assert e_hat == e

    def test_postcondition_reconstructs(self, rng):
        A, t = gen_trap(2, 40, 521, rng)
        mod = Modulus(521)
        s = ZqVector(rng.integers(0, 521, size=2, dtype=np.int64), mod)
        e = TruncatedGaussian(mod, 1.0, 40).sample(rng)
        v = mat_vec_mul(A, s) + e
        s_hat, e_hat = invert(t, v)
        assert mat_vec_mul(A, s_hat) + e_hat == v

    def test_oversized_noise_never_silent(self, rng):
        # noise far over threshold: decode failure or a detected round
        # trip mismatch, never a silently wrong claimed recovery
        mod = Modulus(521)
        bound = 521 / (2.0 * math.sqrt(2 * 10))
        for _ in range(100):
            A, t = gen_trap(2, 40, 521, rng)
            s = ZqVector(rng.integers(0, 521, size=2, dtype=np.int64), mod)
            e = ZqVector(rng.integers(-50, 51, size=40, dtype=np.int64), mod)
            v = mat_vec_mul(A, s) + e
            try:
                s_hat, e_hat = invert(t, v, max_error_norm=2 * bound)
            except DecodeFailure:
                continue
            assert mat_vec_mul(A, s_hat) + e_hat == v

    def test_max_error_norm_enforced(self, rng):
        A, t = gen_trap(2, 40, 521, rng)
        mod = Modulus(521)
        s = ZqVector(rng.integers(0, 521, size=2, dtype=np.int64), mod)
        e = ZqVector(np.full(40, 3, dtype=np.int64), mod)
        with pytest.raises(DecodeFailure):
            invert(t, mat_vec_mul(A, s) + e, max_error_norm=1.0)

    def test_exhaustive_mode_round_trip(self, rng):
        mod = Modulus(7)
        for _ in range(50):
            A, t = gen_trap(1, 2, 7, rng)
            s = ZqVector(rng.integers(0, 7, size=1, dtype=np.int64), mod)
            s_hat, _e = invert(t, mat_vec_mul(A, s))
            assert s_hat == s
