import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ntcfk.gaussian import TruncatedGaussian
from ntcfk.trapdoor import (
    DecodeFailure,
    LayoutError,
    _decode_syndrome_coord,
    _gadget_block,
    gadget_minimax_distance,
    gadget_row,
    gen_trap,
    invert,
)
from ntcfk.zq import Modulus, ZqVector, lift_residues, mat_vec_mul


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


def scan_decode(u, row, q):
    """The O(q k) reference decoder: the argmin over all q candidates of
    the max syndrome residual, accepted only below d/2."""
    cands = np.arange(q, dtype=np.int64)
    res = lift_residues((u[:, None] - row[:, None] * cands[None, :]) % q, q)
    cost = np.abs(res).max(axis=0)
    s_hat = int(cost.argmin())
    radius = gadget_minimax_distance(q) / 2.0
    if cost[s_hat] >= radius:
        raise DecodeFailure(f"syndrome residual {cost[s_hat]} >= certified radius {radius}")
    return s_hat


def outcome(decode, u, row, q):
    """The decoded s, or the DecodeFailure text."""
    try:
        return decode(u, row, q)
    except DecodeFailure as exc:
        return str(exc)


def certified_radius(q):
    """r = ceil(d/2) - 1: the largest integer residual below d/2."""
    return (gadget_minimax_distance(q) + 1) // 2 - 1


PRIMES_BELOW_200 = [q for q in range(2, 200) if Modulus(q).is_prime]
PRIMES_TO_1031 = [q for q in range(2, 1032) if Modulus(q).is_prime]


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

    def test_cached_gadget_arrays_are_read_only(self):
        for a in (gadget_row(521), _gadget_block(2, 521)):
            with pytest.raises(ValueError):
                a[0] = 0


class TestSyndromeDecoder:
    def test_matches_scan_for_every_prime_to_1031(self):
        """For every prime q <= 1031, the decoder and the scan give the same
        s or the same failure text on random u, on u = g*s + e with
        max|e| = r (which must decode to s) and with max|e| = r + 1."""
        rng = np.random.default_rng(13)
        failures = 0
        for q in PRIMES_TO_1031:
            row = gadget_row(q)
            k, r = len(row), certified_radius(q)
            for _ in range(8):
                s = int(rng.integers(q))
                cases = [(None, rng.integers(0, q, size=k))]  # (the s it must give, u)
                for width, must in ((r, s), (r + 1, None)):
                    e = rng.integers(-width, width + 1, size=k)
                    e[rng.integers(k)] = width * rng.choice([-1, 1])
                    cases.append((must, (row * s + e) % q))
                for must, u in cases:
                    got = outcome(_decode_syndrome_coord, u, row, q)
                    assert got == outcome(scan_decode, u, row, q), (q, u.tolist())
                    assert must is None or got == must, (q, u.tolist())
                    failures += isinstance(got, str)
        assert failures  # the failure text was compared too


LARGE_PRIMES = (2, 3, 17, 521, 1031, 2039, 4099, 8191, 65521, 131071, 1048573)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(LARGE_PRIMES),
    n=st.integers(1, 2),
    extra=st.integers(1, 10),
    scale=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_invert_recovers_planted_pair(q, n, extra, scale, seed):
    """invert(A s + e) gives back (s, e) whenever the syndrome noise
    R e_top + e_bottom is within the radius r on every gadget row;
    past it, a decode is either refused or reconstructs v."""
    rng = np.random.default_rng(seed)
    mod = Modulus(q)
    A, t = gen_trap(n, n * mod.bits + extra, q, rng)
    r = certified_radius(q)
    width = int(scale * r / (extra + 1))
    e_lift = rng.integers(-width, width + 1, size=A.rows)
    s, e = ZqVector.uniform(n, mod, rng), ZqVector(e_lift, mod)
    v = mat_vec_mul(A, s) + e
    noise = t.R @ e_lift[: t.n_bar] + e_lift[t.n_bar :]
    if np.abs(noise).max() <= r:
        assert invert(t, v) == (s, e)
        return
    try:
        s_hat, e_hat = invert(t, v)
    except DecodeFailure:
        return
    assert mat_vec_mul(A, s_hat) + e_hat == v


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
