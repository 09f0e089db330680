"""Whole-array sampling equals the one-draw-at-a-time sampler.

`prover.sample_draws` draws b, x and e0's uniforms per draw in the order
of a single draw, and `prover.sample_images` does everything after on
whole arrays; the planted-secret reductions take all their draws, and no
images, from one call. These tests compare both against a per-draw
reference on the same seed."""
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ntcfk import prover
from ntcfk.ntcf import NtcfKey, claws, compute_bp, gen
from ntcfk.presets import get_preset
from ntcfk.prover import (
    CosetState,
    samp_and_measure,
    sample_draws,
    sample_image,
    sample_images,
)
from ntcfk.reductions import (
    _sampling_key,
    end_to_end_recover,
    instance_from_key,
    lwe_to_dcp,
    lwe_to_edcp,
    solve_dcp_desk,
    solve_edcp_desk,
)
from ntcfk.zq import DimensionError, ZqVector

DESK = get_preset("desk-k3")


def reference_image(k, rng):
    """One draw of SAMP's image marginal, written out step by step:
    b, x uniform; e0 by per-coordinate inverse CDF; y = Ax + e0 + b*t."""
    p = k.params
    q = p.q
    b = int(rng.integers(0, p.kappa))
    x = rng.integers(0, q, size=p.n, dtype=np.int64)
    r = min(int(np.floor(p.b_p)), (q - 1) // 2)
    lifts = np.arange(-r, r + 1)
    w = np.exp(-np.pi * lifts.astype(np.float64) ** 2 / p.b_p**2)
    cdf = np.cumsum(w / w.sum())
    idx = np.minimum(np.searchsorted(cdf, rng.random(p.m), side="right"), len(lifts) - 1)
    e0 = lifts[idx] % q
    ax = ((k.A * x[None, :]) % q).sum(axis=1) % q
    return b, x, (ax + e0 + b * k.t) % q


def sampling_keys():
    """(id, key) for the three presets and for desk-k3 viewed at kappa 2..6."""
    keys = []
    for i, name in enumerate(("tiny-exact", "desk-k2", "desk-k3")):
        keys.append((name, gen(get_preset(name), np.random.default_rng(50 + i))[0]))
    inst = instance_from_key(gen(DESK, np.random.default_rng(60))[0])
    keys += [(f"desk-k3-as-k{kappa}", _sampling_key(inst, kappa)) for kappa in range(2, 7)]
    return keys


KEYS = sampling_keys()


@pytest.mark.parametrize("count", [0, 1, 7])
@pytest.mark.parametrize("key", [k for _, k in KEYS], ids=[i for i, _ in KEYS])
def test_sample_images_equals_per_draw(key, count):
    p = key.params
    batched, reference = np.random.default_rng(70), np.random.default_rng(70)
    B, X, Y = sample_images(key, batched, count)
    assert B.dtype == X.dtype == Y.dtype == np.int64
    assert B.shape == (count,) and X.shape == (count, p.n) and Y.shape == (count, p.m)
    for i in range(count):
        b, x, y = reference_image(key, reference)
        assert B[i] == b
        np.testing.assert_array_equal(X[i], x)
        np.testing.assert_array_equal(Y[i], y)
    # both consumed the same draws
    assert batched.random() == reference.random()


@pytest.mark.parametrize("key", [k for _, k in KEYS], ids=[i for i, _ in KEYS])
def test_sample_image_is_one_draw(key):
    one, reference = np.random.default_rng(71), np.random.default_rng(71)
    for _ in range(20):
        b, x, y = sample_image(key, one)
        rb, rx, ry = reference_image(key, reference)
        assert b == rb and isinstance(b, int)
        assert np.array_equal(x, rx)
        assert np.array_equal(y, ry)


def desk_instance(seed):
    k, t = gen(DESK, np.random.default_rng(seed))
    return instance_from_key(k, planted_s=t.s), t


def per_state_claws(inst, kappa, count, rng):
    k = _sampling_key(inst, kappa)
    return [
        samp_and_measure(k, rng, mode="idealized-claw", secret_s=inst.planted_s)[1].branches()
        for _ in range(count)
    ]


def test_lwe_to_dcp_equals_per_state_loop():
    inst, _t = desk_instance(80)
    states = lwe_to_dcp(inst, 9, np.random.default_rng(81))
    want = per_state_claws(inst, 2, 9, np.random.default_rng(81))
    assert [st.labels.tolist() for st in states] == [w.tolist() for w in want]
    assert all(st.q == DESK.q for st in states)


@pytest.mark.parametrize("kappa", range(2, 7))
def test_lwe_to_edcp_equals_per_state_loop(kappa):
    inst, _t = desk_instance(82)
    states = lwe_to_edcp(inst, 9, kappa, np.random.default_rng(83))
    want = per_state_claws(inst, kappa, 9, np.random.default_rng(83))
    assert [st.labels.tolist() for st in states] == [w.tolist() for w in want]
    assert all(st.kappa == kappa and st.q == DESK.q for st in states)


def test_zero_states():
    inst, _t = desk_instance(84)
    rng = np.random.default_rng(85)
    assert lwe_to_dcp(inst, 0, rng) == []
    assert lwe_to_edcp(inst, 0, 3, rng) == []
    for path in ("dcp", "edcp"):
        report = end_to_end_recover(inst, path, rng, count=0)
        assert not report.success
        assert report.detail == "no states supplied"
        assert report.states_consumed == 0


@pytest.mark.parametrize("kappa", [1, 2, 3, 6])
def test_claws_rows_are_x0_minus_bs(kappa):
    rng = np.random.default_rng(86)
    x0 = rng.integers(0, DESK.q, size=(5, DESK.n))
    s = ZqVector.uniform(DESK.n, DESK.q, rng)
    rows = claws(x0, s, kappa)
    assert rows.shape == (5, kappa, DESK.n)
    for i in range(5):
        for b in range(kappa):
            assert np.array_equal(rows[i, b], (x0[i] - b * s.entries) % DESK.q)


def test_claw_checks_operands():
    s = ZqVector(np.array([1, 2]), DESK.q)
    with pytest.raises(DimensionError):
        claws(np.zeros((3, 1), dtype=np.int64), s, 3)


class TestSolverReports:
    """The array solvers keep the report of the per-state solvers."""

    def test_unanimous(self):
        inst, t = desk_instance(87)
        rng = np.random.default_rng(88)
        dcp = solve_dcp_desk(lwe_to_dcp(inst, 5, rng))
        edcp = solve_edcp_desk(lwe_to_edcp(inst, 5, 4, rng))
        assert (dcp.success, dcp.candidate, dcp.states_consumed, dcp.detail) == (
            True, ZqVector(-t.s.entries, DESK.q), 5, "unanimous")
        assert (edcp.success, edcp.candidate, edcp.states_consumed, edcp.detail) == (
            True, t.s, 5, "unanimous")

    def test_inconsistent_states(self):
        inst, _t = desk_instance(89)
        rng = np.random.default_rng(90)
        dcp = lwe_to_dcp(inst, 4, rng)
        dcp[2] = CosetState((dcp[2].labels + [[0], [1]]) % DESK.q, DESK.q)
        edcp = lwe_to_edcp(inst, 4, 3, rng)
        # row j plus j in every coordinate: the differences stay equal
        edcp[1] = CosetState((edcp[1].labels + [[0], [1], [2]]) % DESK.q, DESK.q)
        for report in (solve_dcp_desk(dcp), solve_edcp_desk(edcp)):
            assert (report.success, report.candidate, report.states_consumed,
                    report.detail) == (False, None, 4, "inconsistent states")

    def test_inconsistent_edcp_differences(self):
        inst, _t = desk_instance(91)
        edcp = lwe_to_edcp(inst, 4, 3, np.random.default_rng(92))
        edcp[3] = CosetState((edcp[3].labels + [[0], [0], [1]]) % DESK.q, DESK.q)
        report = solve_edcp_desk(edcp)
        assert (report.success, report.candidate, report.states_consumed,
                report.detail) == (False, None, 4, "inconsistent label differences")


REDUCTIONS = [("dcp", 2)] + [("edcp", kappa) for kappa in range(2, 7)]


def reduce(inst, path, kappa, count, rng):
    if path == "dcp":
        return lwe_to_dcp(inst, count, rng)
    return lwe_to_edcp(inst, count, kappa, rng)


@pytest.mark.parametrize("count", [0, 1, 9])
@pytest.mark.parametrize("path,kappa", REDUCTIONS)
def test_reductions_leave_the_generator_where_per_state_does(path, kappa, count):
    """Draws without images still take e0's uniforms: the generator must
    end in the per-state reference's state, not only agree on labels."""
    inst, _t = desk_instance(93)
    rng, reference = np.random.default_rng(94), np.random.default_rng(94)
    states = reduce(inst, path, kappa, count, rng)
    want = per_state_claws(inst, kappa, count, reference)
    assert [st.labels.tolist() for st in states] == [w.tolist() for w in want]
    assert rng.bit_generator.state == reference.bit_generator.state


class CountingGenerator:
    """A numpy Generator that counts the calls made to it, by method."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.calls = Counter()

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return counted


def wide_key(n):
    """A random desk-k3-like key with n columns."""
    p = replace(DESK, n=n, b_p=compute_bp(DESK.q, n, DESK.m, DESK.kappa, DESK.c_t))
    rng = np.random.default_rng(95)
    A = rng.integers(0, p.q, size=(p.m, n), dtype=np.int64)
    return NtcfKey(p, A, rng.integers(0, p.q, size=p.m, dtype=np.int64))


@pytest.mark.parametrize("n", [1, 2, 20])
def test_a_draw_is_two_generator_calls(n):
    key = wide_key(n)
    counting, reference = CountingGenerator(96), np.random.default_rng(96)
    B, X, Y = sample_images(key, counting, 7)
    assert counting.calls == {"integers": 7, "random": 7}
    for i in range(7):
        b, x, y = reference_image(key, reference)
        assert B[i] == b and np.array_equal(X[i], x) and np.array_equal(Y[i], y)
    counting.calls.clear()
    sample_image(key, counting)
    assert counting.calls == {"integers": 1, "random": 1}
    counting.calls.clear()
    assert sample_draws(key, counting, 0)[0].shape == (0,)
    assert not counting.calls


@pytest.mark.parametrize("path,kappa", REDUCTIONS)
def test_planted_reductions_build_no_image(path, kappa, monkeypatch):
    def no_image(*_args):
        raise AssertionError("the planted-secret reductions build no image")

    inst, t = desk_instance(97)
    monkeypatch.setattr(prover, "image_gaussian", no_image)
    monkeypatch.setattr(prover, "mat_vec_mul", no_image)
    counting = CountingGenerator(98)
    states = reduce(inst, path, kappa, 9, counting)
    assert counting.calls == {"integers": 9, "random": 9}
    assert len(states) == 9
    for st in states:
        assert np.array_equal(st.sbar, t.s.entries)


def test_kappa_view_is_cached():
    inst, _t = desk_instance(99)
    for kappa in range(2, 7):
        p = _sampling_key(inst, kappa).params
        assert p is _sampling_key(inst, kappa).params
        assert p == replace(DESK, kappa=kappa,
                            b_p=compute_bp(DESK.q, DESK.n, DESK.m, kappa, DESK.c_t))
    assert _sampling_key(inst, DESK.kappa).params is DESK
