"""Whole-array sampling equals the one-draw-at-a-time sampler.

`prover.sample_images` draws b, x and e0's uniforms per draw in the order
of a single draw and does everything after on whole arrays; the
reductions take all their images from one call. These tests compare
both against a per-draw reference on the same seed."""
import numpy as np
import pytest

from ntcfk.ntcf import claw, claws, gen
from ntcfk.presets import get_preset
from ntcfk.prover import DcpState, samp_and_measure, sample_image, sample_images
from ntcfk.reductions import (
    EdcpState,
    _sampling_key,
    end_to_end_recover,
    instance_from_key,
    lwe_to_dcp,
    lwe_to_edcp,
    solve_dcp_desk,
    solve_edcp_desk,
)
from ntcfk.zq import DimensionError, Modulus, ZqVector

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
    ax = ((k.A.entries * x[None, :]) % q).sum(axis=1) % q
    return b, x, (ax + e0 + b * k.t.entries) % q


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
        assert x == ZqVector(rx, key.params.modulus)
        assert y == ZqVector(ry, key.params.modulus)


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
    assert [(st.x0, st.x1) for st in states] == want


@pytest.mark.parametrize("kappa", range(2, 7))
def test_lwe_to_edcp_equals_per_state_loop(kappa):
    inst, _t = desk_instance(82)
    states = lwe_to_edcp(inst, 9, kappa, np.random.default_rng(83))
    want = per_state_claws(inst, kappa, 9, np.random.default_rng(83))
    assert [tuple(x for _, x in st.support) for st in states] == want
    assert all([j for j, _ in st.support] == list(range(kappa)) for st in states)


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
    mod = DESK.modulus
    x0 = rng.integers(0, mod.q, size=(5, DESK.n))
    s = ZqVector.uniform(DESK.n, mod, rng)
    rows = claws(x0, s, kappa)
    assert rows.shape == (5, kappa, DESK.n)
    for i in range(5):
        x = ZqVector(x0[i], mod)
        for b in range(kappa):
            assert ZqVector(rows[i, b], mod) == x - s.scale(b)
        assert claw(x, s, kappa) == tuple(ZqVector(r, mod) for r in rows[i])


def test_claw_checks_operands():
    mod = DESK.modulus
    s = ZqVector(np.array([1, 2]), mod)
    with pytest.raises(DimensionError):
        claws(np.zeros((3, 1), dtype=np.int64), s, 3)
    with pytest.raises(DimensionError):
        claw(ZqVector(np.array([1]), mod), s, 3)
    with pytest.raises(DimensionError):
        claw(ZqVector(np.array([1, 2]), Modulus(7)), s, 3)


class TestSolverReports:
    """The array solvers keep the report of the per-state solvers."""

    def test_unanimous(self):
        inst, t = desk_instance(87)
        rng = np.random.default_rng(88)
        dcp = solve_dcp_desk(lwe_to_dcp(inst, 5, rng))
        edcp = solve_edcp_desk(lwe_to_edcp(inst, 5, 4, rng))
        assert (dcp.success, dcp.candidate, dcp.states_consumed, dcp.detail) == (
            True, -t.s, 5, "unanimous")
        assert (edcp.success, edcp.candidate, edcp.states_consumed, edcp.detail) == (
            True, t.s, 5, "unanimous")

    def test_inconsistent_states(self):
        inst, _t = desk_instance(89)
        rng = np.random.default_rng(90)
        one = ZqVector(np.ones(DESK.n, dtype=np.int64), DESK.modulus)
        dcp = lwe_to_dcp(inst, 4, rng)
        dcp[2] = DcpState(dcp[2].x0, dcp[2].x1 + one)
        edcp = lwe_to_edcp(inst, 4, 3, rng)
        edcp[1] = EdcpState(tuple((j, x + one.scale(j)) for j, x in edcp[1].support))
        for report in (solve_dcp_desk(dcp), solve_edcp_desk(edcp)):
            assert (report.success, report.candidate, report.states_consumed,
                    report.detail) == (False, None, 4, "inconsistent states")

    def test_inconsistent_edcp_differences(self):
        inst, _t = desk_instance(91)
        edcp = lwe_to_edcp(inst, 4, 3, np.random.default_rng(92))
        one = ZqVector(np.ones(DESK.n, dtype=np.int64), DESK.modulus)
        edcp[3] = EdcpState(tuple((j, x + one if j == 2 else x) for j, x in edcp[3].support))
        report = solve_edcp_desk(edcp)
        assert (report.success, report.candidate, report.states_consumed,
                report.detail) == (False, None, 4, "inconsistent label differences")
