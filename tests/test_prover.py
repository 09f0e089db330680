import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from ntcfk.gaussian import Density, TruncatedGaussian, tv_distance
from ntcfk.ntcf import NtcfKey, NtcfParams, chk, compute_bp, gen
from ntcfk.oracle import (
    RegisterSpec,
    apply_ufkb,
    full_distribution,
    init_uniform_full,
    load_gaussian_register,
    measure_register,
)
from ntcfk.presets import get_preset
from ntcfk.prover import (
    CheatCommitProver,
    CosetState,
    HonestProver,
    RedFailed,
    ResidualState,
    _enumerate_residual,
    equation_measure,
    preimage_measure,
    red,
    red_branches,
    red_valid_range,
    samp_and_measure,
)
from ntcfk.zq import (
    ZqVector,
    domain_grid,
    j_encode,
    mat_vec_mul,
)


def params(q, n, m, kappa, c_t, b_v, b_l):
    """Parameters with B_P from the formula."""
    return NtcfParams(q=q, n=n, m=m, ell=1, kappa=kappa, b_l=b_l, b_v=b_v,
                      b_p=compute_bp(q, n, m, kappa, c_t), c_t=c_t)


# Keys small enough to enumerate. tiny-exact has zero noise, so each of
# its residuals is one clean claw; the others are noisy, with residuals
# that miss branches, hold several points per branch or weigh them
# unequally. q11-k3 is the noisy oracle key (2,673 labels).
ENUM_FAMILIES = {
    "tiny-exact": get_preset("tiny-exact"),
    "q11-k3": params(11, 1, 4, 3, 0.5, 0.3, 0.2),
    "q97-n2-k2": params(97, 2, 20, 2, 2.0, 1.0, 0.5),
    **{f"q2039-k{kappa}": params(2039, 1, 16, kappa, 1.0, 1.0, 0.5) for kappa in (3, 5, 8)},
}


def claw_residual(kappa, q, s_val, x0_val):
    """A clean claw ResidualState over a dummy key with the given kappa."""
    p = params(q, 1, 2, kappa, 1.4, 0.2, 0.1)
    k = NtcfKey(
        p, np.array([[1], [3]]), np.array([0, 0])
    )
    s = ZqVector(np.array([s_val]), q)
    x0 = np.array([x0_val]) % q
    labels = (x0_val - s_val * np.arange(kappa)[:, None]) % q
    amps = np.full(kappa, 1.0 / math.sqrt(kappa))
    return ResidualState(k, np.array([0, 0]), np.arange(kappa), labels, amps), s, x0


def entry_loop_residual(k, y):
    """The residual as (branch, labels, amps) lists, by a scan that takes
    one (b', x') entry at a time, normalises by a running sum and takes
    each square root on its own."""
    p = k.params
    prob_by_residue = TruncatedGaussian(p.q, p.b_p, p.m).residue_probs()
    grid = domain_grid(p.q, p.n)
    images = mat_vec_mul(k.A, grid, p.q)
    entries = []
    for b in range(p.kappa):
        res = (y[None, :] - images - b * k.t[None, :]) % p.q
        w = prob_by_residue[res].prod(axis=1)
        for i in np.nonzero(w)[0]:
            entries.append((b, grid[i].tolist(), float(w[i])))
    total = sum(w for _, _, w in entries)
    return ([b for b, _, _ in entries], [x for _, x, _ in entries],
            [math.sqrt(w / total) for _, _, w in entries])


@pytest.mark.parametrize("name", sorted(ENUM_FAMILIES))
def test_enumeration_matches_entry_loop(name):
    """The whole-array enumeration gives the entry loop's branches,
    labels and amplitudes bit for bit."""
    p = ENUM_FAMILIES[name]
    rng = np.random.default_rng(61)
    for _ in range(4):
        k, _t = gen(p, rng)
        for _ in range(5):
            y, res = samp_and_measure(k, rng, mode="exact-enumeration")
            branch, labels, amps = entry_loop_residual(k, y)
            assert (res.branch.dtype, res.labels.dtype, res.amps.dtype) == (
                np.int64, np.int64, np.float64)
            assert res.branch.tolist() == branch
            assert res.labels.tolist() == labels
            assert res.amps.tolist() == amps


class TestSampAndMeasure:
    def test_exact_mode_matches_oracle_residual(self):
        """On tiny-exact (one clean claw) and on the noisy q11-k3 key, the
        enumerated residual equals the oracle's (b, x) marginal after its
        y measurement. The noisy key's B_V puts most of its residuals on a
        clean claw too, so it runs until some hold more points."""
        multi_point = 0
        for name, seeds in (("tiny-exact", 5), ("q11-k3", 60)):
            p = ENUM_FAMILIES[name]
            for seed in range(seeds):
                rng = np.random.default_rng(seed)
                k, _t = gen(p, rng)
                specs = (
                    RegisterSpec("b", "modq", 1, p.kappa),
                    RegisterSpec("x", "modq", p.n, p.q),
                )
                state = init_uniform_full(specs)
                g = TruncatedGaussian(p.q, p.b_p, p.m)
                state = load_gaussian_register(state, RegisterSpec("y", "modq", p.m, p.q), g)
                state = apply_ufkb(state, k)
                y_out, collapsed = measure_register(state, "y", rng)
                oracle_bx = full_distribution(collapsed, ("b", "x"))
                res = _enumerate_residual(k, np.array(y_out))
                analytic = Density(np.column_stack([res.branch, res.labels]), res.amps**2)
                assert tv_distance(oracle_bx, analytic) < 1e-12
                multi_point += len(res.amps) > p.kappa
        assert multi_point >= 1, "no residual beyond a clean claw was checked"

    def test_idealized_support_by_construction(self, rng):
        p = get_preset("desk-k3")
        k, t = gen(p, rng)
        _y, res = samp_and_measure(k, rng, mode="idealized-claw", secret_s=t.s)
        assert res.is_clean_claw()
        xs = res.branches()
        for b in range(1, p.kappa):
            assert np.array_equal(xs[b], (xs[0] - b * t.s.entries) % p.q)

    def test_idealized_needs_secret(self, rng):
        p = get_preset("desk-k3")
        k, _t = gen(p, rng)
        with pytest.raises(ValueError):
            samp_and_measure(k, rng, mode="idealized-claw")

    def test_enumeration_cap(self, rng):
        p = get_preset("desk-k3")
        k, _t = gen(p, rng)
        with pytest.raises(ValueError):
            samp_and_measure(k, rng, mode="exact-enumeration")

    def test_kappa1_degenerate(self, rng):
        # kappa=1: no claw, every residual branch carries label b=0 and
        # the announced image passes chk against each surviving x
        base = get_preset("tiny-exact")
        p = replace(base, kappa=1, b_p=compute_bp(7, 1, 2, 1, base.c_t))
        k_full, _t = gen(base, rng)
        k = NtcfKey(p, k_full.A, k_full.t)
        y, res = samp_and_measure(k, rng, mode="exact-enumeration")
        assert res.branch.tolist() == [0] * len(res.labels)
        for x in res.labels:
            assert chk(k, 0, x, y) == 1


class TestPreimageMeasure:
    def test_branch_frequencies(self):
        res, _s, _x0 = claw_residual(3, 7, 2, 4)
        rng = np.random.default_rng(5)
        counts = [0, 0, 0]
        n = 10_000
        for _ in range(n):
            b, _x = preimage_measure(res, rng)
            counts[b] += 1
        for c in counts:
            assert abs(c / n - 1 / 3) < 0.02

    def test_outputs_pass_chk(self, rng):
        p = get_preset("tiny-exact")
        for _ in range(20):
            k, _t = gen(p, rng)
            y, res = samp_and_measure(k, rng, mode="exact-enumeration")
            b, x = preimage_measure(res, rng)
            assert chk(k, b, x, y) == 1


class TestRed:
    def test_hand_worked_example(self):
        # kappa=3, q=7, s=2, x0=4: claw x's are (4, 2, 0); the only
        # valid outcome is v=1 with survivors x=4 (b=0) and x=0 (b=2)
        res, s, x0 = claw_residual(3, 7, 2, 4)
        rng = np.random.default_rng(0)
        successes = 0
        trials = 3000
        for _ in range(trials):
            try:
                v, d_state = red(res, rng)
            except RedFailed:
                continue
            successes += 1
            assert v == 1
            assert tuple(d_state.x0.tolist()) == (4,)
            assert tuple(d_state.x1.tolist()) == (0,)
            assert tuple(d_state.sbar.tolist()) == (4,)  # 2*v*s = 4 mod 7
        assert abs(successes / trials - 2 / 3) < 0.03

    @pytest.mark.parametrize("kappa,expect", [(3, 2 / 3), (4, 1 / 2), (5, 4 / 5)])
    def test_success_rates(self, kappa, expect):
        res, s, _x0 = claw_residual(kappa, 11, 3, 5)
        rng = np.random.default_rng(kappa)
        n = 10_000
        succ = 0
        for _ in range(n):
            try:
                v, d_state = red(res, rng)
            except RedFailed:
                continue
            succ += 1
            assert np.array_equal(d_state.sbar, 2 * v * s.entries % 11)
        assert abs(succ / n - expect) < 0.02

    def test_kappa2_always_fails_with_both_reasons(self):
        res, _s, _x0 = claw_residual(2, 7, 2, 4)
        rng = np.random.default_rng(9)
        reasons = {"zero": 0, "singleton": 0}
        n = 4000
        for _ in range(n):
            with pytest.raises(RedFailed) as exc:
                red(res, rng)
            if "b' = 0" in str(exc.value):
                reasons["zero"] += 1
            else:
                reasons["singleton"] += 1
        assert abs(reasons["zero"] / n - 0.5) < 0.03
        assert abs(reasons["singleton"] / n - 0.5) < 0.03

    def test_rejects_non_claw(self, rng):
        res, _s, _x0 = claw_residual(3, 7, 2, 4)
        # the third entry moved to branch 0, label 1
        broken = ResidualState(res.key, res.image, np.array([0, 1, 0]),
                               np.array([[4], [2], [1]]), res.amps)
        with pytest.raises(ValueError):
            red(broken, rng)

    def test_valid_ranges(self):
        assert red_valid_range(2) == ()
        assert red_valid_range(3) == (1,)
        assert red_valid_range(4) == (1,)
        assert red_valid_range(5) == (1, 2)
        assert red_valid_range(6) == (1, 2)

    @pytest.mark.parametrize("kappa,table", [
        (2, {0: (0, 1)}),
        (3, {1: (0, 2)}),
        (4, {1: (0, 2)}),
        (5, {1: (1, 3), 2: (0, 4)}),
        (6, {1: (1, 3), 2: (0, 4)}),
    ])
    def test_red_branches_table(self, kappa, table):
        # every b' in -1..kappa maps to its pair, or to None off the table
        got = {v: red_branches(kappa, v) for v in range(-1, kappa + 1)}
        assert {v: pair for v, pair in got.items() if pair is not None} == table


class TestEquationMeasure:
    def test_degenerate_sbar_zero(self, rng):
        st = CosetState(np.array([[4], [4]]), 7)
        for _ in range(50):
            resp = equation_measure(st, rng)
            assert resp.c == 0

    def test_always_satisfies_equation(self, rng):
        st = CosetState(np.array([[4], [0]]), 7)
        for _ in range(200):
            resp = equation_measure(st, rng)
            assert resp.c == int(resp.d @ (j_encode(st.x0, 7) ^ j_encode(st.x1, 7))) % 2

    def test_d_marginal_uniform(self):
        st = CosetState(np.array([[4], [0]]), 7)
        rng = np.random.default_rng(13)
        n = 10_000
        counts = np.zeros(8, dtype=np.int64)
        for _ in range(n):
            resp = equation_measure(st, rng)
            idx = sum(b << i for i, b in enumerate(resp.d.tolist()))
            counts[idx] += 1
        _chi, p = scipy.stats.chisquare(counts)
        assert p > 0.01

    def test_outcomes_cover_oracle_support(self):
        # the analytic (c, d) pairs are exactly the nonzero-amplitude
        # outcomes of the oracle's Hadamard measurement (see oracle test)
        st = CosetState(np.array([[4], [0]]), 7)
        j0, j1 = j_encode(st.x0, 7), j_encode(st.x1, 7)
        rng = np.random.default_rng(21)
        seen = set()
        for _ in range(500):
            resp = equation_measure(st, rng)
            seen.add((resp.c, tuple(resp.d.tolist())))
        expect = set()
        import itertools

        for d in itertools.product((0, 1), repeat=3):
            expect.add((int(np.array(d) @ (j0 ^ j1)) % 2, d))
        assert seen == expect


class TestCheaters:
    def test_commit_passes_generation(self, rng):
        p = get_preset("desk-k3")
        for _ in range(100):
            k, _t = gen(p, rng)
            pr = CheatCommitProver(rng)
            y = pr.receive_key(k)
            b, x = pr.respond_generation()
            assert chk(k, b, x, y) == 1

    def test_commit_test_round_coin_flip(self, rng):
        # against the fixed correct bit, a uniform c is right half the time
        p = get_preset("desk-k3")
        k, t = gen(p, rng)
        pr = CheatCommitProver(rng)
        pr.receive_key(k)
        hits = 0
        n = 4000
        x0 = np.array([1, 2])
        x1 = (x0 - 2 * t.s.entries) % p.q
        for _ in range(n):
            _v, resp = pr.respond_test()
            if resp.c == int(resp.d @ (j_encode(x0, p.q) ^ j_encode(x1, p.q))) % 2:
                hits += 1
        assert abs(hits / n - 0.5) < 0.03


class TestHonestProverInterface:
    def test_callbacks(self, rng):
        p = get_preset("tiny-exact")
        k, _t = gen(p, rng)
        pr = HonestProver(rng, mode="exact-enumeration")
        y = pr.receive_key(k)
        b, x = pr.respond_generation()
        assert chk(k, b, x, y) == 1

    def test_kappa2_direct_claw(self, rng):
        p = get_preset("desk-k2")
        k, t = gen(p, rng)
        pr = HonestProver(rng, mode="idealized-claw")
        assert pr.wants_secret_hint
        pr.set_secret_hint(t.s)
        pr.receive_key(k)
        v, resp = pr.respond_test()
        assert v == 0  # direct claw marker, no RED at kappa=2
