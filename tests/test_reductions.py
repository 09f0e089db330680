import numpy as np
import pytest

from ntcfk.ntcf import NtcfKey, NtcfParams, compute_bp, gen
from ntcfk.presets import get_preset
from ntcfk.prover import CosetState, RedFailed, red_edcp_to_dcp
from ntcfk.reductions import (
    LweInstance,
    end_to_end_recover,
    instance_from_key,
    lwe_to_dcp,
    lwe_to_edcp,
    solve_dcp_desk,
    solve_edcp_desk,
    verify_candidate,
)
from ntcfk.zq import ZqVector


TINY = get_preset("tiny-exact")
DESK = get_preset("desk-k3")
# c_t = 1.5 keeps B_P below 1 even after the kappa=2 re-derivation, so
# exact enumeration always yields a clean claw (all noise is zero)
TINY2 = NtcfParams(
    q=7, n=1, m=2, ell=1, kappa=3, b_l=0.2, b_v=0.3,
    b_p=compute_bp(7, 1, 2, 3, 1.5), c_t=1.5,
)


def desk_instance(rng, planted=True):
    k, t = gen(DESK, rng)
    return instance_from_key(k, planted_s=t.s if planted else None), t


def tiny_instance(rng):
    k, t = gen(TINY2, rng)
    return instance_from_key(k), t


class TestInstances:
    def test_length_checked(self, rng):
        k, _t = gen(TINY, rng)
        short = np.array([1])
        with pytest.raises(ValueError):
            LweInstance(NtcfKey(TINY, k.A, short))

    def test_verify_planted(self, rng):
        for _ in range(20):
            inst, t = desk_instance(rng)
            assert verify_candidate(inst, t.s)
            wrong = ZqVector(t.s.entries + np.array([1, 0]), DESK.q)
            assert not verify_candidate(inst, wrong)


class TestLweToDcp:
    def test_secret_is_minus_s(self, rng):
        inst, t = desk_instance(rng)
        for st in lwe_to_dcp(inst, 10, rng):
            assert np.array_equal((st.x1 - st.x0) % DESK.q, -t.s.entries % DESK.q)
            assert np.array_equal(st.sbar, t.s.entries)

    def test_exact_enumeration_path(self, rng):
        # no planted secret: the claw comes from full enumeration
        inst, t = tiny_instance(rng)
        q = inst.key.params.q
        for st in lwe_to_dcp(inst, 10, rng):
            assert np.array_equal((st.x1 - st.x0) % q, -t.s.entries % q)

    def test_fresh_x0_per_state(self, rng):
        inst, _t = desk_instance(rng)
        states = lwe_to_dcp(inst, 30, rng)
        assert len({tuple(st.x0.tolist()) for st in states}) > 1


class TestLweToEdcp:
    @pytest.mark.parametrize("kappa", [2, 3, 5])
    def test_support_and_differences(self, kappa, rng):
        inst, t = desk_instance(rng)
        for st in lwe_to_edcp(inst, 6, kappa, rng):
            assert st.kappa == kappa
            for j, x in st.support:
                assert np.array_equal(x, (st.support[0][1] - j * t.s.entries) % DESK.q)

    def test_kappa2_dcp_edcp_coincide_up_to_sign(self, rng):
        # at kappa=2 the EDCP difference is s while the DCP secret is -s
        inst, t = desk_instance(rng)
        dcp = lwe_to_dcp(inst, 5, rng)
        edcp = lwe_to_edcp(inst, 5, 2, rng)
        for a, b in zip(dcp, edcp):
            assert np.array_equal((a.x1 - a.x0) % DESK.q,
                                  -(b.support[0][1] - b.support[1][1]) % DESK.q)

    def test_kappa_floor(self, rng):
        inst, _t = desk_instance(rng)
        with pytest.raises(ValueError):
            lwe_to_edcp(inst, 1, 1, rng)

    @pytest.mark.parametrize("planted", [True, False])
    def test_kappa_ceiling(self, planted, rng):
        """kappa = q gives states of q distinct labels; past q, labels b
        and b + q of every claw are equal, and that is refused."""
        inst, t = tiny_instance(rng)
        if planted:
            inst = LweInstance(inst.key, t.s)
        q = TINY2.q
        assert t.s.entries.any()  # else the labels are all equal
        for st in lwe_to_edcp(inst, 3, q, rng):
            assert len({tuple(x) for x in st.labels.tolist()}) == q
        with pytest.raises(ValueError, match=f"kappa={q + 1} must be >= 2 and <= q={q}"):
            lwe_to_edcp(inst, 3, q + 1, rng)

    @pytest.mark.parametrize("planted", [True, False])
    def test_negative_count(self, planted, rng):
        inst, _t = desk_instance(rng, planted=planted)
        for reduce in (lambda: lwe_to_dcp(inst, -1, rng),
                       lambda: lwe_to_edcp(inst, -1, 3, rng)):
            with pytest.raises(ValueError, match="state count must be >= 0, got -1"):
                reduce()

    def test_inconsistent_differences_rejected(self):
        st = CosetState(np.array([[5], [3], [2]]), TINY.q)
        assert solve_edcp_desk([st]).detail == "inconsistent label differences"


class TestRedOnEdcp:
    def test_success_rate_and_secret(self, rng):
        inst, t = desk_instance(rng)
        states = lwe_to_edcp(inst, 600, 3, rng)
        succ = 0
        for st in states:
            try:
                v, d_state = red_edcp_to_dcp(st, rng)
            except RedFailed:
                continue
            succ += 1
            assert np.array_equal(d_state.sbar, 2 * v * t.s.entries % DESK.q)
        assert abs(succ / len(states) - 2 / 3) < 0.07

    def test_even_kappa_rate(self, rng):
        inst, _t = desk_instance(rng)
        states = lwe_to_edcp(inst, 600, 4, rng)
        succ = sum(
            1 for st in states
            if not isinstance(_try_red(st, rng), RedFailed)
        )
        assert abs(succ / len(states) - 1 / 2) < 0.07


def _try_red(st, rng):
    try:
        return red_edcp_to_dcp(st, rng)
    except RedFailed as exc:
        return exc


class TestSolvers:
    def test_empty_input(self):
        assert not solve_dcp_desk([]).success
        assert not solve_edcp_desk([]).success

    def test_unanimity_required(self, rng):
        inst, _t = desk_instance(rng)
        states = lwe_to_dcp(inst, 6, rng)
        bad = CosetState((states[0].labels + [[0, 0], [1, 0]]) % DESK.q, DESK.q)
        report = solve_dcp_desk(states + [bad])
        assert not report.success
        assert "inconsistent" in report.detail

    def test_dcp_solver_refuses_edcp_states(self, rng):
        # rows 0 and 1 of a kappa=3 state alone would read off -s
        inst, _t = desk_instance(rng)
        states = lwe_to_edcp(inst, 3, 3, rng)
        with pytest.raises(ValueError, match=r"two rows each, got row counts \[3\]"):
            solve_dcp_desk(states)
        with pytest.raises(ValueError, match=r"row counts \[2, 3\]"):
            solve_dcp_desk(lwe_to_dcp(inst, 2, rng) + states)

    def test_edcp_solver_refuses_mixed_kappa(self, rng):
        inst, _t = desk_instance(rng)
        states = lwe_to_edcp(inst, 2, 2, rng) + lwe_to_edcp(inst, 2, 3, rng)
        with pytest.raises(ValueError, match=r"one kappa >= 2, got row counts \[2, 3\]"):
            solve_edcp_desk(states)
        single = CosetState(np.array([[5, 1]]), DESK.q)
        with pytest.raises(ValueError, match=r"one kappa >= 2, got row counts \[1\]"):
            solve_edcp_desk([single])

    def test_edcp_corrupted_state(self, rng):
        inst, _t = desk_instance(rng)
        good = lwe_to_edcp(inst, 4, 3, rng)
        bump = np.array([[0, 0], [0, 0], [0, 1]])  # row 2 plus (0, 1)
        corrupted = CosetState((good[0].labels + bump) % DESK.q, DESK.q)
        report = solve_edcp_desk(good + [corrupted])
        assert not report.success


class TestEndToEnd:
    def test_dcp_path(self, rng):
        for _ in range(10):
            inst, t = desk_instance(rng)
            report = end_to_end_recover(inst, "dcp", rng)
            assert report.success
            assert report.candidate == t.s

    @pytest.mark.parametrize("kappa", [3, 5])
    def test_edcp_path(self, kappa, rng):
        for _ in range(10):
            inst, t = desk_instance(rng)
            report = end_to_end_recover(inst, "edcp", rng, kappa=kappa)
            assert report.success
            assert report.candidate == t.s

    def test_tiny_enumeration_path(self, rng):
        inst, t = tiny_instance(rng)
        for path in ("dcp", "edcp"):
            report = end_to_end_recover(inst, path, rng)
            assert report.success
            assert report.candidate == t.s

    def test_unknown_path(self, rng):
        inst, _t = desk_instance(rng)
        with pytest.raises(ValueError):
            end_to_end_recover(inst, "cosets", rng)

    def test_verification_catches_bad_candidate(self, rng):
        # corrupt t after sampling: the unanimous candidate no longer
        # satisfies the LWE relation and verification must reject it
        inst, t = desk_instance(rng)
        k = inst.key
        bumped = LweInstance(
            NtcfKey(k.params, k.A, (k.t + np.array([100] * DESK.m)) % DESK.q),
            planted_s=t.s,
        )
        report = end_to_end_recover(bumped, "dcp", rng)
        assert not report.success
        assert "verification" in report.detail


class TestTinyDistributionMatch:
    def test_dcp_x0_marginal_uniform(self):
        # with exact enumeration at tiny scale, x0 over many draws must
        # be uniform over Z_q (chi-square at q=7)
        import scipy.stats

        rng = np.random.default_rng(31)
        inst, _t = tiny_instance(rng)
        counts = np.zeros(7, dtype=np.int64)
        for st in lwe_to_dcp(inst, 3000, rng):
            counts[int(st.x0[0])] += 1
        _chi, p = scipy.stats.chisquare(counts)
        assert p > 0.01
