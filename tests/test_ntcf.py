import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from ntcfk.gaussian import TruncatedGaussian, hellinger_shift_bound
from ntcfk.ntcf import (
    NtcfKey,
    NtcfParams,
    NtcfTrapdoor,
    chk,
    claw_enumerate,
    compute_bp,
    f_density,
    f_prime_density,
    f_prime_eval,
    gen,
    hellinger_branch,
    inv,
    key_from_text,
    key_to_text,
    trapdoor_from_text,
    trapdoor_to_text,
    validate_params,
)
from ntcfk.presets import get_preset
from ntcfk.serialize import FormatError
from ntcfk.trapdoor import TrapdoorKey
from ntcfk.zq import ZqMatrix, ZqVector, euclidean_norm, mat_vec_mul


def make_params(q, n, m, kappa, c_t, b_v, b_l, ell=1, **kw):
    return NtcfParams(
        q=q, n=n, m=m, ell=ell, kappa=kappa,
        b_l=b_l, b_v=b_v, b_p=compute_bp(q, n, m, kappa, c_t), c_t=c_t, **kw
    )


# q=17, m=2, B_P in (1, sqrt(2)): the per-coordinate box and the l2 ball
# contain exactly the same integer points, so chk matches the support.
Q17_BOX = make_params(17, 1, 2, 2, c_t=2.2, b_v=0.6, b_l=0.3)
# q=17 with real noise: B_V = 1 makes e nonzero most of the time.
Q17_NOISY = make_params(17, 1, 2, 2, c_t=1.1, b_v=1.0, b_l=0.45)
# q=97, kappa=3 with nonzero e for Hellinger branch checks.
Q97_K3 = make_params(97, 1, 2, 3, c_t=1.7, b_v=1.0, b_l=0.45)


def manual_key(p, a_col, s_val, e_entries):
    """Build a key with a chosen A so exhaustive decoding margins are
    controlled (random A at m=2 can put two branches too close)."""
    from ntcfk.ntcf import NtcfKey, NtcfTrapdoor
    from ntcfk.trapdoor import TrapdoorKey
    from ntcfk.zq import ZqMatrix

    mod = p.modulus
    A = ZqMatrix(np.array([[v] for v in a_col], dtype=np.int64), mod)
    s = ZqVector(np.array([s_val]), mod)
    e = ZqVector(np.array(e_entries), mod)
    t_vec = mat_vec_mul(A, s) + e
    t_a = TrapdoorKey(A)
    return NtcfKey(p, A, t_vec), NtcfTrapdoor(t_a, s, e)


def sample_image(k, t, b, rng):
    p = k.params
    x = ZqVector(rng.integers(0, p.q, size=p.n, dtype=np.int64), p.modulus)
    e0 = TruncatedGaussian(p.modulus, p.b_p, p.m).sample(rng)
    return x, mat_vec_mul(k.A, x) + e0 + k.t.scale(b)


HUGE_KAPPA_BP = compute_bp(7, 1, 2, 10**300, get_preset("tiny-exact").c_t)


class TestValidate:
    def test_width_ordering_violation(self):
        p = replace(get_preset("desk-k3"), b_v=10.0)
        report = validate_params(p)
        assert not report.ok
        assert any("ordering" in v for v in report.violations)

    def test_bp_formula_enforced(self):
        p = replace(get_preset("desk-k3"), b_p=3.0)
        report = validate_params(p)
        assert any("formula" in v for v in report.violations)

    def test_desk_preset_passes_with_warnings(self):
        report = validate_params(get_preset("desk-k3"))
        assert report.ok
        assert report.warnings  # ratio conditions cannot hold at desk scale

    def test_asymptotic_mode_promotes_warnings(self):
        p = replace(get_preset("desk-k3"), mode="asymptotic")
        assert not validate_params(p).ok

    @pytest.mark.parametrize("fields", [
        {"b_v": 0.0}, {"b_l": 0.0}, {"n": -1}, {"kappa": 10**400}, {"m": 10**400},
        # widths that fit the B_P formula for kappa = 10^300, so only kappa <= q fails
        {"kappa": 10**300, "b_p": HUGE_KAPPA_BP, "b_v": HUGE_KAPPA_BP / 16,
         "b_l": HUGE_KAPPA_BP / 256},
    ], ids=["bv-zero", "bl-zero", "n-negative", "kappa-huge", "m-huge", "kappa-above-q"])
    def test_degenerate_fields_reported(self, fields):
        report = validate_params(replace(get_preset("tiny-exact"), **fields))
        assert not report.ok

    def test_huge_ell_is_a_growth_warning(self):
        report = validate_params(replace(get_preset("desk-k3"), ell=10**400))
        assert report.ok
        assert any("ell*log2(q)" in w for w in report.warnings)

    def test_cached_report_words_each_params_text(self):
        # 0.0 == -0.0 and they hash alike, but print differently
        pos = replace(get_preset("desk-k3"), b_l=0.0)
        neg = replace(get_preset("desk-k3"), b_l=-0.0)
        assert pos == neg and hash(pos) == hash(neg)
        for p, text in ((pos, "B_L=0.0 "), (neg, "B_L=-0.0 "), (pos, "B_L=0.0 ")):
            (violation,) = validate_params(p).violations
            assert "ordering" in violation and text in violation

    def test_composite_q(self):
        p = make_params(15, 1, 2, 2, c_t=1.1, b_v=0.5, b_l=0.2)
        assert any("prime" in v for v in validate_params(p).violations)


class TestGen:
    def test_construction_identity(self, rng):
        for p in (get_preset("tiny-exact"), get_preset("desk-k3"), Q17_NOISY):
            k, t = gen(p, rng)
            assert k.t == mat_vec_mul(k.A, t.s) + t.e

    def test_error_norm_bounded(self, rng):
        p = get_preset("desk-k3")
        for _ in range(50):
            _k, t = gen(p, rng)
            assert euclidean_norm(t.e) <= p.b_v * math.sqrt(p.m)

    def test_seed_gives_identical_serialized_key(self):
        p = get_preset("desk-k3")
        k1, t1 = gen(p, np.random.default_rng(3))
        k2, t2 = gen(p, np.random.default_rng(3))
        assert key_to_text(k1) == key_to_text(k2)
        assert trapdoor_to_text(k1, t1) == trapdoor_to_text(k2, t2)

    def test_invalid_params_rejected(self, rng):
        p = replace(get_preset("desk-k3"), b_p=1.0)
        with pytest.raises(ValueError):
            gen(p, rng)


class TestDensities:
    def test_b0_f_equals_f_prime(self, rng):
        k, t = gen(Q17_NOISY, rng)
        x = ZqVector(np.array([5]), k.params.modulus)
        assert f_density(k, t, 0, x).table == pytest.approx(
            f_prime_density(k, 0, x).table
        )

    def test_f_prime_is_f_shifted_by_be(self, rng):
        for _ in range(10):
            k, t = gen(Q17_NOISY, rng)
            x = ZqVector(rng.integers(0, 17, size=1, dtype=np.int64), k.params.modulus)
            fp = f_prime_density(k, 1, x)
            f = f_density(k, t, 1, x)
            shifted = {
                tuple((pt[i] + int(t.e.entries[i])) % 17 for i in range(2)): v
                for pt, v in f.table.items()
            }
            assert fp.table == pytest.approx(shifted)

    def test_mode_location(self, rng):
        k, _t = gen(Q17_NOISY, rng)
        x = ZqVector(np.array([7]), k.params.modulus)
        d = f_prime_density(k, 1, x)
        expect = (mat_vec_mul(k.A, x) + k.t).as_tuple()
        assert max(d.table, key=d.table.get) == expect

    def test_branch_range_checked(self, rng):
        k, _t = gen(Q17_NOISY, rng)
        x = ZqVector(np.array([0]), k.params.modulus)
        with pytest.raises(ValueError):
            f_prime_density(k, 2, x)

    def test_point_eval_matches_table(self, rng):
        k, _t = gen(Q17_NOISY, rng)
        x = ZqVector(np.array([3]), k.params.modulus)
        d = f_prime_density(k, 1, x)
        for pt, v in d.table.items():
            y = ZqVector(np.array(pt), k.params.modulus)
            assert f_prime_eval(k, 1, x, y) == pytest.approx(v, abs=1e-15)


class TestInv:
    def test_noiseless(self, rng):
        k, t = gen(Q17_NOISY, rng)
        x = ZqVector(np.array([9]), k.params.modulus)
        y = mat_vec_mul(k.A, x) + k.t  # b=1, e0=0
        assert inv(k, t, 1, y) == x

    def test_sampled_recovery(self, rng):
        p = get_preset("desk-k3")
        k, t = gen(p, rng)
        for _ in range(200):
            b = int(rng.integers(0, p.kappa))
            x, y = sample_image(k, t, b, rng)
            assert inv(k, t, b, y) == x

    def test_branch_identity(self, rng):
        p = get_preset("desk-k3")
        k, t = gen(p, rng)
        for _ in range(50):
            _x, y = sample_image(k, t, 0, rng)
            x0 = inv(k, t, 0, y)
            for b in range(1, p.kappa):
                assert inv(k, t, b, y) == x0 - t.s.scale(b)


class TestChk:
    def test_exact_image_accepted(self, rng):
        k, _t = gen(Q17_NOISY, rng)
        x = ZqVector(np.array([4]), k.params.modulus)
        y = mat_vec_mul(k.A, x) + k.t
        assert chk(k, 1, x, y) == 1

    def test_far_point_rejected(self, rng):
        k, _t = gen(Q17_NOISY, rng)
        x = ZqVector(np.array([4]), k.params.modulus)
        y = mat_vec_mul(k.A, x) + k.t + ZqVector(np.array([8, 8]), k.params.modulus)
        assert chk(k, 1, x, y) == 0

    def test_chk_iff_support_exhaustive(self, rng):
        k, _t = gen(Q17_BOX, rng)
        mod = k.params.modulus
        for b in range(2):
            for xv in range(17):
                x = ZqVector(np.array([xv]), mod)
                supp = set(f_prime_density(k, b, x).table.keys())
                for y_pt in itertools.product(range(17), repeat=2):
                    y = ZqVector(np.array(y_pt), mod)
                    assert chk(k, b, x, y) == (y_pt in supp)


class TestClaw:
    def test_consecutive_differences(self, rng):
        p = get_preset("desk-k3")
        k, t = gen(p, rng)
        _x, y = sample_image(k, t, 0, rng)
        claw = claw_enumerate(k, t, y)
        for b in range(p.kappa - 1):
            assert claw[b] - claw[b + 1] == t.s

    def test_kappa2_specialization(self, rng):
        p = get_preset("desk-k2")
        k, t = gen(p, rng)
        _x, y = sample_image(k, t, 0, rng)
        claw = claw_enumerate(k, t, y)
        assert len(claw) == 2
        assert claw[1] == claw[0] - t.s

    def test_matches_brute_force_scan(self, rng):
        # min ||A*delta|| = 4.12 for this column, above twice the chk
        # radius B_P*sqrt(2) = 1.73, so each branch has a unique hit
        k, t = manual_key(Q17_BOX, [1, 4], 5, [0, 0])
        mod = k.params.modulus
        for _ in range(10):
            _x, y = sample_image(k, t, 0, rng)
            claw = claw_enumerate(k, t, y)
            for b in range(2):
                hits = [
                    xv for xv in range(17)
                    if chk(k, b, ZqVector(np.array([xv]), mod), y)
                ]
                assert hits == [int(claw[b].entries[0])]


class TestHellingerBranch:
    def test_b0_is_zero(self, rng):
        k, t = gen(Q97_K3, rng)
        x = ZqVector(np.array([0]), k.params.modulus)
        exact, bound = hellinger_branch(k, t, 0, x)
        assert exact == pytest.approx(0.0, abs=1e-12)
        assert bound == 0.0

    def test_exact_below_bounds_all_branches(self, rng):
        p = Q97_K3
        for _ in range(5):
            k, t = gen(p, rng)
            x = ZqVector(rng.integers(0, 97, size=1, dtype=np.int64), p.modulus)
            for b in range(p.kappa):
                exact, bound = hellinger_branch(k, t, b, x)
                assert exact <= bound + 1e-10
                # the per-shift Lemma bound is strictly tighter
                tight = hellinger_shift_bound(
                    p.b_p, p.m, b * euclidean_norm(t.e)
                )
                assert exact <= tight + 1e-10
                assert tight <= bound + 1e-10

    def test_monotone_in_b(self, rng):
        p = Q97_K3
        for _ in range(10):
            k, t = gen(p, rng)
            if euclidean_norm(t.e) == 0.0:
                continue
            x = ZqVector(np.array([0]), p.modulus)
            vals = [hellinger_branch(k, t, b, x)[0] for b in range(p.kappa)]
            assert vals == sorted(vals)


class TestSerialization:
    def test_key_round_trip(self, rng):
        for p in (get_preset("tiny-exact"), get_preset("desk-k3")):
            k, t = gen(p, rng)
            assert key_from_text(key_to_text(k)) == k
            k2, t2 = trapdoor_from_text(trapdoor_to_text(k, t))
            assert k2 == k
            assert t2.s == t.s and t2.e == t.e
            assert key_to_text(k2) == key_to_text(k)

    def test_sk_file_distinct_from_pub(self, rng):
        k, t = gen(get_preset("desk-k3"), rng)
        assert key_to_text(k).splitlines()[0] == "ntcf-key v1"
        assert trapdoor_to_text(k, t).splitlines()[0] == "ntcf-sk v1"

    # sha256 of trapdoor_to_text for the key gen draws from default_rng(5),
    # recorded before the trapdoor key was cut down to (A, R).
    SK_PINS = {
        "tiny-exact": "3b022363a4654052668df21c1a26483b41c50739835e5f08f9ed34b08aa008b0",
        "desk-k3": "b5f52d099c6a62e6e6ff1e8137baca08a72e0bf0220be731266cf539bcf976b6",
    }

    @pytest.mark.parametrize("preset", sorted(SK_PINS))
    def test_sk_file_pinned(self, preset):
        k, t = gen(get_preset(preset), np.random.default_rng(5))
        text = trapdoor_to_text(k, t)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SK_PINS[preset]
        assert trapdoor_to_text(*trapdoor_from_text(text)) == text


def _set_field(name, value):
    def edit(lines, _other):
        return [f"{name}={value}" if line.startswith(name + "=") else line for line in lines]
    return edit


def _r_rows(lines):
    """The slice of lines holding the matrix R: its header and rows."""
    i = next(i for i, line in enumerate(lines) if line.startswith("R="))
    return slice(i, i + 1 + int(lines[i][2:].split()[0]))


def _plus_q(row):
    first, rest = row.split(" ", 1)
    return f"{int(first) + get_preset('desk-k3').q} {rest}"


def _set_r(make):
    def edit(lines, other):
        rows = _r_rows(lines)
        return lines[: rows.start] + make(lines[rows], other) + lines[rows.stop :]
    return edit


def _exhaustive_sk(preset, m, zero_a=False):
    """Instead of an edit: the secret key of `preset` cut to its first m
    rows (A = 0 if zero_a), written in the exhaustive layout."""
    def edit(_lines, _other):
        base = get_preset(preset)
        p = replace(base, m=m, b_p=compute_bp(base.q, base.n, m, base.kappa, base.c_t))
        k, t = gen(base, np.random.default_rng(5))
        A = ZqMatrix(np.zeros((m, p.n), dtype=np.int64) if zero_a else k.A.entries[:m],
                     p.modulus)
        e = ZqVector(t.e.entries[:m], p.modulus)
        key = NtcfKey(p, A, mat_vec_mul(A, t.s) + e)
        return trapdoor_to_text(key, NtcfTrapdoor(TrapdoorKey(A), t.s, e)).splitlines()
    return edit


@pytest.mark.parametrize("edit", [
    _set_field("n_bar", 0),
    _set_field("n_bar", 99),
    _set_field("gadget_base", 3),
    _set_field("gadget_base", 1),
    _set_field("trap_mode", "exhaustive"),
    _set_r(lambda r, _other: ["R=1 1", "0"]),
    _set_r(lambda r, _other: [r[0], "2" + r[1][r[1].index(" "):]] + r[2:]),
    # an entry moved by q still satisfies [R | I] A = G mod q
    _set_r(lambda r, _other: [r[0], _plus_q(r[1])] + r[2:]),
    _set_r(lambda _r, other: other[_r_rows(other)]),
    # q^n = 521^2 is over the exhaustive-search cap
    _exhaustive_sk("desk-k3", 20),
    # x -> Ax is not injective, so every decode ties
    _exhaustive_sk("tiny-exact", 2, zero_a=True),
], ids=["n_bar-0", "n_bar-99", "base-3", "base-1", "mode-exhaustive",
        "R-1x1", "R-entry-2", "R-entry-plus-q", "R-of-another-key",
        "exhaustive-over-cap", "exhaustive-A-zero"])
def test_malformed_sk_file_rejected(edit):
    """A secret key whose trapdoor fields are not the ones its A gives,
    or whose exhaustive layout `gen_trap` would not make, fails when it
    is read, not at the first inversion."""
    p = get_preset("desk-k3")
    lines = trapdoor_to_text(*gen(p, np.random.default_rng(5))).splitlines()
    other = trapdoor_to_text(*gen(p, np.random.default_rng(6))).splitlines()
    bad = "\n".join(edit(lines, other)) + "\n"
    with pytest.raises(FormatError):
        trapdoor_from_text(bad)
