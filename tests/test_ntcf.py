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
from ntcfk.presets import PRESETS, get_preset
from ntcfk.serialize import MAX_TEXT_CHARS, FormatError
from ntcfk.trapdoor import TrapdoorKey
from ntcfk.zq import ZqVector, euclidean_norm, mat_vec_mul


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

    A = np.array([[v] for v in a_col], dtype=np.int64)
    s = ZqVector(np.array([s_val]), p.q)
    e = np.array(e_entries) % p.q
    t_vec = (mat_vec_mul(A, s.entries, p.q) + e) % p.q
    t_a = TrapdoorKey(A, p.q)
    return NtcfKey(p, A, t_vec), NtcfTrapdoor(t_a, s, e)


def sample_image(k, t, b, rng):
    p = k.params
    x = rng.integers(0, p.q, size=p.n, dtype=np.int64)
    e0 = TruncatedGaussian(p.q, p.b_p, p.m).sample(rng)
    return x, (mat_vec_mul(k.A, x, p.q) + e0 + b * k.t) % p.q


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

    @pytest.mark.parametrize("q", [-5, 0, 1, 2**31, 10**30])
    def test_out_of_range_q_reported(self, q):
        """q outside [2, 2^31) is the one violation, reported before the
        primality test would trial-divide it."""
        report = validate_params(replace(get_preset("desk-k3"), q=q))
        assert not report.ok
        assert report.violations == (f"modulus must be in [2, 2^31), got {q}",)

    def test_composite_q(self):
        p = make_params(15, 1, 2, 2, c_t=1.1, b_v=0.5, b_l=0.2)
        assert any("prime" in v for v in validate_params(p).violations)


class TestGen:
    def test_construction_identity(self, rng):
        for p in (get_preset("tiny-exact"), get_preset("desk-k3"), Q17_NOISY):
            k, t = gen(p, rng)
            assert np.array_equal(k.t, (mat_vec_mul(k.A, t.s.entries, p.q) + t.e) % p.q)

    def test_error_norm_bounded(self, rng):
        p = get_preset("desk-k3")
        for _ in range(50):
            _k, t = gen(p, rng)
            assert euclidean_norm(t.e, p.q) <= p.b_v * math.sqrt(p.m)

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
        x = np.array([5])
        assert f_density(k, t, 0, x).table == pytest.approx(
            f_prime_density(k, 0, x).table
        )

    def test_f_prime_is_f_shifted_by_be(self, rng):
        for _ in range(10):
            k, t = gen(Q17_NOISY, rng)
            x = rng.integers(0, 17, size=1, dtype=np.int64)
            fp = f_prime_density(k, 1, x)
            f = f_density(k, t, 1, x)
            shifted = {
                tuple((pt[i] + int(t.e[i])) % 17 for i in range(2)): v
                for pt, v in f.table.items()
            }
            assert fp.table == pytest.approx(shifted)

    def test_mode_location(self, rng):
        k, _t = gen(Q17_NOISY, rng)
        x = np.array([7])
        d = f_prime_density(k, 1, x)
        expect = tuple(((mat_vec_mul(k.A, x, 17) + k.t) % 17).tolist())
        assert max(d.table, key=d.table.get) == expect

    def test_branch_range_checked(self, rng):
        k, _t = gen(Q17_NOISY, rng)
        x = np.array([0])
        with pytest.raises(ValueError):
            f_prime_density(k, 2, x)

    def test_point_eval_matches_table(self, rng):
        k, _t = gen(Q17_NOISY, rng)
        x = np.array([3])
        d = f_prime_density(k, 1, x)
        for pt, v in d.table.items():
            y = np.array(pt)
            assert f_prime_eval(k, 1, x, y) == pytest.approx(v, abs=1e-15)


class TestInv:
    def test_noiseless(self, rng):
        k, t = gen(Q17_NOISY, rng)
        x = np.array([9])
        y = (mat_vec_mul(k.A, x, 17) + k.t) % 17  # b=1, e0=0
        assert np.array_equal(inv(k, t, 1, y), x)

    def test_sampled_recovery(self, rng):
        p = get_preset("desk-k3")
        k, t = gen(p, rng)
        for _ in range(200):
            b = int(rng.integers(0, p.kappa))
            x, y = sample_image(k, t, b, rng)
            assert np.array_equal(inv(k, t, b, y), x)

    def test_branch_identity(self, rng):
        p = get_preset("desk-k3")
        k, t = gen(p, rng)
        for _ in range(50):
            _x, y = sample_image(k, t, 0, rng)
            x0 = inv(k, t, 0, y)
            for b in range(1, p.kappa):
                assert np.array_equal(inv(k, t, b, y), (x0 - b * t.s.entries) % p.q)


class TestChk:
    def test_exact_image_accepted(self, rng):
        k, _t = gen(Q17_NOISY, rng)
        x = np.array([4])
        y = (mat_vec_mul(k.A, x, 17) + k.t) % 17
        assert chk(k, 1, x, y) == 1

    def test_far_point_rejected(self, rng):
        k, _t = gen(Q17_NOISY, rng)
        x = np.array([4])
        y = (mat_vec_mul(k.A, x, 17) + k.t + np.array([8, 8])) % 17
        assert chk(k, 1, x, y) == 0

    def test_chk_iff_support_exhaustive(self, rng):
        k, _t = gen(Q17_BOX, rng)
        for b in range(2):
            for xv in range(17):
                x = np.array([xv])
                supp = set(f_prime_density(k, b, x).table.keys())
                for y_pt in itertools.product(range(17), repeat=2):
                    y = np.array(y_pt)
                    assert chk(k, b, x, y) == (y_pt in supp)


class TestClaw:
    def test_consecutive_differences(self, rng):
        p = get_preset("desk-k3")
        k, t = gen(p, rng)
        _x, y = sample_image(k, t, 0, rng)
        claw = claw_enumerate(k, t, y)
        for b in range(p.kappa - 1):
            assert np.array_equal((claw[b] - claw[b + 1]) % p.q, t.s.entries)

    def test_kappa2_specialization(self, rng):
        p = get_preset("desk-k2")
        k, t = gen(p, rng)
        _x, y = sample_image(k, t, 0, rng)
        claw = claw_enumerate(k, t, y)
        assert len(claw) == 2
        assert np.array_equal(claw[1], (claw[0] - t.s.entries) % p.q)

    def test_matches_brute_force_scan(self, rng):
        # min ||A*delta|| = 4.12 for this column, above twice the chk
        # radius B_P*sqrt(2) = 1.73, so each branch has a unique hit
        k, t = manual_key(Q17_BOX, [1, 4], 5, [0, 0])
        for _ in range(10):
            _x, y = sample_image(k, t, 0, rng)
            claw = claw_enumerate(k, t, y)
            for b in range(2):
                hits = [
                    xv for xv in range(17)
                    if chk(k, b, np.array([xv]), y)
                ]
                assert hits == [int(claw[b][0])]


class TestHellingerBranch:
    def test_b0_is_zero(self, rng):
        k, t = gen(Q97_K3, rng)
        exact, bound = hellinger_branch(k, t, 0)
        assert exact == pytest.approx(0.0, abs=1e-12)
        assert bound == 0.0

    def test_exact_below_bounds_all_branches(self, rng):
        p = Q97_K3
        for _ in range(5):
            k, t = gen(p, rng)
            for b in range(p.kappa):
                exact, bound = hellinger_branch(k, t, b)
                assert exact <= bound + 1e-10
                # the per-shift Lemma bound is strictly tighter
                tight = hellinger_shift_bound(
                    p.b_p, p.m, b * euclidean_norm(t.e, p.q)
                )
                assert exact <= tight + 1e-10
                assert tight <= bound + 1e-10

    def test_monotone_in_b(self, rng):
        p = Q97_K3
        for _ in range(10):
            k, t = gen(p, rng)
            if euclidean_norm(t.e, p.q) == 0.0:
                continue
            vals = [hellinger_branch(k, t, b)[0] for b in range(p.kappa)]
            assert vals == sorted(vals)


class TestSerialization:
    def test_key_round_trip(self, rng):
        for p in (get_preset("tiny-exact"), get_preset("desk-k3")):
            k, t = gen(p, rng)
            assert key_from_text(key_to_text(k)) == k
            k2, t2 = trapdoor_from_text(trapdoor_to_text(k, t))
            assert k2 == k
            assert t2.s == t.s and np.array_equal(t2.e, t.e)
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

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_sk_file_round_trip(self, preset):
        text = trapdoor_to_text(*gen(get_preset(preset), np.random.default_rng(3)))
        assert trapdoor_to_text(*trapdoor_from_text(text)) == text

    @pytest.mark.parametrize("preset", sorted(SK_PINS))
    def test_sk_file_pinned(self, preset):
        k, t = gen(get_preset(preset), np.random.default_rng(5))
        text = trapdoor_to_text(k, t)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SK_PINS[preset]
        assert trapdoor_to_text(*trapdoor_from_text(text)) == text

    @pytest.mark.parametrize("preset", ["tiny-exact", "desk-k3"])
    def test_key_matrices_read_only(self, preset):
        """A and R stay as built, from `gen` and from both readers, in the
        exhaustive (tiny-exact) and the gadget (desk-k3) layout."""
        k, t = gen(get_preset(preset), np.random.default_rng(5))
        k_pub = key_from_text(key_to_text(k))
        k_sk, t_sk = trapdoor_from_text(trapdoor_to_text(k, t))
        assert (t.t_a.R is None) == (preset == "tiny-exact")
        matrices = [k.A, t.t_a.A, k_pub.A, k_sk.A, t_sk.t_a.A]
        matrices += [R for R in (t.t_a.R, t_sk.t_a.R) if R is not None]
        for M in matrices:
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[0, 0] = 0

    def test_key_equality(self):
        p = get_preset("desk-k3")
        k, _t = gen(p, np.random.default_rng(5))
        assert key_from_text(key_to_text(k)) == k
        A = k.A.copy()
        A[0, 0] = (A[0, 0] + 1) % p.q
        t = (k.t + np.eye(1, p.m, dtype=np.int64)[0]) % p.q
        assert NtcfKey(p, A, k.t) != k
        assert NtcfKey(p, k.A, t) != k
        assert NtcfKey(replace(p, ell=2), k.A, k.t) != k
        with pytest.raises(TypeError):
            hash(k)

    def test_trapdoor_equality(self):
        """Trapdoors and their trapdoor keys compare by value: equal for the
        same draws, unequal once one entry of e, R or s differs."""
        p = get_preset("desk-k3")
        _k, t = gen(p, np.random.default_rng(5))
        _k2, t2 = gen(p, np.random.default_rng(5))
        assert t == t2 and t.t_a == t2.t_a
        tiny = get_preset("tiny-exact")  # the exhaustive layout: R is None
        assert gen(tiny, np.random.default_rng(5))[1] == gen(tiny, np.random.default_rng(5))[1]
        e = t.e.copy()
        e[0] = (e[0] + 1) % p.q
        R = t.t_a.R.copy()
        R[0, 0] = (R[0, 0] + 2) % 3 - 1  # another value in {-1, 0, 1}
        t_a = TrapdoorKey(t.t_a.A, p.q, R)
        assert t_a != t.t_a
        assert NtcfTrapdoor(t_a, t.s, t.e) != t
        assert NtcfTrapdoor(t.t_a, t.s, e) != t
        assert NtcfTrapdoor(t.t_a, ZqVector(t.s.entries + 1, p.q), t.e) != t
        with pytest.raises(TypeError):
            hash(t)

    def test_text_size_capped(self):
        """Readers refuse text over the cap before splitting it, and the
        cap leaves room for 500 desk-flood secret-key files."""
        big = "x" * (MAX_TEXT_CHARS + 1)
        for read in (key_from_text, trapdoor_from_text):
            with pytest.raises(FormatError, match=f"cap of {MAX_TEXT_CHARS}"):
                read(big)
        sk = trapdoor_to_text(*gen(get_preset("desk-flood"), np.random.default_rng(5)))
        assert MAX_TEXT_CHARS >= 500 * len(sk)


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


def _r_entry(value, text):
    """The first R entry that reads `value`, written as `text`."""
    def make(r, _other):
        i = next(i for i, row in enumerate(r) if i and value in row.split(" "))
        row = r[i].split(" ")
        row[row.index(value)] = text
        return r[:i] + [" ".join(row)] + r[i + 1:]
    return _set_r(make)


def _edit_field(name, change):
    """Field `name` with its value text passed through `change`."""
    def edit(lines, _other):
        prefix = name + "="
        return [prefix + change(line[len(prefix):]) if line.startswith(prefix) else line
                for line in lines]
    return edit


def _first_plus_one(values):
    first, rest = values.split(" ", 1)
    return f"{int(first) + 1} {rest}"


def _s_plus_one(lines, _other):
    """s + 1 with e = t - A(s + 1): t = A s + e mod q still holds, but e
    leaves the radius `gen` draws it from."""
    k, t = trapdoor_from_text("\n".join(lines) + "\n")
    q = k.params.q
    s = ZqVector(t.s.entries + np.ones(k.params.n, dtype=np.int64), k.params.q)
    e = (k.t - mat_vec_mul(k.A, s.entries, q)) % q
    return trapdoor_to_text(k, NtcfTrapdoor(t.t_a, s, e)).splitlines()


def _exhaustive_sk(preset, m, zero_a=False):
    """Instead of an edit: the secret key of `preset` cut to its first m
    rows (A = 0 if zero_a), written in the exhaustive layout."""
    def edit(_lines, _other):
        base = get_preset(preset)
        p = replace(base, m=m, b_p=compute_bp(base.q, base.n, m, base.kappa, base.c_t))
        k, t = gen(base, np.random.default_rng(5))
        A = np.zeros((m, p.n), dtype=np.int64) if zero_a else k.A[:m]
        e = t.e[:m]
        key = NtcfKey(p, A, (mat_vec_mul(A, t.s.entries, p.q) + e) % p.q)
        return trapdoor_to_text(key, NtcfTrapdoor(TrapdoorKey(A, p.q), t.s, e)).splitlines()
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
    # R takes only the writer's text of each entry
    _r_entry("1", "0_1"),
    _r_entry("1", "\u0661"),
    _r_entry("1", "+1"),
    _r_entry("0", "-0"),
    _r_entry("1", "01"),
    _set_r(lambda r, _other: [r[0], r[1].replace(" ", "  ", 1)] + r[2:]),
    # s and e must be a secret and error of the key's t
    _edit_field("s", lambda v: v + " 3"),
    _edit_field("s", lambda v: v.split(" ")[0]),
    _edit_field("e", lambda v: v.split(" ")[0]),
    _set_field("s", "0 0"),
    _edit_field("e", _first_plus_one),
    _s_plus_one,
], ids=["n_bar-0", "n_bar-99", "base-3", "base-1", "mode-exhaustive",
        "R-1x1", "R-entry-2", "R-entry-plus-q", "R-of-another-key",
        "exhaustive-over-cap", "exhaustive-A-zero", "R-entry-underscore",
        "R-entry-arabic-indic-digit", "R-entry-plus-sign", "R-entry-negative-zero",
        "R-entry-leading-zero", "R-double-space", "s-long", "s-short", "e-short",
        "s-zero", "e-entry-plus-one", "s-plus-one-e-outside-radius"])
def test_malformed_sk_file_rejected(edit):
    """A secret key whose trapdoor fields are not the ones its A gives,
    whose exhaustive layout `gen_trap` would not make, or whose s and e
    are not the key's secret and error, fails when it is read, not at the
    first inversion."""
    p = get_preset("desk-k3")
    lines = trapdoor_to_text(*gen(p, np.random.default_rng(5))).splitlines()
    other = trapdoor_to_text(*gen(p, np.random.default_rng(6))).splitlines()
    bad = "\n".join(edit(lines, other)) + "\n"
    with pytest.raises(FormatError):
        trapdoor_from_text(bad)
