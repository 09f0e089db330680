import cmath
import itertools
import math

import numpy as np
import pytest

from ntcfk import oracle
from ntcfk.gaussian import TruncatedGaussian, tv_distance
from ntcfk.ntcf import NtcfKey, NtcfParams, compute_bp
from ntcfk.oracle import (
    RegisterSpec,
    SparseState,
    StateTooLarge,
    apply_hadamard_bits,
    apply_qft_q,
    apply_ufkb,
    full_distribution,
    init_uniform,
    init_uniform_full,
    load_gaussian_register,
    measure_register,
    remove_register,
)
from ntcfk.zq import DimensionError, Modulus, ZqMatrix, ZqVector, j_encode


def rows(st):
    """The state's labels as a set of row tuples."""
    return set(map(tuple, st.labels.tolist()))


def amp_dict(st):
    """label row -> amplitude: the per-label form the references read."""
    return dict(zip(map(tuple, st.labels.tolist()), st.amps.tolist()))


def make_state(specs, labels, amps):
    """A state from label rows and amplitudes given as lists."""
    return SparseState(
        specs,
        np.array(labels, dtype=np.int64).reshape(len(labels), -1),
        np.array(amps, dtype=np.complex128),
    )


def tiny_key(q=7, n=1, m=1, kappa=2, a=None, t=None):
    p = NtcfParams(
        q=q, n=n, m=m, ell=1, kappa=kappa, b_l=0.1, b_v=0.2,
        b_p=compute_bp(q, n, m, kappa, 1.4), c_t=1.4,
    )
    mod = Modulus(q)
    A = ZqMatrix(np.array(a if a is not None else [[3]] * m), mod)
    tv = ZqVector(np.array(t if t is not None else [2] * m), mod)
    return NtcfKey(p, A, tv)


class TestInit:
    def test_singleton(self):
        spec = (RegisterSpec("x", "modq", 1, 7),)
        st = init_uniform(spec, [[3]])
        assert amp_dict(st) == {(3,): pytest.approx(1.0 + 0j)}

    def test_norm_one(self):
        spec = (RegisterSpec("x", "modq", 2, 5),)
        st = init_uniform_full(spec)
        assert st.norm_sq() == pytest.approx(1.0)

    def test_b_cross_x_count(self):
        specs = (RegisterSpec("b", "modq", 1, 3), RegisterSpec("x", "modq", 1, 7))
        st = init_uniform_full(specs)
        assert len(st.amps) == 21
        assert all(a == pytest.approx(1 / math.sqrt(21)) for a in st.amps)

    def test_empty_domain(self):
        with pytest.raises(ValueError):
            init_uniform((RegisterSpec("x", "modq", 1, 7),), [])

    @pytest.mark.parametrize("label", [[1, 2], [1, 2, 0, 0]])
    def test_label_shape_checked(self, label):
        specs = (RegisterSpec("x", "modq", 2, 5), RegisterSpec("d", "bits", 1))
        with pytest.raises(ValueError):
            init_uniform(specs, [label])

    @pytest.mark.parametrize("label", [[5, 0], [-1, 0], [0, 2]])
    def test_label_range_checked(self, label):
        specs = (RegisterSpec("x", "modq", 1, 5), RegisterSpec("d", "bits", 1))
        with pytest.raises(ValueError):
            init_uniform(specs, [label])

    def test_repeated_label(self):
        specs = (RegisterSpec("x", "modq", 1, 5), RegisterSpec("d", "bits", 1))
        with pytest.raises(ValueError, match="repeated label"):
            init_uniform(specs, [[1, 0], [2, 1], [1, 0]])


class TestGaussianLoad:
    def test_tiny_width_pins_zero(self):
        st = init_uniform_full((RegisterSpec("b", "modq", 1, 2),))
        g = TruncatedGaussian(Modulus(7), 0.5, 2)
        st = load_gaussian_register(st, RegisterSpec("e", "modq", 2, 7), g)
        assert (st.labels[:, st.reg_cols("e")] == 0).all()

    def test_marginal_squares_to_density(self):
        st = init_uniform_full((RegisterSpec("b", "modq", 1, 2),))
        g = TruncatedGaussian(Modulus(17), 2.0, 1)
        st = load_gaussian_register(st, RegisterSpec("e", "modq", 1, 17), g)
        marg = full_distribution(st, ("e",))
        for pt, pr in marg.table.items():
            assert pr == pytest.approx(g.density_eval(ZqVector(np.array(pt), Modulus(17))))

    def test_norm_preserved(self):
        st = init_uniform_full((RegisterSpec("b", "modq", 1, 3),))
        g = TruncatedGaussian(Modulus(7), 1.0, 2)
        st = load_gaussian_register(st, RegisterSpec("e", "modq", 2, 7), g)
        assert st.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_spec_mismatch(self):
        st = init_uniform_full((RegisterSpec("b", "modq", 1, 2),))
        g = TruncatedGaussian(Modulus(7), 1.0, 2)
        with pytest.raises(DimensionError):
            load_gaussian_register(st, RegisterSpec("e", "modq", 3, 7), g)


class TestUfkb:
    def _full_state(self, k):
        p = k.params
        specs = (
            RegisterSpec("b", "modq", 1, p.kappa),
            RegisterSpec("x", "modq", p.n, p.q),
            RegisterSpec("y", "modq", p.m, p.q),
        )
        return init_uniform_full(specs)

    def test_zero_branch_maps_zero(self):
        k = tiny_key()
        st = init_uniform(
            (
                RegisterSpec("b", "modq", 1, 2),
                RegisterSpec("x", "modq", 1, 7),
                RegisterSpec("y", "modq", 1, 7),
            ),
            [[0, 0, 0]],
        )
        out = apply_ufkb(st, k)
        assert out.labels.tolist() == [[0, 0, 0]]

    def test_bijective_exhaustive(self):
        k = tiny_key()
        st = self._full_state(k)
        out = apply_ufkb(st, k)
        assert len(out.amps) == len(st.amps)
        assert out.norm_sq() == pytest.approx(1.0)

    def test_uncompute_round_trip(self):
        k = tiny_key()
        st = self._full_state(k)
        back = apply_ufkb(apply_ufkb(st, k), k, invert=True)
        assert rows(back) == rows(st)
        assert back.fidelity(st) == pytest.approx(1.0)

    def test_dimension_check(self):
        k = tiny_key(m=2)
        st = init_uniform_full(
            (
                RegisterSpec("b", "modq", 1, 2),
                RegisterSpec("x", "modq", 1, 7),
                RegisterSpec("y", "modq", 1, 7),
            )
        )
        with pytest.raises(DimensionError):
            apply_ufkb(st, k)


class TestMeasure:
    def test_product_state_untouched(self, rng):
        specs = (RegisterSpec("a", "modq", 1, 3), RegisterSpec("b", "modq", 1, 4))
        st = init_uniform_full(specs)
        before = full_distribution(st, ("b",))
        _out, collapsed = measure_register(st, "a", rng)
        after = full_distribution(collapsed, ("b",))
        assert tv_distance(before, after) < 1e-12

    def test_post_measurement_norm(self, rng):
        specs = (RegisterSpec("a", "modq", 1, 5),)
        st = init_uniform_full(specs)
        _out, collapsed = measure_register(st, "a", rng)
        assert collapsed.norm_sq() == pytest.approx(1.0)

    def test_empirical_marginal(self):
        specs = (RegisterSpec("a", "modq", 1, 4),)
        st = make_state(specs, [[i] for i in range(4)], np.sqrt([0.4, 0.3, 0.2, 0.1]))
        rng = np.random.default_rng(8)
        n = 20_000
        counts = {}
        for _ in range(n):
            out, _c = measure_register(st, "a", rng)
            counts[out] = counts.get(out, 0) + 1
        emp = {k[0]: v / n for k, v in counts.items()}
        exact = {i: w for i, w in enumerate((0.4, 0.3, 0.2, 0.1))}
        tv = 0.5 * sum(abs(emp.get(i, 0) - exact[i]) for i in exact)
        assert tv < 0.02

    def test_remove_register(self, rng):
        specs = (RegisterSpec("a", "modq", 1, 5), RegisterSpec("b", "modq", 1, 3))
        st = init_uniform_full(specs)
        _out, collapsed = measure_register(st, "a", rng)
        smaller = remove_register(collapsed, "a")
        assert len(smaller.specs) == 1
        with pytest.raises(ValueError):
            remove_register(st, "a")  # still entangled


class TestHadamard:
    def test_involution(self):
        spec = (RegisterSpec("d", "bits", 3),)
        st = make_state(spec, [[1, 0, 1]], [1.0])
        twice = apply_hadamard_bits(apply_hadamard_bits(st, "d"), "d")
        assert twice.fidelity(st) == pytest.approx(1.0, abs=1e-12)

    def test_zero_to_uniform(self):
        spec = (RegisterSpec("d", "bits", 2),)
        st = make_state(spec, [[0, 0]], [1.0])
        out = apply_hadamard_bits(st, "d")
        assert len(out.amps) == 4
        assert all(a == pytest.approx(0.5) for a in out.amps)

    def test_rejects_modq(self):
        spec = (RegisterSpec("x", "modq", 1, 7),)
        st = init_uniform_full(spec)
        with pytest.raises(DimensionError):
            apply_hadamard_bits(st, "x")

    def test_claw_outcome_support(self):
        # (|0>|J(x0)> + |1>|J(x1)>)/sqrt(2), Hadamard both registers:
        # support must be exactly {(c, d) : c = d . (J(x0) xor J(x1))}
        mod = Modulus(7)
        x0 = ZqVector(np.array([4]), mod)
        x1 = ZqVector(np.array([0]), mod)
        j0, j1 = j_encode(x0).bits, j_encode(x1).bits
        specs = (RegisterSpec("c", "bits", 1), RegisterSpec("d", "bits", 3))
        st = make_state(specs, [(0,) + j0, (1,) + j1], [1 / math.sqrt(2)] * 2)
        out = apply_hadamard_bits(apply_hadamard_bits(st, "c"), "d")
        got = {(lab[0], lab[1:]) for lab in rows(out)}
        expect = set()
        for d in itertools.product((0, 1), repeat=3):
            c = sum(di * (a ^ b) for di, a, b in zip(d, j0, j1)) % 2
            expect.add((c, d))
        assert got == expect


class TestQft:
    def test_unitarity(self):
        spec = (RegisterSpec("x", "modq", 2, 5),)
        rng = np.random.default_rng(3)
        labels = list(itertools.product(range(5), repeat=2))
        amps = np.array([complex(rng.normal(), rng.normal()) for _ in labels])
        st = make_state(spec, labels, amps / np.linalg.norm(amps))
        back = apply_qft_q(apply_qft_q(st, "x"), "x", inverse=True)
        assert back.fidelity(st) >= 1.0 - 1e-9

    def test_zero_to_uniform_no_phase(self):
        spec = (RegisterSpec("x", "modq", 1, 7),)
        st = make_state(spec, [[0]], [1.0])
        out = apply_qft_q(st, "x")
        assert all(a == pytest.approx(1 / math.sqrt(7)) for a in out.amps)

    def test_point_mass_phases_q5(self):
        j = 3
        spec = (RegisterSpec("x", "modq", 1, 5),)
        st = make_state(spec, [[j]], [1.0])
        out = apply_qft_q(st, "x")
        for (y,), a in amp_dict(out).items():
            expect = cmath.exp(2j * cmath.pi * j * y / 5) / math.sqrt(5)
            assert a == pytest.approx(expect, abs=1e-12)


class TestFullDistribution:
    def test_norm(self):
        st = init_uniform_full((RegisterSpec("x", "modq", 1, 7),))
        d = full_distribution(st, ("x",))
        assert sum(d.table.values()) == pytest.approx(1.0)

    def test_product_factorizes(self):
        specs = (RegisterSpec("a", "modq", 1, 3), RegisterSpec("b", "modq", 1, 4))
        st = init_uniform_full(specs)
        joint = full_distribution(st, ("a", "b"))
        ma = full_distribution(st, ("a",))
        mb = full_distribution(st, ("b",))
        for (a, b), pr in joint.table.items():
            assert pr == pytest.approx(ma.table[(a,)] * mb.table[(b,)])

    def test_prune_drops_negligible(self):
        spec = (RegisterSpec("x", "modq", 1, 7),)
        st = make_state(spec, [[0], [1]], [1.0, 1e-16])
        assert st.labels.tolist() == [[0]]


def random_state(specs, labels, seed):
    rng = np.random.default_rng(seed)
    amps = np.array([complex(rng.normal(), rng.normal()) for _ in labels])
    return make_state(specs, labels, amps / np.linalg.norm(amps))


def ref_dense(amps, cols, radix, entry):
    """Per-label reference: out[lab'] += entry(v', v) * amps[lab], where v
    and v' are the values of label columns `cols`."""
    out = {}
    for lab, a in amps.items():
        for new in itertools.product(range(radix), repeat=len(cols)):
            p2 = list(lab)
            for c, v in zip(cols, new):
                p2[c] = v
            lab2 = tuple(p2)
            old = tuple(lab[c] for c in cols)
            out[lab2] = out.get(lab2, 0.0) + entry(new, old) * a
    return {lab: a for lab, a in out.items() if abs(a) > 1e-12}


def assert_amps_close(got, want):
    got = {lab: a for lab, a in got.items() if abs(a) > 1e-12}
    assert set(got) == set(want)
    for lab, a in want.items():
        assert got[lab] == pytest.approx(a, abs=1e-12)


class TestMultiRegister:
    """Transforms on states of several registers, so rows are grouped by
    the values of the other registers (C08 uses single-register states)."""

    SPECS = (
        RegisterSpec("a", "modq", 1, 3),
        RegisterSpec("x", "modq", 2, 5),
        RegisterSpec("d", "bits", 2),
    )

    def sparse_state(self, seed=5):
        full = init_uniform_full(self.SPECS).labels.tolist()
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(full), size=40, replace=False)
        return random_state(self.SPECS, [full[i] for i in sorted(pick)], seed)

    def test_ufkb_invert_round_trip_noisy(self):
        k = tiny_key(q=11, m=2, kappa=3, a=[[3], [5]], t=[2, 7])
        p = k.params
        st = init_uniform_full(
            (RegisterSpec("b", "modq", 1, p.kappa), RegisterSpec("x", "modq", p.n, p.q))
        )
        g = TruncatedGaussian(p.modulus, 1.83, p.m)
        st = load_gaussian_register(st, RegisterSpec("y", "modq", p.m, p.q), g)
        assert len(st.amps) == 3 * 11 * 9
        fwd = apply_ufkb(st, k)
        assert rows(fwd) != rows(st)
        back = apply_ufkb(fwd, k, invert=True)
        assert rows(back) == rows(st)
        assert back.fidelity(st) == pytest.approx(1.0, abs=1e-12)

    def test_qft_round_trip(self):
        st = self.sparse_state()
        out = apply_qft_q(st, "x")
        back = apply_qft_q(out, "x", inverse=True)
        assert rows(back) == rows(st)
        assert back.fidelity(st) == pytest.approx(1.0, abs=1e-12)

    def test_hadamard_round_trip(self):
        st = self.sparse_state()
        back = apply_hadamard_bits(apply_hadamard_bits(st, "d"), "d")
        assert rows(back) == rows(st)
        assert back.fidelity(st) == pytest.approx(1.0, abs=1e-12)

    def test_qft_matches_per_label_reference(self):
        st = self.sparse_state(seed=6)
        omega = cmath.exp(2j * cmath.pi / 5)
        want = amp_dict(st)
        for col in (1, 2):
            want = ref_dense(want, (col,), 5,
                             lambda new, old: omega ** (new[0] * old[0]) / math.sqrt(5))
        assert_amps_close(amp_dict(apply_qft_q(st, "x")), want)

    def test_hadamard_matches_per_label_reference(self):
        st = self.sparse_state(seed=7)
        want = ref_dense(
            amp_dict(st), (3, 4), 2,
            lambda new, old: (-1) ** sum(u * v for u, v in zip(new, old)) / 2.0,
        )
        assert_amps_close(amp_dict(apply_hadamard_bits(st, "d")), want)


class TestMeasureThreeRegisters:
    SPECS = (
        RegisterSpec("a", "modq", 1, 3),
        RegisterSpec("d", "bits", 2),
        RegisterSpec("c", "modq", 1, 5),
    )

    def entangled(self):
        # sum_{a, c} |a>|bits(a)>|c>: d is a function of a, c is independent.
        labels = [(a, a >> 1, a & 1, c) for a in range(3) for c in range(5)]
        return init_uniform(self.SPECS, labels)

    def test_measure_collapses_and_keeps_rest(self, rng):
        st = self.entangled()
        before = full_distribution(st, ("c",))
        out, collapsed = measure_register(st, "a", rng)
        assert out in {(0,), (1,), (2,)}
        assert {lab[:1] for lab in rows(collapsed)} == {out}
        assert {lab[1:3] for lab in rows(collapsed)} == {(out[0] >> 1, out[0] & 1)}
        assert len(collapsed.amps) == 5
        assert collapsed.norm_sq() == pytest.approx(1.0)
        assert tv_distance(before, full_distribution(collapsed, ("c",))) < 1e-12

    def test_measure_middle_register_marginal(self):
        st = self.entangled()
        rng = np.random.default_rng(9)
        counts = {}
        for _ in range(3000):
            out, _c = measure_register(st, "d", rng)
            counts[out] = counts.get(out, 0) + 1
        assert set(counts) == {(0, 0), (0, 1), (1, 0)}
        assert all(abs(v / 3000 - 1 / 3) < 0.04 for v in counts.values())

    def test_remove_after_measure(self, rng):
        st = self.entangled()
        with pytest.raises(ValueError):
            remove_register(st, "d")  # entangled with a
        out, collapsed = measure_register(st, "a", rng)
        smaller = remove_register(remove_register(collapsed, "d"), "a")
        assert [s.name for s in smaller.specs] == ["c"]
        assert rows(smaller) == {(c,) for c in range(5)}
        assert smaller.norm_sq() == pytest.approx(1.0)

    def test_remove_middle_register(self, rng):
        _out, collapsed = measure_register(self.entangled(), "a", rng)
        smaller = remove_register(collapsed, "d")
        assert [s.name for s in smaller.specs] == ["a", "c"]
        assert smaller.labels.shape == (5, 2)


class TestLabelCap:
    """The cap is checked before a product state or dense block exists."""

    def no_alloc(self, monkeypatch, small_cap):
        monkeypatch.setattr(oracle, "MAX_LABELS", small_cap)

        def refuse(*_args):
            raise AssertionError("allocated past the label cap")

        monkeypatch.setattr(oracle, "_product", refuse)

    def test_init_uniform_full(self, monkeypatch):
        self.no_alloc(monkeypatch, 20)
        with pytest.raises(StateTooLarge):
            init_uniform_full((RegisterSpec("b", "modq", 1, 3), RegisterSpec("x", "modq", 1, 7)))

    def test_load_gaussian(self, monkeypatch):
        st = init_uniform_full((RegisterSpec("b", "modq", 1, 3), RegisterSpec("x", "modq", 1, 7)))
        self.no_alloc(monkeypatch, 50)
        g = TruncatedGaussian(Modulus(7), 1.0, 1)  # 3 support points
        with pytest.raises(StateTooLarge):
            load_gaussian_register(st, RegisterSpec("y", "modq", 1, 7), g)

    def test_dense_block(self, monkeypatch):
        spec = (RegisterSpec("x", "modq", 1, 7), RegisterSpec("d", "bits", 3))
        st = init_uniform(spec, [[v, 1, 0, 1] for v in range(7)])
        monkeypatch.setattr(oracle, "MAX_LABELS", 50)
        with pytest.raises(StateTooLarge):
            apply_hadamard_bits(st, "d")  # 7 groups x 8 values

    def test_constructor(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_LABELS", 6)
        with pytest.raises(StateTooLarge):
            init_uniform((RegisterSpec("x", "modq", 1, 7),), [[v] for v in range(7)])


class TestWideState:
    """A 64-bit register takes the radix product past 2^63, so rows are
    ranked with `np.unique(axis=0)` instead of mixed-radix codes."""

    SPECS = (RegisterSpec("w", "bits", 64), RegisterSpec("x", "modq", 1, 5))

    def state(self):
        # Three 64-bit words, each with two x values; word 0 sets the top bit.
        words = np.random.default_rng(12).integers(0, 2, size=(3, 64))
        words[0, 0] = 1
        labels = [tuple(w) + (x,) for i, w in enumerate(words.tolist()) for x in (i, i + 2)]
        return random_state(self.SPECS, labels, 13)

    def test_full_distribution(self):
        st = self.state()
        d = full_distribution(st, ("w", "x"))
        assert list(d.table) == sorted(d.table)
        want = {lab: abs(a) ** 2 for lab, a in amp_dict(st).items()}
        assert d.table.keys() == want.keys()
        for lab, pr in want.items():
            assert d.table[lab] == pytest.approx(pr, abs=1e-15)

    def test_measure_wide_register(self):
        st = self.state()
        out, collapsed = measure_register(st, "w", np.random.default_rng(0))
        before = amp_dict(st)
        kept = {lab for lab in before if lab[:64] == out}
        assert len(kept) == 2
        assert rows(collapsed) == kept
        norm = math.sqrt(sum(abs(before[lab]) ** 2 for lab in kept))
        for lab, a in amp_dict(collapsed).items():
            assert a == pytest.approx(before[lab] / norm, abs=1e-12)

    def test_qft(self):
        st = self.state()
        omega = cmath.exp(2j * cmath.pi / 5)
        out = apply_qft_q(st, "x")
        want = ref_dense(amp_dict(st), (64,), 5,
                         lambda new, old: omega ** (new[0] * old[0]) / math.sqrt(5))
        assert_amps_close(amp_dict(out), want)
        back = apply_qft_q(out, "x", inverse=True)
        assert rows(back) == rows(st)
        assert back.fidelity(st) == pytest.approx(1.0, abs=1e-12)
