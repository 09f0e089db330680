import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntcfk.gaussian import (
    Density,
    TableTooLarge,
    TruncatedGaussian,
    hellinger_shift_bound,
    hellinger_sq,
    shifted_density,
    trace_distance_from_h2,
    tv_distance,
)
from ntcfk.zq import Modulus, ZqVector


def gauss(q, B, m):
    return TruncatedGaussian(Modulus(q), B, m)


def vec(entries, q):
    return ZqVector(np.array(entries, dtype=np.int64), Modulus(q))


class TestDensityEval:
    def test_outside_support_is_zero(self):
        g = gauss(7, 1.0, 2)
        assert g.density_eval(vec([2, 0], 7)) == 0.0

    def test_zero_is_mode(self):
        g = gauss(7, 10.0, 1)
        p0 = g.density_eval(vec([0], 7))
        assert all(g.density_eval(vec([r], 7)) <= p0 for r in range(7))

    def test_1d_table_values(self):
        # lifts {-1, 0, 1} weighted {e^-pi, 1, e^-pi}
        g = gauss(7, 1.0, 1)
        z = 1.0 + 2.0 * math.exp(-math.pi)
        assert g.density_eval(vec([0], 7)) == pytest.approx(1.0 / z, abs=1e-15)
        assert g.density_eval(vec([1], 7)) == pytest.approx(math.exp(-math.pi) / z, abs=1e-15)
        assert g.density_eval(vec([6], 7)) == pytest.approx(math.exp(-math.pi) / z, abs=1e-15)

    def test_table_sums_to_one(self):
        for q, B, m in ((7, 1.0, 1), (17, 2.5, 2), (97, 5.0, 2)):
            t = gauss(q, B, m).table()
            assert sum(t.table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_table_cap(self):
        with pytest.raises(TableTooLarge):
            gauss(521, 100.0, 4).table(cap=1000)


class TestSampling:
    def test_tiny_width_pins_zero(self, rng):
        g = gauss(7, 0.5, 3)
        for _ in range(20):
            assert g.sample(rng) == vec([0, 0, 0], 7)

    def test_deterministic_under_seed(self):
        g = gauss(17, 3.0, 4)
        a = [g.sample(np.random.default_rng(5)).as_tuple() for _ in range(10)]
        b = [g.sample(np.random.default_rng(5)).as_tuple() for _ in range(10)]
        assert a == b

    def test_frequencies_match_density(self):
        g = gauss(7, 1.0, 1)
        r = np.random.default_rng(99)
        n = 100_000
        draws = [g.sample(r).as_tuple()[0] for _ in range(n)]
        freq0 = draws.count(0) / n
        assert freq0 == pytest.approx(g.density_eval(vec([0], 7)), abs=0.01)


class TestDensityValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            Density({(0,): bad, (1,): 0.5})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Density({(0,): -0.25, (1,): 1.25})

    def test_sum_off_by_1e9_rejected(self):
        with pytest.raises(ValueError):
            Density({(0,): 0.5, (1,): 0.5 + 1e-9})

    @pytest.mark.parametrize("q,B,m", [(7, 0.5, 1), (11, 1.83, 4), (17, 3.0, 2), (521, 4.0, 2)])
    def test_tables_construct(self, q, B, m):
        g = gauss(q, B, m)
        assert len(g.table().table) == g.support_size()
        assert len(shifted_density(g, vec([3] * m, q)).table) == g.support_size()


class TestDistances:
    def test_h2_identical(self):
        d = Density({(0,): 0.5, (1,): 0.5})
        assert hellinger_sq(d, d) == pytest.approx(0.0, abs=1e-15)

    def test_h2_disjoint(self):
        a = Density({(0,): 1.0})
        b = Density({(1,): 1.0})
        assert hellinger_sq(a, b) == pytest.approx(1.0)

    def test_h2_uniform_vs_point(self):
        a = Density({(0,): 0.5, (1,): 0.5})
        b = Density({(0,): 1.0})
        assert hellinger_sq(a, b) == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-15)

    def test_h2_symmetric(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            r = rng.dirichlet(np.ones(4))
            a = Density({(i,): float(v) for i, v in enumerate(p)})
            b = Density({(i,): float(v) for i, v in enumerate(r)})
            assert hellinger_sq(a, b) == pytest.approx(hellinger_sq(b, a), abs=1e-14)

    def test_tv_identical_and_disjoint(self):
        a = Density({(0,): 1.0})
        b = Density({(1,): 1.0})
        assert tv_distance(a, a) == 0.0
        assert tv_distance(a, b) == pytest.approx(1.0)

    def test_tv_uniform_vs_point(self):
        a = Density({(0,): 0.5, (1,): 0.5})
        b = Density({(0,): 1.0})
        assert tv_distance(a, b) == pytest.approx(0.5)

    def test_tv_triangle(self, rng):
        for _ in range(30):
            ds = []
            for _ in range(3):
                p = rng.dirichlet(np.ones(5))
                ds.append(Density({(i,): float(v) for i, v in enumerate(p)}))
            a, b, c = ds
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12

    def test_trace_distance_endpoints(self):
        assert trace_distance_from_h2(0.0) == 0.0
        assert trace_distance_from_h2(1.0) == pytest.approx(1.0)
        assert trace_distance_from_h2(0.5) == pytest.approx(math.sqrt(3) / 2)

    def test_trace_distance_domain(self):
        with pytest.raises(ValueError):
            trace_distance_from_h2(1.5)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_trace_distance_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert trace_distance_from_h2(lo) <= trace_distance_from_h2(hi) + 1e-15


class TestShifts:
    def test_zero_shift_identity(self):
        g = gauss(17, 2.0, 2)
        assert shifted_density(g, vec([0, 0], 17)).table == g.table().table

    def test_shift_and_unshift(self):
        g = gauss(17, 2.0, 1)
        once = shifted_density(g, vec([3], 17))
        back = Density({((p[0] - 3) % 17,): v for p, v in once.table.items()})
        assert back.table == pytest.approx(g.table().table)

    def test_mode_relocates(self):
        g = gauss(17, 2.0, 2)
        d = shifted_density(g, vec([5, 9], 17))
        assert max(d.table, key=d.table.get) == (5, 9)

    def test_bound_zero_shift(self):
        assert hellinger_shift_bound(5.0, 2, 0.0) == 0.0

    def test_bound_monotone(self):
        vals = [hellinger_shift_bound(5.0, 2, s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals)

    def test_exact_h2_below_bound_q97(self):
        # exhaustive over all shifts with ||e|| <= B sqrt(m) at q=97, m=2
        q, B, m = 97, 5.0, 2
        g = gauss(q, B, m)
        base = g.table()
        limit = B * math.sqrt(m)
        checked = 0
        for e1 in range(-10, 11):
            for e2 in range(-10, 11):
                norm = math.hypot(e1, e2)
                if norm > limit:
                    continue
                shifted = shifted_density(g, vec([e1, e2], q))
                h2 = hellinger_sq(base, shifted)
                assert h2 <= hellinger_shift_bound(B, m, norm) + 1e-10
                # Eq. 7 consequence for the same pair
                tv = tv_distance(base, shifted)
                assert tv * tv <= 2.0 * hellinger_shift_bound(B, m, norm) + 1e-10
                checked += 1
        assert checked > 150  # lattice points in the radius-7.07 disk
