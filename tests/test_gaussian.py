import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import density
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
from ntcfk.zq import lift_residues, row_codes


def gauss(q, B, m):
    return TruncatedGaussian(q, B, m)


def vec(entries, q):
    return np.array(entries, dtype=np.int64) % q


def tv_reference(t0, t1):
    """TV over {point: prob} dicts, one term per point of either table."""
    diffs = [abs(p - t1.get(x, 0.0)) for x, p in t0.items()]
    diffs += [p for x, p in t1.items() if x not in t0]
    return min(max(0.5 * math.fsum(diffs), 0.0), 1.0)


def h2_reference(t0, t1):
    """H^2 over {point: prob} dicts, one term per shared point."""
    common = t0.keys() & t1.keys()
    return min(max(1.0 - math.fsum(math.sqrt(t0[x] * t1[x]) for x in common), 0.0), 1.0)


@st.composite
def density_pairs(draw):
    """Two {point: prob} tables over one pool of points, so their supports
    partly overlap. Width 70 with bit coordinates has 2^70 > 2^63 rows, so
    the row codes fall back to ranks; its points differ in the first and
    the last two columns only. "mixed" gives f1 one more column than f0,
    so no point is shared."""
    width = draw(st.sampled_from([1, 3, 70, "mixed"]))
    if width == 70:
        bits = st.tuples(*[st.integers(0, 1)] * 4)
        point = bits.map(lambda b: b[:2] + (0,) * 66 + b[2:])
    else:
        point = st.tuples(*[st.integers(0, 4)] * (2 if width == "mixed" else width))
    pool = draw(st.lists(point, min_size=1, max_size=12, unique=True))
    tables = []
    for _ in range(2):
        support = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        weights = draw(
            st.lists(st.floats(0.0, 1.0), min_size=len(support), max_size=len(support))
        )
        total = sum(weights)
        if total == 0.0:
            weights, total = [1.0] * len(support), float(len(support))
        tables.append({x: w / total for x, w in zip(support, weights)})
    t0, t1 = tables
    if width == "mixed":
        t1 = {x + (0,): p for x, p in t1.items()}
    return t0, t1


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
            gauss(521, 100.0, 4).table()


class TestResidueProbs:
    @pytest.mark.parametrize("q,B", [(7, 1.0), (8, 10.0), (16, 3.5), (97, 5.0)])
    def test_matches_support(self, q, B):
        """Sums to 1, is 0 exactly outside the radius (odd and even q) and
        equals the dim-1 support table and `density_eval`."""
        g = gauss(q, B, 1)
        probs = g.residue_probs()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        inside = np.abs(lift_residues(np.arange(q), q)) <= g.radius
        assert (probs[~inside] == 0.0).all() and (probs[inside] > 0.0).all()
        points, expect = g.support_arrays()
        assert np.array_equal(probs[points[:, 0]], expect)
        assert [g.density_eval(vec([r], q)) for r in range(q)] == probs.tolist()


class TestSampling:
    def test_tiny_width_pins_zero(self, rng):
        g = gauss(7, 0.5, 3)
        for _ in range(20):
            assert np.array_equal(g.sample(rng), vec([0, 0, 0], 7))

    def test_deterministic_under_seed(self):
        g = gauss(17, 3.0, 4)
        a = [tuple(g.sample(np.random.default_rng(5)).tolist()) for _ in range(10)]
        b = [tuple(g.sample(np.random.default_rng(5)).tolist()) for _ in range(10)]
        assert a == b

    def test_cached_table_is_read_only(self):
        lifts, probs, cdf = gauss(521, 3.07, 40)._table_1d()
        assert np.array_equal(cdf, np.cumsum(probs))
        for a in (lifts, probs, cdf):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_frequencies_match_density(self):
        g = gauss(7, 1.0, 1)
        r = np.random.default_rng(99)
        n = 100_000
        draws = [tuple(g.sample(r).tolist())[0] for _ in range(n)]
        freq0 = draws.count(0) / n
        assert freq0 == pytest.approx(g.density_eval(vec([0], 7)), abs=0.01)


class TestDensityValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            density({(0,): bad, (1,): 0.5})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            density({(0,): -0.25, (1,): 1.25})

    def test_sum_off_by_1e9_rejected(self):
        with pytest.raises(ValueError):
            density({(0,): 0.5, (1,): 0.5 + 1e-9})

    @pytest.mark.parametrize(
        "points,probs",
        [
            ([[2, 1], [0, 3], [2, 1]], [0.25, 0.5, 0.25]),
            ([[0, 1], [-1, 3]], [0.5, 0.5]),
            ([[0, 1], [2**63 - 1, 3]], [0.5, 0.5]),
            ([[0], [1]], [1.0]),
            ([[0], [1], [2]], [0.5, 0.5]),
            ([[0.0], [1.0]], [0.5, 0.5]),
            ([0, 1], [0.5, 0.5]),
        ],
        ids=["repeated-row", "negative-coordinate", "huge-coordinate", "fewer-probs",
             "more-points", "float-points", "points-not-a-matrix"],
    )
    def test_bad_arrays_rejected(self, points, probs):
        with pytest.raises(ValueError):
            Density(np.array(points), np.array(probs))

    @pytest.mark.parametrize("q,B,m", [(7, 0.5, 1), (11, 1.83, 4), (17, 3.0, 2), (521, 4.0, 2)])
    def test_tables_construct(self, q, B, m):
        g = gauss(q, B, m)
        assert len(g.table().table) == g.support_size()
        assert len(shifted_density(g, vec([3] * m, q)).table) == g.support_size()


class TestDistances:
    def test_h2_identical(self):
        d = density({(0,): 0.5, (1,): 0.5})
        assert hellinger_sq(d, d) == pytest.approx(0.0, abs=1e-15)

    def test_h2_disjoint(self):
        a = density({(0,): 1.0})
        b = density({(1,): 1.0})
        assert hellinger_sq(a, b) == pytest.approx(1.0)

    def test_h2_uniform_vs_point(self):
        a = density({(0,): 0.5, (1,): 0.5})
        b = density({(0,): 1.0})
        assert hellinger_sq(a, b) == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-15)

    def test_h2_symmetric(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            r = rng.dirichlet(np.ones(4))
            a = density({(i,): float(v) for i, v in enumerate(p)})
            b = density({(i,): float(v) for i, v in enumerate(r)})
            assert hellinger_sq(a, b) == pytest.approx(hellinger_sq(b, a), abs=1e-14)

    def test_tv_identical_and_disjoint(self):
        a = density({(0,): 1.0})
        b = density({(1,): 1.0})
        assert tv_distance(a, a) == 0.0
        assert tv_distance(a, b) == pytest.approx(1.0)

    def test_tv_uniform_vs_point(self):
        a = density({(0,): 0.5, (1,): 0.5})
        b = density({(0,): 1.0})
        assert tv_distance(a, b) == pytest.approx(0.5)

    def test_tv_triangle(self, rng):
        for _ in range(30):
            ds = []
            for _ in range(3):
                p = rng.dirichlet(np.ones(5))
                ds.append(density({(i,): float(v) for i, v in enumerate(p)}))
            a, b, c = ds
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12

    @given(density_pairs())
    @settings(max_examples=150)
    def test_distances_equal_dict_formulas(self, pair):
        t0, t1 = pair
        f0, f1 = density(t0), density(t1)
        assert tv_distance(f0, f1) == tv_reference(t0, t1)
        assert tv_distance(f1, f0) == tv_reference(t1, t0)
        assert hellinger_sq(f0, f1) == h2_reference(t0, t1)
        assert hellinger_sq(f1, f0) == h2_reference(t1, t0)
        if len(next(iter(t0))) != len(next(iter(t1))):
            assert hellinger_sq(f0, f1) == 1.0
            assert tv_distance(f0, f1) == pytest.approx(1.0)

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
        back = density({((p[0] - 3) % 17,): v for p, v in once.table.items()})
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


# Point sets for the order invariant: residues of width 3, and bit rows of
# width 70 (2^70 > 2^63, so the codes fall back to ranks).
ORDER_CASES = {
    "digits": np.array([[q, r, s] for q in (0, 4) for r in (1, 3) for s in (2, 0, 5)]),
    "ranks": np.array([[a, b] + [0] * 66 + [c, d]
                       for a, b, c, d in itertools.product((0, 1), repeat=4)]),
}


class TestDensityOrder:
    @pytest.mark.parametrize("case", sorted(ORDER_CASES))
    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_rows_come_out_sorted(self, case, seed):
        points = ORDER_CASES[case]
        probs = np.random.default_rng(seed).dirichlet(np.ones(len(points)))
        perm = np.random.default_rng(seed + 100).permutation(len(points))
        want = dict(zip(map(tuple, points.tolist()), probs.tolist()))
        d = Density(points[perm], probs[perm])
        assert d.points.tolist() == sorted(d.points.tolist())
        assert d.table == want

    @pytest.mark.parametrize("case", sorted(ORDER_CASES))
    def test_repeated_row_raises_anywhere(self, case):
        points = ORDER_CASES[case]
        probs = np.full(len(points) + 1, 1.0 / (len(points) + 1))
        for src in (0, len(points) // 2, len(points) - 1):
            for at in range(len(points) + 1):
                repeated = np.insert(points, at, points[src], axis=0)
                with pytest.raises(ValueError, match="repeated point"):
                    Density(repeated, probs)


class TestDensityFromSorted:
    """Rows a caller has coded and sorted come in with their codes; every
    check but the coding itself still runs."""

    POINTS = np.array([[0, 1], [0, 4], [2, 0], [3, 3]])
    PROBS = np.array([0.1, 0.2, 0.3, 0.4])

    def codes(self, points, radix):
        return row_codes(points, np.full(points.shape[1], radix, dtype=np.int64))

    def test_matches_the_constructor(self):
        d = Density.from_sorted(self.POINTS, self.PROBS, 5, self.codes(self.POINTS, 5))
        ref = Density(self.POINTS, self.PROBS)
        assert d.table == ref.table
        assert d._radix == 5 == ref._radix
        assert np.array_equal(d._codes, ref._codes)
        assert tv_distance(d, ref) == 0.0

    def test_a_larger_radix_pairs_with_the_constructor(self):
        d = Density.from_sorted(self.POINTS, self.PROBS, 7, self.codes(self.POINTS, 7))
        ref = Density(self.POINTS, self.PROBS)
        assert tv_distance(d, ref) == 0.0
        assert hellinger_sq(d, ref) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "points,probs,radix",
        [
            (POINTS[[1, 0, 2, 3]], PROBS, 5),
            (POINTS[[0, 0, 2, 3]], PROBS, 5),
            (POINTS, PROBS, 4),
            (POINTS - 1, PROBS, 5),
            (POINTS, PROBS, 2**31 + 1),
            (POINTS, PROBS * 1.1, 5),
            (POINTS, np.array([-0.1, 0.3, 0.4, 0.4]), 5),
            (POINTS[:3], PROBS, 5),
        ],
        ids=["out-of-order", "repeated", "coordinate-at-radix", "negative-coordinate",
             "radix-past-2^31", "sum-off", "negative-prob", "fewer-points"],
    )
    def test_bad_input_rejected(self, points, probs, radix):
        with pytest.raises(ValueError):
            Density.from_sorted(points, probs, radix, self.codes(points, min(radix, 2**31)))
