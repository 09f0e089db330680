import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntcfk.zq import (
    DimensionError,
    bit_width,
    equation_bit,
    euclidean_norm,
    is_prime,
    j_decode,
    j_encode,
    lift_residues,
    mat_vec_add_mod,
    mat_vec_mul,
    row_codes,
    sort_codes,
)


def vec(entries, q):
    return np.array(entries, dtype=np.int64) % q


def bits(values):
    return np.array(values, dtype=np.int64)


def from_bits(b):
    """The residue whose J block is the bit string b, most significant first."""
    return int("".join(map(str, b)), 2)


def mat(entries, q):
    return np.array(entries, dtype=np.int64) % q


class TestModulus:
    def test_bits(self):
        assert bit_width(7) == 3
        assert bit_width(8) == 3
        assert bit_width(521) == 10
        assert bit_width(2) == 1

    def test_primality(self):
        assert is_prime(521)
        assert is_prime(2)
        assert not is_prime(8)
        assert not is_prime(91)  # 7 * 13

    def test_range_enforced(self):
        with pytest.raises(ValueError, match=r"modulus must be in \[2, 2\^31\), got 1$"):
            bit_width(1)
        with pytest.raises(ValueError, match=r"modulus must be in \[2, 2\^31\), got 2147483648$"):
            bit_width(2**31)


class TestMatVecMul:
    def test_identity(self):
        A = mat(np.eye(3, dtype=np.int64), 7)
        x = vec([1, 5, 6], 7)
        assert np.array_equal(mat_vec_mul(A, x, 7), x)

    def test_zero_matrix(self):
        A = mat([[0, 0], [0, 0]], 7)
        assert np.array_equal(mat_vec_mul(A, vec([3, 4], 7), 7), vec([0, 0], 7))

    def test_hand_value(self):
        # 2*3 + 3*4 = 18 = 4 mod 7
        A = mat([[2, 3]], 7)
        assert np.array_equal(mat_vec_mul(A, vec([3, 4], 7), 7), vec([4], 7))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat_vec_mul(mat([[1, 2]], 7), vec([1], 7), 7)

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    def test_linearity(self, a, b, c, d):
        A = mat([[2, 3], [5, 1]], 7)
        x, y = vec([a, b], 7), vec([c, d], 7)
        assert np.array_equal(mat_vec_mul(A, (x + y) % 7, 7),
                              (mat_vec_mul(A, x, 7) + mat_vec_mul(A, y, 7)) % 7)

    @pytest.mark.parametrize("q,cols", [(7, 3), (2**31 - 1, 1), (2**31 - 1, 4)])
    def test_matches_python_integers(self, q, cols):
        # (2^31 - 1, 4): sums of unreduced products would overflow int64
        rng = np.random.default_rng(q + cols)
        A = rng.integers(q - 3, q, size=(5, cols), dtype=np.int64)
        X = rng.integers(q - 3, q, size=(2, cols), dtype=np.int64)
        want = [[sum(int(a) * int(x) for a, x in zip(row, xs)) % q for row in A.tolist()]
                for xs in X.tolist()]
        assert mat_vec_mul(A, X, q).tolist() == want
        assert mat_vec_mul(A, X[0], q).tolist() == want[0]


class TestMatVecAddMod:
    """Y +- A x mod q against Python integers, with residues near q - 1 so
    that products and sums are as large as they get. For each column
    count the first q is the largest whose float64 sums stay below 2^53;
    at the second the int64 path runs."""

    @pytest.mark.parametrize("cols,q,exact", [
        (1, 94906266, True), (1, 94906267, False), (2, 67108864, True),
        (2, 67108865, False), (4, 47453133, True), (4, 47453134, False),
        (3, 2**31 - 1, False), (3, 7, True),
    ])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_python_integers(self, cols, q, exact, sign):
        assert (cols * (q - 1) ** 2 + q < 2**53) == exact
        rng = np.random.default_rng(q + cols)
        A = rng.integers(max(q - 3, 0), q, size=(5, cols), dtype=np.int64)
        X = rng.integers(max(q - 3, 0), q, size=(6, cols), dtype=np.int64)
        X[0] = 0
        Y = rng.integers(max(q - 3, 0), q, size=(6, 5), dtype=np.int64)
        Y[1] = 0
        want = [[(y + sign * sum(a * x for a, x in zip(row, xs))) % q
                 for row, y in zip(A.tolist(), ys)] for xs, ys in zip(X.tolist(), Y.tolist())]
        got = mat_vec_add_mod(A, X, Y, q, sign)
        assert got.dtype == np.int64 and got.tolist() == want

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat_vec_add_mod(mat([[1, 2]], 7), vec([1], 7), vec([0], 7), 7)


class TestCenteredLift:
    def test_negative_side(self):
        assert list(lift_residues(vec([6], 7), 7)) == [-1]

    def test_even_boundary_included(self):
        assert list(lift_residues(vec([4], 8), 8)) == [4]

    def test_zero(self):
        assert list(lift_residues(vec([0, 0, 0], 7), 7)) == [0, 0, 0]

    def test_array_lift_2d(self):
        a = np.array([[0, 3, 4], [5, 7, 1]], dtype=np.int64)
        assert lift_residues(a, 8).tolist() == [[0, 3, 4], [-3, -1, 1]]

    def test_bijection(self):
        for q in (7, 8, 13):
            lifts = {int(lift_residues(vec([r], q), q)[0]) for r in range(q)}
            assert len(lifts) == q
            assert all(-q / 2 < v <= q / 2 for v in lifts)


class TestNorm:
    def test_zero(self):
        assert euclidean_norm(vec([0, 0], 7), 7) == 0.0

    def test_wraparound(self):
        assert euclidean_norm(vec([6, 1], 7), 7) == pytest.approx(math.sqrt(2))

    def test_mixed(self):
        assert euclidean_norm(vec([5, 12], 13), 13) == pytest.approx(math.sqrt(26))

    def test_negation_symmetric(self):
        for q in (7, 13):
            for r in range(q):
                x = vec([r], q)
                assert euclidean_norm(x, q) == pytest.approx(euclidean_norm(-x % q, q))


class TestJ:
    def test_msb_first(self):
        assert tuple(j_encode(vec([5], 8), 8).tolist()) == (1, 0, 1)

    def test_zero(self):
        assert tuple(j_encode(vec([0, 0], 8), 8).tolist()) == (0,) * 6

    def test_round_trip_exhaustive(self):
        for q in (3, 7, 8, 13, 16):
            for n in (1, 2):
                for entries in itertools.product(range(q), repeat=n):
                    x = vec(list(entries), q)
                    assert np.array_equal(j_decode(j_encode(x, q), q, n), x)

    def test_decode_rejects_overflow(self):
        # block (1,1,1) = 7 >= q = 7
        with pytest.raises(ValueError):
            j_decode(bits((1, 1, 1)), 7, 1)

    def test_decode_length_check(self):
        with pytest.raises(DimensionError):
            j_decode(bits((1, 0)), 7, 1)


class TestBitDotXor:
    """d . (u xor v) mod 2 for bit strings u, v of one block each, through
    `equation_bit` on the residues mod 2^w whose J blocks they are."""

    def test_equal_strings(self):
        u = from_bits((1, 0, 1))
        for d in itertools.product((0, 1), repeat=3):
            assert equation_bit(bits(d), vec([u], 8), vec([u], 8), 8) == 0

    def test_zero_d(self):
        d = bits((0, 0, 0))
        u, v = vec([from_bits((1, 0, 1))], 8), vec([from_bits((0, 1, 1))], 8)
        assert equation_bit(d, u, v, 8) == 0

    def test_hand_value(self):
        d = bits((1, 1, 0))
        u = vec([from_bits((1, 0, 1))], 8)
        v = vec([from_bits((0, 0, 1))], 8)
        assert equation_bit(d, u, v, 8) == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            equation_bit(bits((1,)), vec([2], 4), vec([1], 4), 4)
        with pytest.raises(DimensionError):
            equation_bit(bits((1, 0)), vec([2], 4), vec([1, 0], 4), 4)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_linear_in_d(self, b):
        # d . (u ^ v) equals parity of selected differing positions
        q = 2 ** len(b)
        u = vec([from_bits([1 - x for x in b])], q)
        v = vec([from_bits(b)], q)
        expect = sum(x * ((1 - x) ^ x) for x in b) % 2
        assert equation_bit(bits(b), u, v, q) == expect


def _j_reference(x, q):
    """J one bit at a time: each coordinate's ceil(log2 q) bits, most
    significant first."""
    w = bit_width(q)
    return [(int(v) >> (w - 1 - i)) & 1 for v in x for i in range(w)]


def _equation_bit_reference(d, x_bar0, x_bar1, q):
    """sum_i d_i * (u_i xor v_i) mod 2 with u = J(x_bar0), v = J(x_bar1)."""
    acc = 0
    for di, ui, vi in zip(d, _j_reference(x_bar0, q), _j_reference(x_bar1, q)):
        acc ^= di & (ui ^ vi)
    return acc


@pytest.mark.parametrize("q,n", [(7, 1), (8, 1), (3, 2)])
def test_equation_bit_matches_definition(q, n):
    """Every x_bar0, x_bar1 in Z_q^n and every d of the matching length,
    odd and even q, against the scalar definition."""
    w = bit_width(q)
    xs = [vec(x, q) for x in itertools.product(range(q), repeat=n)]
    ds = [bits(d) for d in itertools.product((0, 1), repeat=n * w)]
    for x0 in xs:
        for x1 in xs:
            for d in ds:
                assert equation_bit(d, x0, x1, q) == _equation_bit_reference(d, x0, x1, q)
    with pytest.raises(DimensionError):
        equation_bit(ds[1][:-1], xs[0], xs[1], q)


@pytest.mark.parametrize("radices", [[11, 2, 5], [2**40, 2**40, 3]], ids=["digits", "ranks"])
def test_row_codes_of_selected_columns(radices):
    """With `cols`, the codes are those of the selected columns' copy."""
    rng = np.random.default_rng(4)
    rows = rng.integers(0, 3, size=(40, 5))
    cols = np.array([4, 0, 2])
    radices = np.array(radices, dtype=np.int64)
    assert np.array_equal(row_codes(rows, radices, cols), row_codes(rows[:, cols], radices))


class TestSortCodes:
    """Packed or not, the order sorts the codes and the codes come out
    sorted, repeats included."""

    @pytest.mark.parametrize(
        "radices",
        [[11] * 6, [2] * 62, [3, 1, 5], [2] * 70],
        ids=["packed", "argsort-fallback", "unit-radix", "ranks"],
    )
    @pytest.mark.parametrize("count", [0, 1, 2, 257])
    def test_matches_argsort(self, radices, count):
        radices = np.array(radices, dtype=np.int64)
        rng = np.random.default_rng(count)
        rows = rng.integers(0, radices, size=(count, len(radices)))
        rows = np.vstack([rows, rows[: count // 3]])  # repeated rows
        codes = row_codes(rows, radices)
        order, got = sort_codes(codes, radices)
        assert np.array_equal(got, np.sort(codes))
        assert np.array_equal(codes[order], got)
        assert sorted(order.tolist()) == list(range(len(codes)))
