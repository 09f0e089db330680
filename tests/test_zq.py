import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntcfk.zq import (
    BitString,
    DimensionError,
    Modulus,
    ZqVector,
    bit_dot_xor,
    centered_lift,
    euclidean_norm,
    j_decode,
    j_encode,
    lift_residues,
    mat_vec_mul,
)


def vec(entries, q):
    return ZqVector(np.array(entries, dtype=np.int64), Modulus(q))


def mat(entries, q):
    return np.array(entries, dtype=np.int64) % q


class TestModulus:
    def test_bits(self):
        assert Modulus(7).bits == 3
        assert Modulus(8).bits == 3
        assert Modulus(521).bits == 10
        assert Modulus(2).bits == 1

    def test_primality(self):
        assert Modulus(521).is_prime
        assert Modulus(2).is_prime
        assert not Modulus(8).is_prime
        assert not Modulus(91).is_prime  # 7 * 13

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            Modulus(1)
        with pytest.raises(ValueError):
            Modulus(2**31)


class TestMatVecMul:
    def test_identity(self):
        A = mat(np.eye(3, dtype=np.int64), 7)
        x = vec([1, 5, 6], 7)
        assert mat_vec_mul(A, x) == x

    def test_zero_matrix(self):
        A = mat([[0, 0], [0, 0]], 7)
        assert mat_vec_mul(A, vec([3, 4], 7)) == vec([0, 0], 7)

    def test_hand_value(self):
        # 2*3 + 3*4 = 18 = 4 mod 7
        A = mat([[2, 3]], 7)
        assert mat_vec_mul(A, vec([3, 4], 7)) == vec([4], 7)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mat_vec_mul(mat([[1, 2]], 7), vec([1], 7))

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
    def test_linearity(self, a, b, c, d):
        A = mat([[2, 3], [5, 1]], 7)
        x, y = vec([a, b], 7), vec([c, d], 7)
        assert mat_vec_mul(A, x + y) == mat_vec_mul(A, x) + mat_vec_mul(A, y)


class TestCenteredLift:
    def test_negative_side(self):
        assert list(centered_lift(vec([6], 7))) == [-1]

    def test_even_boundary_included(self):
        assert list(centered_lift(vec([4], 8))) == [4]

    def test_zero(self):
        assert list(centered_lift(vec([0, 0, 0], 7))) == [0, 0, 0]

    def test_array_lift_2d(self):
        a = np.array([[0, 3, 4], [5, 7, 1]], dtype=np.int64)
        assert lift_residues(a, 8).tolist() == [[0, 3, 4], [-3, -1, 1]]

    def test_bijection(self):
        for q in (7, 8, 13):
            lifts = {int(centered_lift(vec([r], q))[0]) for r in range(q)}
            assert len(lifts) == q
            assert all(-q / 2 < v <= q / 2 for v in lifts)


class TestNorm:
    def test_zero(self):
        assert euclidean_norm(vec([0, 0], 7)) == 0.0

    def test_wraparound(self):
        assert euclidean_norm(vec([6, 1], 7)) == pytest.approx(math.sqrt(2))

    def test_mixed(self):
        assert euclidean_norm(vec([5, 12], 13)) == pytest.approx(math.sqrt(26))

    def test_negation_symmetric(self):
        for q in (7, 13):
            for r in range(q):
                x = vec([r], q)
                assert euclidean_norm(x) == pytest.approx(euclidean_norm(-x))


class TestJ:
    def test_msb_first(self):
        assert j_encode(vec([5], 8)).bits == (1, 0, 1)

    def test_zero(self):
        assert j_encode(vec([0, 0], 8)).bits == (0,) * 6

    def test_round_trip_exhaustive(self):
        for q in (3, 7, 8, 13, 16):
            mod = Modulus(q)
            for n in (1, 2):
                for entries in itertools.product(range(q), repeat=n):
                    x = vec(list(entries), q)
                    assert j_decode(j_encode(x), mod, n) == x

    def test_decode_rejects_overflow(self):
        # block (1,1,1) = 7 >= q = 7
        with pytest.raises(ValueError):
            j_decode(BitString((1, 1, 1)), Modulus(7), 1)

    def test_decode_length_check(self):
        with pytest.raises(DimensionError):
            j_decode(BitString((1, 0)), Modulus(7), 1)


class TestBitDotXor:
    def test_equal_strings(self):
        u = BitString((1, 0, 1))
        for bits in itertools.product((0, 1), repeat=3):
            assert bit_dot_xor(BitString(bits), u, u) == 0

    def test_zero_d(self):
        d = BitString((0, 0, 0))
        assert bit_dot_xor(d, BitString((1, 0, 1)), BitString((0, 1, 1))) == 0

    def test_hand_value(self):
        d = BitString((1, 1, 0))
        u = BitString((1, 0, 1))
        v = BitString((0, 0, 1))
        assert bit_dot_xor(d, u, v) == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            bit_dot_xor(BitString((1,)), BitString((1, 0)), BitString((0, 1)))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_linear_in_d(self, bits):
        # d . (u ^ v) equals parity of selected differing positions
        u = BitString(tuple(1 - b for b in bits))
        v = BitString(tuple(bits))
        d = BitString(tuple(bits))
        expect = sum(b * ((1 - b) ^ b) for b in bits) % 2
        assert bit_dot_xor(d, u, v) == expect
