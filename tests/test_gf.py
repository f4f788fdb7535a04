import enum
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nbqc.gf import (
    DEFAULT_PRIMITIVE_POLYS,
    Field,
    NonPrimitivePolyError,
    checked_depth,
    checked_int,
    min_lambda,
)

from oracles import clmul_mod


@pytest.mark.parametrize("r", range(1, 9))
def test_default_fields_build_and_tables_are_bijective(r):
    f = Field(r)
    assert f.q == 2**r
    assert len(f.exp_table) == f.q - 1
    assert f.exp_table[0] == 1
    assert sorted(f.exp_table) == list(range(1, f.q))
    for e, v in enumerate(f.exp_table):
        assert f.log_table[v] == e


def test_gf8_exp_table_has_seven_entries():
    assert len(Field(3).exp_table) == 7


def test_alpha_order_is_q_minus_one():
    f = Field(4)
    order = 1
    x = f.pow_alpha(1)
    acc = x
    while acc != 1:
        acc = f.mul(acc, x)
        order += 1
    assert order == 15


def test_non_primitive_poly_rejected_with_witness():
    # x^4 + x^3 + x^2 + x + 1 divides x^5 - 1, so alpha^5 = 1
    with pytest.raises(NonPrimitivePolyError) as info:
        Field(4, 0b11111)
    assert info.value.witness_order == 5


def test_wrong_degree_poly_rejected():
    with pytest.raises(ValueError):
        Field(4, 0b1011)


class _Code(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize("value, lo, hi, ok", [
    (3, 0, None, True), (np.int64(3), 0, 3, True), (2**80, 1, None, True),
    (3, 3, 3, True), (2, 3, 3, False), (4, 0, 3, False), (-1, 0, None, False),
    (True, 0, None, False), (np.True_, 0, None, False), (1.0, 0, None, False),
    (np.float64(2.0), 0, None, False), ("1", 0, None, False),
    ([1], 0, None, False), (None, 0, None, False),
    # an exact int and every other integer type, each side of the range
    (False, 0, None, False), (np.bool_(False), 0, None, False),
    (np.int32(-1), 0, None, False), (np.uint8(255), 0, 255, True),
    (_Code.TWO, 0, 2, True), (_Code.TWO, 3, None, False),
    (Fraction(2), 0, None, False), (Decimal(2), 0, None, False),
])
def test_checked_int_takes_integers_in_range_only(value, lo, hi, ok):
    if ok:
        assert checked_int(value, "x", lo, hi) is value
    else:
        with pytest.raises(ValueError, match=r"^x .* is not an integer in \["):
            checked_int(value, "x", lo, hi)


@pytest.mark.parametrize("value, ok", [
    (2, True), (12, True), (0, False), (5, False), (-2, False), (4.0, False),
    (True, False),
])
def test_checked_depth_takes_even_integers_from_2(value, ok):
    if ok:
        assert checked_depth(value, "depth") is value
    else:
        with pytest.raises(ValueError, match="^depth "):
            checked_depth(value, "depth")


@pytest.mark.parametrize("r, poly", [(4.0, None), (True, None), (9, None),
                                     (4, 19.0), (4, True), (1, 3.0)])
def test_field_takes_integer_degree_and_polynomial_only(r, poly):
    with pytest.raises(ValueError, match="r |polynomial"):
        Field(r, poly)


def test_poly_divisible_by_x_rejected():
    with pytest.raises(NonPrimitivePolyError):
        Field(4, 0b11110)


@pytest.mark.parametrize("r", range(1, 9))
def test_mul_matches_carryless_oracle_on_sample(r):
    f = Field(r)
    step = max(1, f.q // 16)
    for a in range(0, f.q, step):
        for b in range(0, f.q, step):
            assert f.mul(a, b) == clmul_mod(a, b, f.primitive_poly, r)


def test_mul_matches_carryless_oracle_exhaustive_gf16(gf16):
    for a in range(16):
        for b in range(16):
            assert gf16.mul(a, b) == clmul_mod(a, b, gf16.primitive_poly, 4)


def test_add_is_self_inverse(gf16):
    for x in range(16):
        assert gf16.add(x, x) == 0


def test_exponent_arithmetic_example(gf16):
    assert gf16.mul(gf16.pow_alpha(14), gf16.pow_alpha(5)) == gf16.pow_alpha(4)


def test_alpha_fourth_power_value(gf16):
    # x^4 = x + 1 mod x^4 + x + 1
    assert gf16.pow_alpha(4) == 0b0011


@pytest.mark.parametrize("q", [4, 8, 16, 256])
def test_field_axioms_over_all_pairs(q):
    f = Field(q.bit_length() - 1)
    elems = range(q)
    for a in elems:
        for b in elems:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow_alpha(f.log_alpha(a)) == a


@pytest.mark.parametrize("q", [4, 8, 16])
def test_associativity_distributivity_exhaustive(q):
    f = Field(q.bit_length() - 1)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_associativity_distributivity_gf256(a, b, c):
    f = Field(8)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_inv_and_log_of_zero_raise(gf16):
    with pytest.raises(ZeroDivisionError):
        gf16.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf16.log_alpha(0)


@given(st.integers(-(10**9), 10**9))
def test_pow_alpha_reduces_mod_q_minus_one(e):
    f = Field(5)
    assert f.pow_alpha(e) == f.pow_alpha(e % 31)


@pytest.mark.parametrize(
    "q,Z,expected",
    [(16, 9, 5), (8, 21, 1), (16, 15, 1), (2, 7, 1), (256, 10, 51)],
)
def test_min_lambda_examples(q, Z, expected):
    lam = min_lambda(q, Z)
    assert lam == expected
    assert (lam * Z) % (q - 1 if q > 1 else 1) == 0


@given(
    st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]),
    st.integers(1, 200),
)
def test_min_lambda_is_minimal_by_scan(q, Z):
    lam = min_lambda(q, Z)
    assert (lam * Z) % (q - 1) == 0
    for smaller in range(1, lam):
        assert (smaller * Z) % (q - 1) != 0


def test_default_polys_cover_supported_range():
    assert sorted(DEFAULT_PRIMITIVE_POLYS) == list(range(1, 9))


def test_gf2_degenerate_field(gf2):
    assert gf2.q == 2
    assert gf2.pow_alpha(0) == 1
    assert gf2.pow_alpha(12345) == 1
    assert gf2.mul(1, 1) == 1
    assert gf2.inv(1) == 1


def test_mul_table_matches_mul(gf8):
    t = gf8.mul_table
    assert not t.flags.writeable
    for a in range(8):
        for b in range(8):
            assert t[a, b] == gf8.mul(a, b)
