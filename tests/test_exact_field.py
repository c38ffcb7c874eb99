"""Exact-order arithmetic: reduction, trace, the closed-form inverses and twist powers,
checked against the matrix path of conftest (norm, adjugate inverse, signed power)."""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, workprec

import cubicthue.exact_field as ef
from cubicthue.errors import MismatchedParameters
from cubicthue.roots import compute_roots
from conftest import (embed, field_sum, invert_unit, multiplication_matrix, norm, power,
                      root_values)

small_ints = st.integers(min_value=-50, max_value=50)
small_n = st.integers(min_value=0, max_value=30)


def elem(n, c0, c1, c2):
    return ef.FieldInt(n, c0, c1, c2)


def test_lam0_cubed_reduces():
    # lam0 * lam0^2 = 1 + (n+2) lam0 + (n-1) lam0^2
    for n in (0, 1, 2, 7, 100):
        prod = ef.reduce_mul(ef.lam0(n), elem(n, 0, 0, 1))
        assert (prod.c0, prod.c1, prod.c2) == (1, n + 2, n - 1)


def test_multiplicative_identity():
    a = elem(9, 3, -4, 11)
    assert ef.reduce_mul(ef.one(9), a) == a


def test_square_without_reduction():
    # (lam0 + 1)^2 at n = 2 needs no reduction
    a = elem(2, 1, 1, 0)
    assert ef.reduce_mul(a, a) == elem(2, 1, 2, 1)


def test_trace_examples():
    for n in (0, 2, 11):
        assert ef.trace(ef.one(n)) == 3
        assert ef.trace(ef.lam0(n)) == n - 1
        # sum of squared roots: e1^2 - 2 e2 = (n-1)^2 + 2(n+2) = n^2 + 5
        assert ef.trace(elem(n, 0, 0, 1)) == n * n + 5


def test_trace_of_square_matches_numeric_root_sum():
    lams = root_values(compute_roots(7, 128))
    with workprec(160):
        total = sum(l * l for l in lams)
        assert abs(total - 54) < mp.mpf(2) ** -100
    assert ef.trace(elem(7, 0, 0, 1)) == 54


def test_norm_examples():
    for n in (0, 3, 12):
        assert norm(ef.lam0(n)) == 1
        assert norm(ef.one(n)) == 1
        # f_n(-1) = 1, so N(lam0 + 1) = -f_n(-1) = -1
        assert norm(elem(n, 1, 1, 0)) == -1


def test_invert_lam0_closed_form():
    for n in (0, 5, 19):
        inv = invert_unit(ef.lam0(n))
        assert inv == elem(n, -(n + 2), -(n - 1), 1)
        assert ef.reduce_mul(inv, ef.lam0(n)) == ef.one(n)


def test_invert_one():
    assert invert_unit(ef.one(4)) == ef.one(4)


def test_closed_forms_match_the_matrix_inverse():
    for n in (0, 1, 2, 6, 97, 10**6, 10**64):
        assert ef.lam1(n) == -invert_unit(elem(n, 1, 1, 0))
        assert ef.inv_lam0(n) == invert_unit(ef.lam0(n))
        assert ef.inv_lam1(n) == invert_unit(ef.lam1(n))
        for s in range(-4, 5):
            for t in range(-4, 5):
                # the oracle's power inverts a negative power's base through the matrix
                oracle = ef.reduce_mul(power(ef.lam0(n), s), power(ef.lam1(n), t))
                assert ef.alpha_element(n, s, t) == oracle


@given(n=st.one_of(small_n, st.integers(min_value=0, max_value=10**70)),
       a=st.tuples(small_ints, small_ints, small_ints))
@settings(max_examples=200, deadline=None)
def test_trace_is_the_matrix_diagonal(n, a):
    x = elem(n, *a)
    m = multiplication_matrix(x)
    assert ef.trace(x) == m[0][0] + m[1][1] + m[2][2]


def test_invert_lam0_plus_one_is_minus_lam1():
    n = 6
    inv = invert_unit(elem(n, 1, 1, 0))
    assert inv == -ef.lam1(n)
    # numeric cross-check of the basis representation of lam1
    lam0, lam1, _ = root_values(compute_roots(n, 128))
    with workprec(160):
        val = embed(ef.lam1(n), lam0)
        assert abs(val - lam1) < mp.mpf(2) ** -100


def test_alpha_element_basic():
    n = 8
    assert ef.alpha_element(n, 1, 0) == ef.lam0(n)
    assert ef.alpha_element(n, 0, 1) == ef.lam1(n)
    # lam0 * lam1 = 1/lam2 whose trace is -(n+2)
    assert ef.trace(ef.alpha_element(n, 1, 1)) == -(n + 2)


def test_mismatched_parameters_rejected():
    with pytest.raises(MismatchedParameters):
        ef.reduce_mul(ef.lam0(3), ef.lam0(4))


@given(n=small_n, a=st.tuples(small_ints, small_ints, small_ints),
       b=st.tuples(small_ints, small_ints, small_ints))
@settings(max_examples=150, deadline=None)
def test_mul_commutative_and_norm_multiplicative(n, a, b):
    x, y = elem(n, *a), elem(n, *b)
    assert ef.reduce_mul(x, y) == ef.reduce_mul(y, x)
    assert norm(ef.reduce_mul(x, y)) == norm(x) * norm(y)


@given(n=small_n, a=st.tuples(small_ints, small_ints, small_ints),
       b=st.tuples(small_ints, small_ints, small_ints),
       c=st.tuples(small_ints, small_ints, small_ints))
@settings(max_examples=100, deadline=None)
def test_mul_associative_distributive(n, a, b, c):
    x, y, z = elem(n, *a), elem(n, *b), elem(n, *c)
    mul = ef.reduce_mul
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, field_sum(y, z)) == field_sum(mul(x, y), mul(x, z))
    assert ef.trace(field_sum(y, z)) == ef.trace(y) + ef.trace(z)


@pytest.mark.parametrize("n", [0, 2, 13])
def test_unit_power_inverse_roundtrip(n):
    for s in range(-8, 9):
        for t in range(-8, 9, 2):
            u = ef.alpha_element(n, s, t)
            assert norm(u) in (1, -1)
            assert ef.reduce_mul(invert_unit(u), u) == ef.one(n)


def test_unit_power_products(monkeypatch):
    # k >= 1 costs bitlen(k) + popcount(k) - 2 products, k = 0 costs none
    calls = []
    real = ef.reduce_mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    n = 7
    base = ef.lam0(n)
    naive = ef.one(n)
    monkeypatch.setattr(ef, "reduce_mul", counting)
    assert ef.unit_power(base, 0) == ef.one(n) and not calls
    for k in range(1, 70):
        naive = real(naive, base)
        calls.clear()
        assert ef.unit_power(base, k) == naive
        assert len(calls) == k.bit_length() + bin(k).count("1") - 2


def test_unit_power_refuses_a_negative_exponent():
    # negative powers are alpha_element's, through the closed-form inverses
    for n in (0, 7):
        with pytest.raises(ValueError):
            ef.unit_power(ef.lam0(n), -1)


def test_alpha_element_products(monkeypatch):
    # a zero exponent costs no product; two nonzero ones, one more than their powers
    calls = []
    real = ef.reduce_mul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    n = 10
    products = {(0, 0): 0, (1, 0): 0, (0, 1): 0, (3, 0): 2, (0, -3): 2, (1, 1): 1, (3, -2): 4}
    want = {(s, t): real(power(ef.lam0(n), s), power(ef.lam1(n), t))
            for s, t in products}
    monkeypatch.setattr(ef, "reduce_mul", counting)
    for (s, t), count in products.items():
        calls.clear()
        assert ef.alpha_element(n, s, t) == want[s, t]
        assert len(calls) == count


def test_embedded_alpha_matches_numeric_power():
    n, s, t = 10, 2, -1
    lam0, lam1, _ = root_values(compute_roots(n, 160))
    with workprec(200):
        exact = embed(ef.alpha_element(n, s, t), lam0)
        numeric = lam0**2 / lam1
        assert abs(exact - numeric) < mp.mpf(2) ** -120
