"""Certified roots: localisation, algebraic identities, precision behaviour."""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, workprec

import cubicthue.exact_field as ef
import cubicthue.roots as roots
from cubicthue.asymptotics import st_box
from cubicthue.errors import PrecisionExhausted
from cubicthue.forms import build_form, discriminant
from cubicthue.roots import alpha_precision, compute_alphas, compute_roots


def test_localisation_brackets():
    for n in (4, 10, 1000, 10**6):
        rs = compute_roots(n, 128)
        assert n < rs.lambda0 < n + 1
        assert -1 / mpf(n - 1) < rs.lambda1 < 0
        assert -1 - mpf(2) / n < rs.lambda2 < -1


def test_symmetric_function_identities():
    for n in (0, 1, 7, 9, 10, 250, 10**64):
        rs = compute_roots(n, 160)
        with workprec(192):
            eps = mpf(2) ** -140
            l0, l1, l2 = rs.lambdas
            assert abs(l0 * l1 * l2 - 1) < eps * (n + 2) ** 2
            assert abs(l0 + l1 + l2 - (n - 1)) < eps * (n + 2) ** 2
            assert abs(sum(rs.log_abs_lambda)) < eps * (n + 2)


def test_lambda0_expansion_value():
    # lam0(10) = 10.18754...; the gap below n + 2/n = 10.2 is the O(n^-2) term
    rs = compute_roots(10, 128)
    assert abs(float(rs.lambda0) - 10.2) < 0.02


def test_regulator_expansion_value():
    rs = compute_roots(100, 128)
    with workprec(160):
        predicted = mp.log(100) ** 2 + mp.log(100) / 100
        assert abs(rs.regulator - predicted) < 0.01


def test_regulator_positive_and_pair_invariant():
    # conjugation sends lam0 -> lam1 -> lam2; any fundamental pair gives |det| = R
    for n in (2, 30, 10**4):
        rs = compute_roots(n, 160)
        la = rs.log_abs_lambda
        with workprec(192):
            d01 = la[0] * la[2] - la[1] * la[1]
            d12 = la[1] * la[0] - la[2] * la[2]
            d02 = la[0] * la[0] - la[1] * la[2]
            tol = mpf(2) ** -120 * (1 + mp.log(n + 2)) ** 2
            assert rs.regulator > 0
            for d in (d01, d12, d02):
                assert abs(abs(d) - rs.regulator) < tol


def test_root_shuffle_identities():
    for n in (5, 80):
        rs = compute_roots(n, 192)
        with workprec(224):
            bound = mpf(2) ** -188 * n
            assert abs(rs.lambda1 + 1 / (rs.lambda0 + 1)) < bound
            assert abs(rs.lambda2 + (rs.lambda0 + 1) / rs.lambda0) < bound


def test_precision_doubling_shrinks_residual():
    n = 57

    def residual(bits):
        rs = compute_roots(n, bits)
        with workprec(512):
            x = rs.lambda1
            return abs(x**3 - (n - 1) * x * x - (n + 2) * x - 1)

    r_lo, r_hi = residual(96), residual(192)
    assert r_hi < r_lo / mpf(2) ** 92 or r_hi == 0


def test_one_newton_per_root_set(monkeypatch):
    calls = []
    real = roots._lam0_floor

    def counting(n, k):
        calls.append(n)
        return real(n, k)

    monkeypatch.setattr(roots, "_lam0_floor", counting)
    compute_roots.cache_clear()
    for n in (0, 9, 10, 10**64):
        compute_roots(n, 128)
    assert calls == [0, 9, 10, 10**64]


@given(n=st.one_of(st.integers(min_value=0, max_value=10**70), st.just(10**400)),
       k=st.integers(min_value=8, max_value=3000))
@settings(max_examples=300, deadline=None)
def test_lam0_floor_is_the_exact_bracket(n, k):
    def scaled_f(x):  # 2^(3k) f(x / 2^k), written out independently of the kernel
        return x**3 - (n - 1) * x * x * 2**k - (n + 2) * x * 4**k - 8**k

    x = roots._lam0_floor(n, k)
    assert scaled_f(x) <= 0 < scaled_f(x + 1)
    assert n << k <= x < (n + 2) << k


def test_certificate_is_relative():
    # lam1 ~ -1/n: an absolute +-2^-152 window would contain 0 and accept this value
    n = 10**64
    rs = compute_roots(n, 160)
    roots._certify(n, rs.lambda1, 152)
    with workprec(256):
        off = rs.lambda1 * (1 + mpf(2) ** -140)
    with pytest.raises(PrecisionExhausted):
        roots._certify(n, off, 152)


def test_huge_n_certifies():
    n = 10**400
    rs = compute_roots(n, 192)
    with workprec(1600):
        # lam0 = n + 2/n + ..., so to 192 bits the three roots are n, -1/n and -1
        eps = mpf(2) ** -190
        assert abs(rs.lambda0 / n - 1) < eps
        assert abs(rs.lambda1 * n + 1) < eps
        assert abs(rs.lambda2 + 1) < eps


@pytest.mark.parametrize("n", [0, 1, 10**6, 10**64])
def test_alpha_triple_exact_self_checks(n):
    # each identity to relative 2^-(precision_bits-16), relative to the size of
    # its terms, which is what an error of 2^-precision_bits per conjugate allows
    bits = 160
    for s, t in st_box(3):
        tri = compute_alphas(n, s, t, bits)
        form = build_form(n, s, t)
        a1, a2, a3 = tri.alphas
        with workprec(tri.roots.precision_bits):
            eps = mpf(2) ** (16 - bits)
            assert abs(a1 + a2 + a3 + form.A) <= eps * (abs(a1) + abs(a2) + abs(a3))
            assert abs(1 / a1 + 1 / a2 + 1 / a3 - form.B) <= \
                eps * (1 / abs(a1) + 1 / abs(a2) + 1 / abs(a3))
            assert abs(a1 * a2 * a3 - 1) <= eps
            disc = ((a1 - a2) * (a1 - a3) * (a2 - a3)) ** 2
            scale = ((abs(a1) + abs(a2)) * (abs(a1) + abs(a3)) * (abs(a2) + abs(a3))) ** 2
            assert abs(disc - discriminant(form)) <= eps * scale


def test_alphas_carry_their_root_set():
    for (n, s, t, bits) in [(10, 2, -1, 192), (10**6, 3, 3, 160), (0, -1, 1, 128)]:
        tri = compute_alphas(n, s, t, bits)
        assert tri.roots.n == n
        assert tri.roots.precision_bits == alpha_precision(n, s, t, bits)


def test_compute_alphas_identity_twist():
    n = 12
    rs = compute_roots(n, 128)
    tri = compute_alphas(n, 1, 0, 128)
    with workprec(160):
        assert abs(tri.alpha1 - rs.lambda0) < mpf(2) ** -100 * n
        assert abs(tri.alpha2 - rs.lambda1) < mpf(2) ** -100
        assert abs(tri.alpha3 - rs.lambda2) < mpf(2) ** -100


def test_alpha_product_is_one():
    for (n, s, t) in [(5, 1, 1), (20, 3, -2), (11, -4, 5)]:
        tri = compute_alphas(n, s, t, 192)
        with workprec(256):
            assert abs(tri.alpha1 * tri.alpha2 * tri.alpha3 - 1) < mpf(2) ** -150


def test_alpha_matches_exact_field_embedding():
    n, s, t = 10, 2, -1
    tri = compute_alphas(n, s, t, 192)
    rs = compute_roots(n, 256)
    with workprec(256):
        exact = ef.alpha_element(n, s, t).embed(rs.lambda0)
        assert abs(tri.alpha1 - exact) < mpf(2) ** -150 * abs(exact)


def test_argument_validation():
    with pytest.raises(ValueError):
        compute_roots(-1, 128)
    with pytest.raises(ValueError):
        compute_roots(5, 32)
