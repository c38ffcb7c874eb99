"""Form construction, evaluation, height, phi orbit, discriminant."""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, workprec

import cubicthue.exact_field as ef
from cubicthue.forms import (
    build_form, eval_form, height, phi_transform,
)
from cubicthue.roots import compute_alphas
from conftest import alpha_values, discriminant, invert_unit, multiplication_matrix


def test_untwisted_coefficients():
    for n in (0, 1, 5, 40):
        f = build_form(n, 1, 0)
        assert (f.A, f.B) == (-(n - 1), -(n + 2))


def test_double_twist_coefficients():
    for n in (1, 5, 33):
        f = build_form(n, 1, 1)
        assert (f.A, f.B) == (n + 2, n - 1)


def test_coefficients_match_the_matrix_oracle():
    for n in (0, 1, 9, 10**6, 10**64):
        for s in range(-3, 4):
            for t in range(-3, 4):
                alpha = ef.alpha_element(n, s, t)
                m = multiplication_matrix(alpha)
                f = build_form(n, s, t)
                assert f.A == -(m[0][0] + m[1][1] + m[2][2])
                assert f.B == sum(multiplication_matrix(invert_unit(alpha))[i][i]
                                  for i in range(3))


def test_conjugate_twist_same_form():
    for n in (0, 4, 17):
        a = build_form(n, 1, 0)
        b = build_form(n, 0, 1)
        assert (a.A, a.B) == (b.A, b.B)


def test_eval_examples():
    f0 = build_form(0, 1, 0)
    assert eval_form(f0, -1, 2) == 1
    for f in (f0, build_form(7, 2, -1)):
        assert eval_form(f, 1, 0) == 1
        assert eval_form(f, 0, 1) == -1


def test_height_examples():
    assert height(build_form(100, 1, 0)) == 102
    for n in (1, 6, 50):
        assert height(build_form(n, 1, 1)) == n + 2
    # |A|, |B| <= 2 floors at 3: n = 0 twist (1,1) has A = 2, B = -1
    assert height(build_form(0, 1, 1)) == 3


def test_phi_transform():
    assert phi_transform(1, 0) == (-1, -1)
    assert phi_transform(0, 1) == (1, 0)
    for s in range(-50, 51):
        for t in range(-50, 51):
            p1 = phi_transform(s, t)
            p3 = phi_transform(*phi_transform(*p1))
            assert p3 == (s, t)


def test_phi_orbit_forms_coincide():
    # the three linear factors are permuted, so all forms in a phi orbit are equal
    for (n, s, t) in [(5, 2, 1), (9, -1, 3), (14, 2, -3)]:
        f = build_form(n, s, t)
        for _ in range(2):
            s, t = phi_transform(s, t)
            g = build_form(n, s, t)
            assert (g.A, g.B) == (f.A, f.B)


@given(s=st.integers(-4, 4), t=st.integers(-4, 4),
       x=st.integers(-30, 30), y=st.integers(-30, 30))
@settings(max_examples=120, deadline=None)
def test_odd_symmetry(s, t, x, y):
    f = build_form(6, s, t)
    assert eval_form(f, -x, -y) == -eval_form(f, x, y)


def test_numeric_expansion_matches_exact_coefficients():
    for n in (2, 7, 19):
        for s in range(-3, 4):
            for t in range(-3, 4):
                if s * t == 0:
                    continue
                f = build_form(n, s, t)
                tri = compute_alphas(n, s, t, 256)
                with workprec(300):
                    a1, a2, a3 = alpha_values(tri)
                    e1 = a1 + a2 + a3
                    e2 = a1 * a2 + a1 * a3 + a2 * a3
                    e3 = a1 * a2 * a3
                    resid = max(abs(e1 + f.A), abs(e2 - f.B), abs(e3 - 1))
                assert resid < mp.mpf(2) ** -180


def test_discriminant_identity_sample():
    for n in range(61):
        f = build_form(n, 1, 0)
        assert discriminant(f) == (n * n + n + 7) ** 2


def test_degenerate_form():
    f = build_form(3, 0, 0)
    assert f.degenerate
    assert (f.A, f.B) == (-3, 3)  # (x - y)^3
    assert eval_form(f, 1, 1) == 0


def test_twisted_forms_irreducible():
    # a rational root of a monic cubic with constant term -1 is +-1, so the form has
    # none iff f(1, 1) != 0 != f(-1, 1): every cell of the box |s|, |t| <= 6 but
    # (0, 0) gives an irreducible form, as the forms docstring argues, and only
    # forms.check_twist has a cell to refuse
    span = range(-6, 7)
    for n in [*range(200), 10**6, 10**20, 10**64]:
        for s in span:
            for t in span:
                f = build_form(n, s, t)
                rooted = eval_form(f, 1, 1) == 0 or eval_form(f, -1, 1) == 0
                assert rooted == (s == t == 0), (n, s, t)


def test_height_growth_bound():
    # sharpened version of the coefficient bound: every conjugate is at most
    # (n+2)^(|s|+|t|) in absolute value, so H <= 3 (n+2)^(2 max(|s|,|t|))
    import math
    for n in (3, 10, 100):
        for s in range(-4, 5):
            for t in range(-4, 5):
                if s * t == 0:
                    continue
                h = height(build_form(n, s, t))
                cap = 2 * max(abs(s), abs(t)) * math.log(n + 2) + math.log(3)
                assert math.log(h) <= cap + 1e-9


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        build_form(-1, 1, 0)
