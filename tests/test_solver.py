"""Bounded solver: ground truth, oracle equivalence, typing, unit decomposition."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, workprec

from conftest import brute_force_solutions
from cubicthue import cli, solver
from cubicthue.asymptotics import compute_proof_quantities, st_box
from cubicthue.errors import DegenerateTwist, PrecisionExhausted, RoundingAmbiguous
from cubicthue.forms import build_form, eval_form
from cubicthue.roots import compute_alphas
from cubicthue.solver import classify_type, decompose_unit, reduce_to_type1, solve_box

import cubicthue.exact_field as ef


def solution_set(records):
    return {(r.x, r.y): r.value for r in records}


def test_ground_truth_n0():
    records = solve_box(0, 1, 0, 10)
    sols = solution_set(records)
    assert sols[(-1, 2)] == 1
    nontrivial = {k for k, r in sols.items() if abs(k[1]) > 1}
    # the classical sporadic solutions of the n = 0 equation
    assert (5, 4) in nontrivial and (9, -5) in nontrivial and (4, -9) in nontrivial


def test_normalisation_solutions_always_present():
    for (n, s, t) in [(3, 1, 0), (25, 2, 1), (7, -1, 2), (4, 0, 1)]:
        sols = solution_set(solve_box(n, s, t, 1))
        assert sols[(1, 0)] == 1
        assert sols[(0, 1)] == -1
        assert sols[(-1, 0)] == -1
        assert sols[(0, -1)] == 1


def test_records_exactly_verified_and_sorted():
    records = solve_box(2, 1, 1, 50)
    form = build_form(2, 1, 1)
    keys = [(abs(r.y), r.y, r.x) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert eval_form(form, r.x, r.y) == r.value
        assert abs(r.value) == 1
        assert r.trivial == (abs(r.y) <= 1)
        assert min(r.beta_abs) == r.beta_abs[r.type_j - 1]


def test_sign_symmetry():
    sols = solution_set(solve_box(5, 2, -1, 200))
    for (x, y), v in sols.items():
        assert sols[(-x, -y)] == -v


def test_degenerate_twists_refused():
    with pytest.raises(DegenerateTwist):
        solve_box(100, 0, 0, 10)
    with pytest.raises(DegenerateTwist):
        solve_box(100, 2, 0, 10)
    with pytest.raises(ValueError):
        solve_box(100, 1, 1, 0)


@pytest.mark.parametrize("n,s,t", [(0, 1, 1), (2, 2, -1), (5, 1, 0), (8, 2, -2)])
def test_oracle_equivalence_sample(n, s, t):
    y_bound = 50
    candidate = solution_set(solve_box(n, s, t, y_bound))
    oracle = brute_force_solutions(n, s, t, y_bound)
    assert candidate == oracle


# The oracle scans about max|alpha| * y_bound^2 points; each draw's y_bound is
# capped to stay below this, and draws whose y_bound = 1 alone exceeds it are skipped.
ORACLE_POINTS = 2 * 10**6


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 60), st_pair=st.sampled_from(st_box(3) + [(1, 0), (0, 1)]),
       y_bound=st.integers(1, 150))
def test_oracle_equivalence_random(n, st_pair, y_bound):
    s, t = st_pair
    max_alpha = max(abs(float(a)) for a in compute_alphas(n, s, t, 128).alphas)
    y_bound = min(y_bound, math.isqrt(int(ORACLE_POINTS / max_alpha)))
    assume(y_bound >= 1)
    assert solution_set(solve_box(n, s, t, y_bound)) == brute_force_solutions(n, s, t, y_bound)


def convergents(lo, hi, q_max):
    """solver._convergents on the bracket (lo, hi) of Fractions, put over one denominator."""
    return solver._convergents(lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                               lo.denominator * hi.denominator, q_max)


def convergents_of(x):
    """Convergents of the rational x from its Euclidean continued fraction."""
    p, q, p_prev, q_prev = 1, 0, 0, 1
    num, den = x.numerator, x.denominator
    while den:
        m, num, den = num // den, den, num % den
        p, q, p_prev, q_prev = m * p + p_prev, m * q + q_prev, p, q
        yield p, q


@settings(max_examples=300, deadline=None)
@given(lo=st.fractions(-50, 50, max_denominator=10**6),
       width=st.fractions(0, 1, max_denominator=10**12).filter(lambda w: w > 0),
       cut=st.fractions(0, 1, max_denominator=10**6).filter(lambda c: 0 < c < 1),
       q_max=st.integers(1, 10**4))
def test_convergents_are_shared_by_the_bracket(lo, width, cut, q_max):
    # whatever it returns holds for every number strictly inside the bracket
    got = convergents(lo, lo + width, q_max)
    if got is not None:
        x = lo + cut * width
        assert got == [(p, q) for p, q in convergents_of(x) if q <= q_max]


def test_convergents_of_narrow_brackets():
    # the lower end's remainder is 0: every number above 3 but near it has next q >= 10^9
    assert convergents(Fraction(3), 3 + Fraction(1, 10**9), 1000) == [(3, 1)]
    # sqrt(2) = [1; 2, 2, ...]: the Pell convergents
    eps = Fraction(1, 10**30)
    root2 = Fraction(math.isqrt(2 * 10**60), 10**30)
    got = convergents(root2 - eps, root2 + eps, 10**6)
    assert got[:5] == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]
    assert all(p * p - 2 * q * q in (1, -1) for p, q in got)
    assert got[-1][1] <= 10**6 < 2 * got[-1][1] + got[-2][1]


# The solver's candidate generation as it was first written, in Fraction
# arithmetic: the reference for the integer kernel, which must agree exactly.

def oracle_brackets(form, tri):
    out = []
    for a in tri.alphas:
        k = max(0, tri.precision_bits - 4 - int(mp.mag(a)))
        m = int(mp.ldexp(a, k))
        out.append((Fraction(m - 2, 1 << k), Fraction(m + 2, 1 << k)))
    for lo, hi in out:
        if eval_form(form, lo.numerator, lo.denominator) * \
                eval_form(form, hi.numerator, hi.denominator) >= 0:
            return None
    ordered = sorted(out)
    if any(ordered[i][1] >= ordered[i + 1][0] for i in range(2)):
        return None
    return out


def oracle_convergents(lo, hi, q_max):
    out = []
    p, q, p_prev, q_prev = 1, 0, 0, 1
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    while True:
        m = a // b
        if d == 0 or c // d != m:
            return out if m * q + q_prev > q_max else None
        p, q, p_prev, q_prev = m * p + p_prev, m * q + q_prev, p, q
        if q > q_max:
            return out
        out.append((p, q))
        a, b, c, d = d, c - m * d, b, a - m * b


def oracle_candidates(form, tri, y_bound):
    brackets = oracle_brackets(form, tri)
    if brackets is None:
        return None
    out = set()
    for j, (lo, hi) in enumerate(brackets):
        g = Fraction(1)
        for i, (lo_i, hi_i) in enumerate(brackets):
            if i != j:
                g *= max(lo_i - hi, lo - hi_i)
        convergents = oracle_convergents(lo, hi, y_bound)
        if convergents is None:
            return None
        out.update((p, q) for p, q in convergents if q * g > 8)
        for y in range(1, min(y_bound, math.floor(8 / g)) + 1):
            r = 4 / (g * y * y)
            out.update((x, y) for x in range(math.ceil(lo * y - r), math.floor(hi * y + r) + 1))
    return out


@settings(max_examples=400, deadline=None)
@given(n=st.one_of(st.integers(0, 30), st.integers(0, 10**6), st.just(10**64)),
       st_pair=st.sampled_from(st_box(3) + [(1, 0), (0, 1)]),
       y_bound=st.one_of(st.integers(1, 300), st.integers(1, 10**60)),
       extra_bits=st.integers(-48, 64))
def test_candidates_match_the_fraction_oracle(n, st_pair, y_bound, extra_bits):
    # around the solver's first precision, so that both outcomes, a set and None, occur
    s, t = st_pair
    bits = (abs(s) + abs(t)) * math.log2(n + 2) + 2 * math.log2(y_bound + 1) + extra_bits
    tri = compute_alphas(n, s, t, max(64, int(bits)))
    form = build_form(n, s, t)
    assert solver._candidates(form, tri, y_bound) == oracle_candidates(form, tri, y_bound)


def test_candidates_grow_with_log_y_bound(monkeypatch):
    calls = []

    def counting(form, x, y):
        calls.append((x, y))
        return eval_form(form, x, y)

    monkeypatch.setattr(solver, "eval_form", counting)
    huge = solution_set(solve_box(0, 1, 0, 10**60))
    assert len(calls) < 2000
    assert huge == solution_set(solve_box(0, 1, 0, 10**4))


def test_uncertified_conjugates_raise(monkeypatch, capsys):
    real = solver.compute_alphas

    def shifted(n, s, t, precision_bits):
        tri = real(n, s, t, precision_bits)
        return dataclasses.replace(tri, alpha1=tri.alpha1 + 1)

    monkeypatch.setattr(solver, "compute_alphas", shifted)
    with pytest.raises(PrecisionExhausted):
        solve_box(5, 1, 1, 100)
    assert cli.main(["solve", "5", "1", "1"]) == 3
    assert "precision exhausted" in capsys.readouterr().err


def test_classify_tie_breaking():
    tri = compute_alphas(11, 1, 0, 128)
    assert classify_type(1, 0, tri) == 1  # all three betas equal 1; tie -> 1


def test_classify_matches_nearest_conjugate():
    n = 10
    tri = compute_alphas(n, 1, 0, 128)
    assert classify_type(0, 1, tri) == 2          # closest to lam1
    assert classify_type(-1, 1, tri) == 3         # closest to lam2
    assert classify_type(10, 1, tri) == 1         # closest to lam0


def test_reduce_type2_to_type1():
    n, s, t = 10, 1, 0
    rec = next(r for r in solve_box(n, s, t, 1) if (r.x, r.y) == (0, 1))
    assert rec.type_j == 2
    new_st, flag = reduce_to_type1(n, s, t, rec)
    assert new_st == (0, 1) and flag              # (-t, s-t)
    tri = compute_alphas(n, *new_st, 160)
    assert classify_type(rec.x, rec.y, tri) == 1


def test_reduce_type3_to_type1():
    n, s, t = 10, 1, 0
    rec = next(r for r in solve_box(n, s, t, 1) if (r.x, r.y) == (-1, 1))
    assert rec.type_j == 3
    new_st, flag = reduce_to_type1(n, s, t, rec)
    assert new_st == (-1, -1) and flag            # (-s+t, -s)


def test_reduce_rejects_type1():
    rec = next(r for r in solve_box(10, 1, 0, 1) if (r.x, r.y) == (1, 0))
    with pytest.raises(ValueError):
        reduce_to_type1(10, 1, 0, rec)


def test_decompose_trivial_records():
    n, s, t = 9, 1, 0
    recs = {(r.x, r.y): r for r in solve_box(n, s, t, 1)}
    d = decompose_unit(n, s, t, recs[(1, 0)])
    assert (d.b1, d.b2, d.sign) == (0, 0, 1)
    d = decompose_unit(n, s, t, recs[(0, 1)])
    assert (d.b1, d.b2, d.sign) == (1, 0, -1)     # beta = -lam0


def test_decompose_nontrivial_exact_roundtrip():
    n, s, t = 0, 1, 0
    recs = {(r.x, r.y): r for r in solve_box(n, s, t, 10)}
    d = decompose_unit(n, s, t, recs[(-1, 2)])
    beta = ef.FieldInt(n, -1, 0, 0) - ef.alpha_element(n, s, t) * 2
    assert beta == d.sign * ef.alpha_element(n, d.b1, d.b2)
    assert d.b_bar is None                        # untwisted sanity case has no b0


def test_decompose_twisted_has_b_bar():
    n, s, t = 12, 2, 1
    rec = next(r for r in solve_box(n, s, t, 1) if (r.x, r.y) == (0, 1))
    d = decompose_unit(n, s, t, rec)
    assert (d.b1, d.b2, d.sign) == (s, t, -1)     # beta = -alpha1
    assert d.b_bar is not None and isinstance(d.b_bar, int)


# decompose_unit as it was first written, the log solve alone: the reference for
# the exact-first version, which must return the same decomposition.

def oracle_decompose(n, s, t, rec, precision_bits=192, with_b_bar=True):
    x, y = rec.x, rec.y
    beta_exact = ef.FieldInt(n, x, 0, 0) - ef.alpha_element(n, s, t) * y
    pb = precision_bits
    for _ in range(4):
        tri = compute_alphas(n, s, t, pb)
        with workprec(tri.roots.precision_bits):
            la0, la1, la2 = tri.roots.log_abs_lambda
            lb2 = mp.log(abs(x - tri.alpha2 * y))
            lb3 = mp.log(abs(x - tri.alpha3 * y))
            det = la1 * la0 - la2 * la2
            b1_real = (lb2 * la0 - la2 * lb3) / det
            b2_real = (la1 * lb3 - lb2 * la2) / det
            b1, b2 = int(mp.nint(b1_real)), int(mp.nint(b2_real))
            ambiguous = max(abs(b1_real - b1), abs(b2_real - b2)) > 0.25
        if not ambiguous:
            power = ef.alpha_element(n, b1, b2)
            if beta_exact == power:
                sign = 1
            elif beta_exact == -power:
                sign = -1
            else:
                pb *= 2
                continue
            b_bar = None
            if with_b_bar and s * t != 0:
                b_bar = compute_proof_quantities(n, s, t, precision_bits).b0 - b1 - b2
            return solver.UnitDecomposition(b1, b2, sign, b_bar)
        pb *= 2
    raise RoundingAmbiguous(f"unit exponents for (x,y)=({x},{y}) stayed ambiguous")


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 60), st_pair=st.sampled_from(st_box(3) + [(1, 0), (0, 1)]),
       y_bound=st.integers(1, 100), with_b_bar=st.booleans())
def test_decompose_matches_the_log_solve_oracle(n, st_pair, y_bound, with_b_bar):
    s, t = st_pair
    for rec in solve_box(n, s, t, y_bound):
        assert decompose_unit(n, s, t, rec, with_b_bar=with_b_bar) == \
            oracle_decompose(n, s, t, rec, with_b_bar=with_b_bar)


@pytest.mark.parametrize("n", [0, 1, 9, 10**6, 10**64])
def test_records_with_x_or_y_zero_skip_the_log_solve(n, monkeypatch):
    pairs = st_box(3) + [(1, 0), (0, 1)]
    records = {(s, t): [r for r in solve_box(n, s, t, 1) if r.x * r.y == 0] for s, t in pairs}

    def refused(*args, **kwargs):
        raise AssertionError("the log solve ran")

    monkeypatch.setattr(solver, "compute_alphas", refused)
    monkeypatch.setattr(mp, "log", refused)
    for (s, t), recs in records.items():
        assert len(recs) == 4
        for rec in recs:
            d = decompose_unit(n, s, t, rec, with_b_bar=False)
            if rec.y == 0:
                assert (d.b1, d.b2, d.sign) == (0, 0, rec.x)   # beta = x
            else:
                assert (d.b1, d.b2, d.sign) == (s, t, -rec.y)  # beta = -alpha1 y


def test_every_guess_is_checked_exactly(monkeypatch):
    # a wrong guess ahead of the real ones is passed over, and all wrong is an error
    real = solver._exponent_guesses

    def wrong_first(n, s, t, x, y, precision_bits):
        yield t, s
        yield from real(n, s, t, x, y, precision_bits)

    n, s, t = 0, 2, 1
    records = solve_box(n, s, t, 20)
    expected = [decompose_unit(n, s, t, r) for r in records]
    monkeypatch.setattr(solver, "_exponent_guesses", wrong_first)
    assert [decompose_unit(n, s, t, r) for r in records] == expected

    def all_wrong(n, s, t, x, y, precision_bits):
        for b1, b2 in real(n, s, t, x, y, precision_bits):
            yield b1 + 1, b2

    monkeypatch.setattr(solver, "_exponent_guesses", all_wrong)
    for rec in records:
        with pytest.raises(RoundingAmbiguous):
            decompose_unit(n, s, t, rec)
