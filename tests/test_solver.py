"""Bounded solver: ground truth, oracle equivalence, typing, unit decomposition."""

import dataclasses
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, workprec

from conftest import alpha_values, beta_element, brute_force_solutions, log_values, scaled
from cubicthue import cli, roots, solver
from cubicthue.asymptotics import compute_proof_quantities, st_box
from cubicthue.errors import DegenerateTwist, NotReducible, PrecisionExhausted
from cubicthue.forms import BinaryCubicForm, at_power, build_form, eval_form
from cubicthue.roots import compute_alphas, power_alphas, shift_roots
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
        # the type minimises |x - alpha_j y| on the views of the record's triple
        with workprec(r.alphas.roots.precision_bits):
            betas = [abs(r.x - a * r.y) for a in alpha_values(r.alphas)]
        assert min(betas) == betas[r.type_j - 1]


def test_sign_symmetry():
    sols = solution_set(solve_box(5, 2, -1, 200))
    for (x, y), v in sols.items():
        assert sols[(-x, -y)] == -v


def test_degenerate_twists_refused():
    # only (0, 0), whose form is (x - y)^3; the once-twisted s*t = 0 are solved
    with pytest.raises(DegenerateTwist):
        solve_box(100, 0, 0, 10)
    with pytest.raises(ValueError):
        solve_box(100, 1, 1, 0)


@pytest.mark.parametrize("n,s,t", [(0, 1, 1), (2, 2, -1), (5, 1, 0), (8, 2, -2)])
def test_oracle_equivalence_sample(n, s, t):
    y_bound = 50
    candidate = solution_set(solve_box(n, s, t, y_bound))
    oracle = brute_force_solutions(n, s, t, y_bound)
    assert candidate == oracle


# the once-twisted pairs (s*t = 0) with |s|, |t| <= 4, beside the box of twice-twisted ones
AXIS_PAIRS = [(s, 0) for s in range(-4, 5) if s] + [(0, t) for t in range(-4, 5) if t]
SOLVER_PAIRS = st_box(3) + AXIS_PAIRS


@pytest.mark.parametrize("s,t", AXIS_PAIRS)
def test_oracle_equivalence_once_twisted(s, t):
    for n in range(25):
        assert solution_set(solve_box(n, s, t, 60)) == brute_force_solutions(n, s, t, 60)


# the oracle tries 18 x per y, so its cost does not grow with the size of the conjugates
@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 60), st_pair=st.sampled_from(SOLVER_PAIRS),
       y_bound=st.integers(1, 150))
def test_oracle_equivalence_random(n, st_pair, y_bound):
    s, t = st_pair
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
# arithmetic, on the brackets (N - r - 1, N + r + 1) / 2^K of the triple's
# numerators: the reference for the integer kernel, which must agree exactly.

def oracle_brackets(form, tri):
    den = 1 << tri.frac_bits
    out = [(Fraction(num - r - 1, den), Fraction(num + r + 1, den))
           for num, r in zip(tri.numerators, tri.radii)]
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
       st_pair=st.sampled_from(SOLVER_PAIRS),
       y_bound=st.one_of(st.integers(1, 300), st.integers(1, 10**60)),
       extra_bits=st.integers(-48, 64))
def test_candidates_match_the_fraction_oracle(n, st_pair, y_bound, extra_bits):
    # conjugates at fraction bits around what the convergents need, so that both
    # outcomes, a set and None, occur
    s, t = st_pair
    bits = int((abs(s) + abs(t)) * math.log2(n + 2) + 2 * math.log2(y_bound + 1))
    top = compute_alphas(n, s, t, max(64, bits + 64))
    tri = power_alphas(shift_roots(top.roots, max(0, bits + extra_bits)), s, t, 64)
    form = build_form(n, s, t)
    assert solver._candidates(form, tri, y_bound) == oracle_candidates(form, tri, y_bound)


@settings(max_examples=300, deadline=None)
@given(A=st.integers(-10**40, 10**40), B=st.integers(-10**40, 10**40),
       x=st.one_of(st.integers(-10**6, 10**6), st.integers(-2**600, 2**600)),
       k=st.integers(0, 500))
def test_bracket_signs_by_horner_equal_eval_form(A, B, x, k):
    form = BinaryCubicForm(0, 1, 0, A, B)
    assert at_power(A, B, x, k) == eval_form(form, x, 1 << k)


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
    real = roots.compute_alphas
    asked = []

    def shifted(n, s, t, precision_bits):
        asked.append(precision_bits)
        tri = real(n, s, t, precision_bits)
        nums = tri.numerators
        return dataclasses.replace(tri, numerators=(nums[0] + (1 << tri.frac_bits), *nums[1:]))

    # the first triple is made by solve_box, the later ones by roots.attempts
    for mod in (solver, roots):
        monkeypatch.setattr(mod, "compute_alphas", shifted)
    with pytest.raises(PrecisionExhausted) as err:
        solve_box(5, 1, 1, 100)
    # the candidate attempts double from the first bits, and the message names the last
    first = roots.candidate_precision(5, 1, 1, 100, solver.SOLVER_FLOOR_BITS)
    assert asked == [first, 2 * first, 4 * first, 8 * first]
    assert f"undecided at {8 * first} bits" in str(err.value)
    assert cli.main(["solve", "5", "1", "1"]) == 3
    assert "precision exhausted" in capsys.readouterr().err


def test_undecided_candidates_double_from_the_first_triple(monkeypatch, capsys):
    # solve and scan try the same four precisions, from the bits of their first triple
    tried, firsts = [], []
    real_solve = solver._solve_form

    def undecided(form, tri, y_bound):
        tried.append(tri.precision_bits)

    def solve(form, y_bound, tri):
        firsts.append(tri.precision_bits)
        return real_solve(form, y_bound, tri)

    monkeypatch.setattr(solver, "_candidates", undecided)
    monkeypatch.setattr(solver, "_solve_form", solve)
    assert cli.main(["solve", "5", "1", "1", "--ybound", "100"]) == 3
    first = roots.candidate_precision(5, 1, 1, 100, 192)   # the command line's default bits
    assert firsts == [first] and tried == [first, 2 * first, 4 * first, 8 * first]
    tried.clear()
    firsts.clear()
    assert cli.main(["scan", "--n", "5", "--smax", "1", "--ybound", "100"]) == 3
    # the orbit triple's bits: more than the solver asked for, as the differences need more
    first, = firsts
    assert first > roots.candidate_precision(5, -1, -1, 100, 192)
    assert tried == [first, 2 * first, 4 * first, 8 * first]
    assert capsys.readouterr().err.count("precision exhausted") == 2


def test_classify_tie_breaking():
    tri = compute_alphas(11, 1, 0, 128)
    assert classify_type(1, 0, tri) == 1  # all three betas equal 1; tie -> 1


def test_classify_matches_nearest_conjugate():
    n = 10
    tri = compute_alphas(n, 1, 0, 128)
    assert classify_type(0, 1, tri) == 2          # closest to lam1
    assert classify_type(-1, 1, tri) == 3         # closest to lam2
    assert classify_type(10, 1, tri) == 1         # closest to lam0


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(0, 100), st.integers(0, 10**64)),
       st_pair=st.sampled_from(SOLVER_PAIRS),
       j=st.integers(0, 2), y=st.integers(-10**6, 10**6), dx=st.integers(-2, 2),
       bits=st.sampled_from([64, 160, 256]))
def test_integer_type_matches_the_mpf_argmin(n, st_pair, j, y, dx, bits):
    # x near alpha_j y, where two factors are closest to a tie
    s, t = st_pair
    tri = compute_alphas(n, s, t, bits)
    x = (tri.numerators[j] * y >> tri.frac_bits) + dx
    fine = compute_alphas(n, s, t, 2 * bits)
    with workprec(fine.roots.precision_bits):
        betas = [abs(x - a * y) for a in alpha_values(fine)]
    assert classify_type(x, y, tri) == min(range(3), key=betas.__getitem__) + 1


@pytest.mark.parametrize("wide", [1, 2])
def test_undecided_type_escalates_then_exits_3(wide, monkeypatch, capsys):
    # (0, 1) at (10, 1, 0) is type 2: |alpha2| ~ 0.09, |alpha3| ~ 1.10, |alpha1| ~ 10.2.
    # A radius of 2 on alpha2, or on alpha3, leaves it undecided at every precision.
    real_alphas, real_solve = roots.compute_alphas, solver._solve_form
    asked = []

    def doctor(tri):
        radii = list(tri.radii)
        radii[wide] = 2 << tri.frac_bits
        return dataclasses.replace(tri, radii=tuple(radii))

    def doctored_alphas(n, s, t, precision_bits):
        asked.append(precision_bits)
        return doctor(real_alphas(n, s, t, precision_bits))

    tri = real_alphas(10, 1, 0, 160)
    assert classify_type(0, 1, tri) == 2 and classify_type(1, 0, doctor(tri)) == 1
    monkeypatch.setattr(roots, "compute_alphas", doctored_alphas)
    with pytest.raises(PrecisionExhausted, match="undecided at 1280 bits"):
        classify_type(0, 1, doctor(tri))
    assert asked == [320, 640, 1280]

    def doctored_solve(form, y_bound, tri):
        # the candidates on the real conjugates, the records typed on doctored ones
        found, tri = real_solve(form, y_bound, tri)
        return found, doctor(tri)

    monkeypatch.setattr(solver, "_solve_form", doctored_solve)
    assert cli.main(["solve", "10", "1", "0", "--ybound", "1"]) == 3
    assert "precision exhausted" in capsys.readouterr().err


def test_the_certificate_is_not_part_of_a_record():
    rec = next(r for r in solve_box(10, 2, 1, 10) if (r.x, r.y) == (0, 1))
    bare = dataclasses.replace(rec, unit=None, alphas=None)
    assert rec == bare and hash(rec) == hash(bare) and repr(rec) == repr(bare)
    assert rec.unit == ef.alpha_element(10, 2, 1)
    assert list(rec.as_record()) == ["n", "s", "t", "x", "y", "value", "type", "trivial"]


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
    with pytest.raises(ValueError, match="only type-2/3 records"):
        reduce_to_type1(10, 1, 0, rec)


def test_reduce_refuses_doctored_records():
    # each of the three checks refuses a record that breaks it; a foreign unit needs
    # a fresh memo, as the solve's shared one would skip the form check
    n, s, t = 10, 1, 0
    recs = {(r.x, r.y): r for r in solve_box(n, s, t, 1)}
    for rec in (recs[(0, 1)], recs[(-1, 1)]):
        with pytest.raises(NotReducible, match="does not solve"):
            reduce_to_type1(n, s, t, dataclasses.replace(rec, value=-rec.value))
        with pytest.raises(NotReducible, match="did not re-classify"):
            reduce_to_type1(n, s, t, dataclasses.replace(rec, type_j=5 - rec.type_j))
        foreign = dataclasses.replace(rec, unit=ef.alpha_element(n, 2, 1), reductions={})
        with pytest.raises(NotReducible, match="transformed form differs"):
            reduce_to_type1(n, s, t, foreign)


def test_records_are_used_with_their_own_parameters():
    rec = next(r for r in solve_box(10, 1, 0, 1) if (r.x, r.y) == (0, 1))
    with pytest.raises(ValueError):
        reduce_to_type1(11, 1, 0, rec)
    with pytest.raises(ValueError):
        decompose_unit(10, 0, 1, rec)
    with pytest.raises(ValueError, match="record is not a unit solution"):
        decompose_unit(10, 1, 0, dataclasses.replace(rec, value=2))


def test_exponent_guess_is_none_on_a_difference_of_open_sign():
    n, s, t = 10, 2, 1
    rec = next(r for r in solve_box(n, s, t, 100) if r.x * r.y)
    assert solver._exponent_guess(rec.x, rec.y, rec.alphas) is not None
    # radii as wide as the numerators leave the sign of x 2^K - N_j y open
    blurred = dataclasses.replace(rec.alphas, radii=tuple(abs(v) for v in rec.alphas.numerators))
    assert solver._exponent_guess(rec.x, rec.y, blurred) is None


@pytest.mark.parametrize("n", [10, 1000, 10**6])
def test_a_solve_and_its_records_compute_one_root_set(n):
    # the records carry the solver's triple: reduction and decomposition reuse its roots
    for s, t in st_box(3):
        roots.compute_roots.cache_clear()
        roots.compute_alphas.cache_clear()
        for rec in solve_box(n, s, t, 10**5):
            if rec.type_j in (2, 3):
                reduce_to_type1(n, s, t, rec)
            decompose_unit(n, s, t, rec, with_b_bar=False)
        assert (s, t, roots.compute_roots.cache_info().misses) == (s, t, 1)


@pytest.mark.parametrize("n,s,t", [(1000, -1, 3), (5, 1, 1), (10**6, 3, -2), (10, 1, 0)])
def test_the_records_of_a_solve_share_their_certificate_work(n, s, t, monkeypatch):
    # one type per pair (x, y), (-x, -y); one form check and one target triple per
    # target pair; the two root logs only where a record's log solve reads them
    counts = Counter()

    def count(mod, name):
        real = getattr(mod, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapper)

    for mod, name in ((roots, "fixed_log"), (solver, "classify_type"),
                      (solver, "build_form"), (solver, "power_alphas")):
        count(mod, name)
    roots.compute_roots.cache_clear()
    roots.compute_alphas.cache_clear()
    records = solve_box(n, s, t, 10**5)
    assert counts == {"classify_type": len(records) // 2}
    targets = set()
    for rec in records:
        if rec.type_j in (2, 3):
            new_st, ok = reduce_to_type1(n, s, t, rec)
            targets.add(new_st)
        decompose_unit(n, s, t, rec, with_b_bar=False)
    reduced = sum(1 for rec in records if rec.type_j in (2, 3))
    # the shape guesses decide every record with x y = 0 without the log solve
    log_solved = any(rec.x * rec.y for rec in records)
    assert (n, s, t, +counts) == (n, s, t, +Counter(
        classify_type=len(records) // 2 + reduced, build_form=len(targets),
        power_alphas=len(targets), fixed_log=2 * log_solved))
    assert roots.compute_roots.cache_info().misses == 1


def test_each_solve_checks_its_own_reduction_targets(monkeypatch):
    # the form check of a reduction target is made once per solve, also where two
    # solves share the cached triple of their candidates
    calls = []
    real = solver.build_form
    monkeypatch.setattr(solver, "build_form", lambda *args: calls.append(args) or real(*args))
    triples = []
    for _ in range(2):
        calls.clear()
        records = [r for r in solve_box(1, -2, -2, 100) if r.type_j in (2, 3)]
        for rec in records:
            reduce_to_type1(1, -2, -2, rec)
        assert (len(records), len(calls)) == (6, 2)
        triples.append(records[0].alphas)
    assert triples[0] is triples[1]


@pytest.mark.parametrize("n,s,t", [(1000, -1, 3), (5, 1, 1), (10**6, 3, -2)])
def test_b_bar_is_decided_on_the_solve_root_set(n, s, t):
    # b0 comes from the record's own triple, not from a one-cell triple at other bits
    roots.compute_roots.cache_clear()
    roots.compute_alphas.cache_clear()
    for rec in solve_box(n, s, t, 10**4):
        assert decompose_unit(n, s, t, rec).b_bar is not None
    assert roots.compute_roots.cache_info().misses == 1


# every type-1 solution with y >= 2 at n = 3..40, (s, t) in st_box(6), y <= 10^4
TYPE1_SOLUTIONS = [(3, -1, -1, -9, 7), (3, 1, 1, -7, 9), (4, -2, -3, -57, 7), (4, -2, -2, 3, 2),
                   (4, 2, 2, 2, 3), (4, 2, 3, -7, 57), (5, -2, -1, -2, 9), (5, 2, 1, -9, 2),
                   (10, -1, -2, 86, 7), (10, 1, 2, 7, 86)]


def test_b_bar_is_the_chain_integer_one_on_type_1_solutions():
    # b_bar = b0 + b1 + b2, the integer of the lower-bound chain, which the chain
    # assumes >= 1: on these solutions it is 1, while b0 - b1 - b2 ranges over -11..5
    found = [(n, s, t, r.x, r.y) for n in range(3, 41) for s, t in st_box(6)
             for r in solve_box(n, s, t, 10**4) if r.type_j == 1 and r.y >= 2]
    assert found == TYPE1_SOLUTIONS
    minus = set()
    for n, s, t, x, y in TYPE1_SOLUTIONS:
        rec = next(r for r in solve_box(n, s, t, y) if (r.x, r.y) == (x, y))
        d = decompose_unit(n, s, t, rec)
        assert d.b_bar == 1
        minus.add(d.b_bar - 2 * (d.b1 + d.b2))
    assert min(minus) == -11 and max(minus) == 5


# every once-twisted type-1 solution with y >= 2 at n = 3, |s|, |t| <= 6, y <= 10^4
ONCE_TWISTED_TYPE1 = [(3, -1, 0, 2, 7), (3, 0, -1, -9, 2), (3, 0, 1, -2, 9), (3, 1, 0, 7, 2)]


def test_b_bar_is_one_on_the_once_twisted_type_1_solutions():
    pairs = [(s, 0) for s in range(-6, 7) if s] + [(0, t) for t in range(-6, 7) if t]
    found = sorted((3, s, t, r.x, r.y) for s, t in pairs
                   for r in solve_box(3, s, t, 10**4) if r.type_j == 1 and r.y >= 2)
    assert found == ONCE_TWISTED_TYPE1
    for n, s, t, x, y in ONCE_TWISTED_TYPE1:
        rec = next(r for r in solve_box(n, s, t, y) if (r.x, r.y) == (x, y))
        assert decompose_unit(n, s, t, rec).b_bar == 1


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
    beta = beta_element(n, s, t, -1, 2)
    assert beta == scaled(ef.alpha_element(n, d.b1, d.b2), d.sign)
    # the once-twisted record has its b_bar, the chain's b0 + b1 + b2
    assert d.b_bar == compute_proof_quantities(n, s, t).b0 + d.b1 + d.b2 == -2


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
    beta_exact = beta_element(n, s, t, x, y)
    pb = precision_bits
    for _ in range(4):
        tri = compute_alphas(n, s, t, pb)
        with workprec(tri.roots.precision_bits):
            la0, la1, la2 = log_values(tri.roots)
            _, a2, a3 = alpha_values(tri)
            lb2 = mp.log(abs(x - a2 * y))
            lb3 = mp.log(abs(x - a3 * y))
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
            if with_b_bar:
                b_bar = compute_proof_quantities(n, s, t, precision_bits).b0 + b1 + b2
            return solver.UnitDecomposition(b1, b2, sign, b_bar)
        pb *= 2
    raise PrecisionExhausted(f"unit exponents for (x,y)=({x},{y}) undecided at {pb // 2} bits")


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 60), st_pair=st.sampled_from(SOLVER_PAIRS),
       y_bound=st.integers(1, 100), with_b_bar=st.booleans())
def test_decompose_matches_the_log_solve_oracle(n, st_pair, y_bound, with_b_bar):
    s, t = st_pair
    for rec in solve_box(n, s, t, y_bound):
        assert decompose_unit(n, s, t, rec, with_b_bar=with_b_bar) == \
            oracle_decompose(n, s, t, rec, with_b_bar=with_b_bar)


@pytest.mark.parametrize("n", [0, 1, 9, 10**6, 10**64])
def test_records_with_x_or_y_zero_skip_the_log_solve(n, monkeypatch):
    pairs = SOLVER_PAIRS
    records = {(s, t): [r for r in solve_box(n, s, t, 1) if r.x * r.y == 0] for s, t in pairs}

    def refused(*args, **kwargs):
        raise AssertionError("the log solve ran")

    monkeypatch.setattr(roots, "compute_alphas", refused)
    monkeypatch.setattr(solver, "fixed_log", refused)
    monkeypatch.setattr(solver, "log_system", refused)
    for (s, t), recs in records.items():
        assert len(recs) == 4
        for rec in recs:
            d = decompose_unit(n, s, t, rec, with_b_bar=False)
            if rec.y == 0:
                assert (d.b1, d.b2, d.sign) == (0, 0, rec.x)   # beta = x
            else:
                assert (d.b1, d.b2, d.sign) == (s, t, -rec.y)  # beta = -alpha1 y


def test_every_guess_is_checked_exactly(monkeypatch):
    # a wrong guess on the record's triple is passed over for the guess at doubled
    # bits, and all wrong is PrecisionExhausted naming the highest precision tried;
    # a record with x = 0 or y = 0 is decided by its shape, before any guess
    real = solver._exponent_guess
    n, s, t = 0, 2, 1
    records = solve_box(n, s, t, 20)
    expected = [decompose_unit(n, s, t, r) for r in records]
    firsts = {id(r.alphas) for r in records}

    def wrong_first(x, y, tri):
        return (tri.t, tri.s) if id(tri) in firsts else real(x, y, tri)

    monkeypatch.setattr(solver, "_exponent_guess", wrong_first)
    assert [decompose_unit(n, s, t, r) for r in records] == expected

    def all_wrong(x, y, tri):
        guess = real(x, y, tri)
        return guess and (guess[0] + 1, guess[1])

    asked = []
    real_alphas = roots.compute_alphas

    def spy(n, s, t, precision_bits):
        asked.append(precision_bits)
        return real_alphas(n, s, t, precision_bits)

    monkeypatch.setattr(solver, "_exponent_guess", all_wrong)
    monkeypatch.setattr(roots, "compute_alphas", spy)
    shaped = {i for i, r in enumerate(records) if r.x * r.y == 0}
    assert 0 < len(shaped) < len(records)
    for i, rec in enumerate(records):
        if i in shaped:
            assert decompose_unit(n, s, t, rec) == expected[i]
            continue
        asked.clear()
        last = roots.doublings(rec.alphas.precision_bits)[-1]
        with pytest.raises(PrecisionExhausted,
                           match=rf"^unit exponents for \(x,y\)=\({rec.x},{rec.y}\) "
                                 rf"undecided at {last} bits$"):
            decompose_unit(n, s, t, rec)
        assert asked == roots.doublings(rec.alphas.precision_bits)[1:]
