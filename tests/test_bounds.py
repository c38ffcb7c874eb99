"""Bound constant, upper bound, lower-bound chain, crossover scan."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import from_int, mpf_div, round_nearest

from cubicthue import bounds, cli
from cubicthue.asymptotics import compute_proof_quantities, st_box
from cubicthue.bounds import (
    bg_upper_bound, bound_report, c3_constant, lower_bound_chain, n0_scan, ratio_float,
)
from cubicthue.errors import ChainPreconditionFailed, DegenerateTwist, EmptyGrid, PrecisionExhausted
from cubicthue.forms import build_form, height
from cubicthue.roots import PRECISION_ATTEMPTS, compute_alphas, compute_roots, proof_precision
from cubicthue.solver import solve_box
from conftest import dyadic_value, fixed_view, regulator_value


def test_c3_values():
    assert c3_constant(3, 2) == 3**94
    # d^(2d+6r+14) at d=3, r=1 gives 3^26; together 3^54 * 2^26
    assert c3_constant(3, 1) == 3**54 * 2**26
    assert c3_constant(4, 2) > c3_constant(3, 2)
    with pytest.raises(ValueError):
        c3_constant(2, 2)


def test_c3_matches_repeated_multiplication():
    slow = 1
    for _ in range(94):
        slow *= 3
    assert c3_constant(3, 2) == slow


def test_upper_bound_structure():
    n = 100
    ub = dyadic_value(bg_upper_bound(n, 2, 1, b_abs=1))
    with workprec(200):
        assert ub > 0
        # exponent >= c3 * R^2 since max(log R, 1) >= 1 and log(H*B) > 0
        from cubicthue.roots import compute_roots
        R = regulator_value(compute_roots(n, 192))
        assert ub > c3_constant(3, 2) * R * R


def test_upper_bound_height_doubling():
    # doubling H shifts the exponent by exactly c3 * R * max(log R, 1) * log 2
    n, s, t = 50, 2, 1
    base = dyadic_value(bg_upper_bound(n, s, t, b_abs=1))
    from cubicthue.forms import build_form, height
    from cubicthue.roots import compute_roots
    with workprec(224):
        R = regulator_value(compute_roots(n, 192))
        h = height(build_form(n, s, t))
        manual = c3_constant(3, 2) * R * max(mp.log(R), mpf(1)) * (R + mp.log(h * mp.e))
        assert abs(base - manual) < abs(base) * mpf(2) ** -120


def test_upper_bound_monotone_in_b():
    vals = [bg_upper_bound(60, 1, 1, b_abs=b) for b in (1, 10, 1000)]
    assert vals[0] <= vals[1] <= vals[2]
    with pytest.raises(ValueError, match="b_abs must be >= 1"):
        bg_upper_bound(60, 1, 1, b_abs=0)


def test_upper_bound_rejects_reducible():
    with pytest.raises(DegenerateTwist, match=r"\(s, t\) = \(0, 0\) gives the reducible form"):
        bg_upper_bound(10, 0, 0)


def test_the_cell_0_0_is_refused_before_any_root_work(capsys, monkeypatch):
    # forms.check_twist decides (0, 0) before any root set or triple, on every path
    # that takes a cell: the bound side, the chain, the proof quantities and the solver
    from cubicthue import asymptotics, proof, roots, solver

    def refuse(*args, **kwargs):
        raise AssertionError("root work started")

    for mod in (roots, bounds, proof, solver, asymptotics):
        for name in ("compute_roots", "compute_alphas"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    refusals = [lambda: bound_report(5, 0, 0),
                lambda: list(bounds.cell_reports(5, [(1, 1), (0, 0)], 192)),
                lambda: bg_upper_bound(10, 0, 0),
                lambda: lower_bound_chain(10, 0, 0),
                lambda: compute_proof_quantities(10, 0, 0),
                lambda: solve_box(10, 0, 0, 100)]
    for call in refusals:
        with pytest.raises(DegenerateTwist, match=r"\(s, t\) = \(0, 0\) gives the reducible"):
            call()
    assert cli.main(["bound", "5", "0", "0"]) == 2
    assert ("error: (s, t) = (0, 0) gives the reducible form (x - y)^3"
            in capsys.readouterr().err)


def formula_upper(n, s, t, precision_bits=192):
    """The upper bound of the module docstring at b_abs = 1, evaluated term by term."""
    reg = regulator_value(compute_roots(n, precision_bits))
    with workprec(precision_bits + 16):
        log_hb = mp.log(height(build_form(n, s, t))) + mp.log(max(mpf(1), mp.e))
        return c3_constant(3, 2) * reg * max(mp.log(reg), mpf(1)) * (reg + log_hb)


def formula_chain(n, q, precision_bits=192):
    """The chain value of the module docstring, evaluated term by term."""
    with workprec(precision_bits + 16):
        absorb_rhs = mpf(3) / 4 * mp.log(n) / n
        reg, v_bar = fixed_view(q.regulator_num, q.frac_bits), fixed_view(q.v_bar_num, q.frac_bits)
        return (reg - v_bar - absorb_rhs) * n / 3


def within(value, pair, frac_bits):
    """value, an mpf, lies within the radius of the pair over 2^frac_bits."""
    num, radius = pair
    with workprec(4 * frac_bits + 256):
        return abs(value * mpf(2) ** frac_bits - num) <= radius


@pytest.mark.parametrize("n", [60, 4999, 10**6, 10**64])
def test_per_n_constants_give_bit_identical_bounds(n):
    # constants once per n on the public functions' root set, against those functions
    # (equal floats) and against the formulas at twice the bits (within the radius);
    # bound_report, a batch of one, against the batch of the whole box
    const = bounds._n_constants(compute_roots(n, 192), 1, 192)
    F = const.frac_bits
    batch = {(rep.s, rep.t): rep for _, _, rep in bounds.cell_reports(n, st_box(3), 192)}
    applicable = 0
    for s, t in st_box(3):
        form = build_form(n, s, t)
        upper = bounds._upper_bound(form, const)
        assert bg_upper_bound(n, s, t) == Fraction(upper[0], 1 << F)
        assert float(fixed_view(upper[0], F)) == float(bg_upper_bound(n, s, t)) \
            == float(formula_upper(n, s, t))
        assert within(formula_upper(n, s, t, 2 * F), upper, F)
        assert batch[(s, t)] == bound_report(n, s, t)
        assert batch[(s, t)].B_rhs == float(formula_upper(n, s, t))
        q = compute_proof_quantities(n, s, t, 192)
        try:
            public = lower_bound_chain(n, s, t)
        except ChainPreconditionFailed as exc:
            with pytest.raises(ChainPreconditionFailed) as per_n:
                bounds._chain(q, const.log_n, F)
            assert per_n.value.inequality == exc.inequality
            continue
        applicable += 1
        (num, radius), K = bounds._chain(q, const.log_n, F), q.frac_bits
        assert public == Fraction(num * n, 3 << K)
        assert ratio_float(num * n, 3 << K) == float(public) == float(formula_chain(n, q)) \
            == batch[(s, t)].lower_chain
        # the lower bound num n / (3 2^K) within its radius, r n / (3 2^K)
        with workprec(4 * K):
            slack = formula_chain(n, q, 2 * K) * 3 / n
        assert within(slack, (num, radius), K)
    assert applicable > 0


@st.composite
def near_products(draw):
    """(x, factors): x anywhere, or within a few units of the product scaled by a
    power of two up to 4, where bit lengths alone may not settle x <= product."""
    factors = draw(st.lists(st.integers(0, 2**130), min_size=1, max_size=5))
    if draw(st.booleans()):
        return draw(st.integers(0, 2**400)), factors
    product, shift = math.prod(factors), draw(st.integers(-2, 2))
    scaled = product << shift if shift >= 0 else product >> -shift
    return max(scaled + draw(st.integers(-8, 8)), 0), factors


@settings(max_examples=400, deadline=None)
@given(near_products())
def test_absorption_length_test_agrees_with_the_product(case):
    x, factors = case
    assert bounds._at_most(x, factors) == (x <= math.prod(factors))
    assert bounds._at_most(x, [2, *factors]) == (x <= 2 * math.prod(factors))


@settings(max_examples=300, deadline=None)
@given(num=st.integers(1, 2**1500), den=st.integers(1, 2**400),
       upper=st.floats(1.0, 1e80))
@example(num=(1 << 1100) + (1 << 1048) + (1 << 1047), den=1, upper=1.0)  # a tie, up to even
@example(num=(1 << 1100) + (1 << 1047), den=1, upper=1.0)            # a tie, down to even
@example(num=(1 << 1024) - 1, den=1, upper=1.0)                      # up, out of float range
def test_margin_rounds_as_mpmath_divides_at_53_bits(num, den, upper):
    # a margin is the exact quotient lower / upper rounded once to 53 bits, to
    # nearest with ties to even: the float in float range, beyond it the value of
    # the mpf that mpmath's division at 53 bits gives
    rep = bounds.BoundReport(1, 1, 1, 3**94, 3, upper, Fraction(num, den), True)
    a, b = upper.as_integer_ratio()
    _, man, exp, _ = mpf_div(from_int(num * b), from_int(den * a), 53, round_nearest)
    want = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    if isinstance(rep.margin, float):
        assert math.isfinite(rep.margin) and rep.margin == float(want)
    else:
        assert isinstance(rep.margin, Fraction) and rep.margin == want >= 2**1024
    # a lower value in float range keeps the float quotient
    if num < den << 1000:
        assert dataclasses.replace(rep, lower_chain=num / den).margin == (num / den) / upper


def _applicable(n, pairs):
    """The proof quantities of the cells of pairs whose chain applies at n."""
    F = 240
    found = []
    for s, t in pairs:
        q = compute_proof_quantities(n, s, t, 192)
        try:
            bounds._chain(q, bounds._log_n(n, F), F)
        except ChainPreconditionFailed:
            continue
        found.append(q)
    assert found
    return found


@pytest.mark.parametrize("n", [60, 10**6, 10**64])
def test_slack_radius_covers_log_n_anywhere_in_its_radius(n):
    # log n at either end of its radius moves the slack by no more than the slack's
    # radius: a radius that left out log n's would be one unit
    F = 240
    L, r = bounds._log_n(n, F)
    for q in _applicable(n, st_box(2)):
        mid, _ = bounds._chain(q, (L, r), F)
        for end in (L - r, L + r):
            num, radius = bounds._chain(q, (end, r), F)
            assert abs(num - mid) <= radius
        assert 0 < radius < mid >> 200


def test_threshold_at_n_one_is_exactly_zero():
    # log 1 = 0 exactly, and the threshold's floor adds a unit to its radius only
    # where the division leaves a remainder
    F, K = 240, 200
    assert bounds._log_n(1, F) == (0, 0)
    assert bounds._absorb_threshold((0, 0), F, 1, K) == (0, 0)
    assert bounds._absorb_threshold((4 << F, 0), F, 3, K) == (1 << K, 0)
    assert bounds._absorb_threshold((1 << F, 0), F, 5, K) == ((3 << K) // 20, 1)


@pytest.mark.parametrize("n", [1, 60, 10**6, 10**64, 10**400])
@pytest.mark.parametrize("b_abs", [1, 2, 3, 10**9])
def test_constants_of_n_lie_within_their_radii(n, b_abs):
    # each constant against its value at twice the bits
    const = bounds._n_constants(compute_roots(n, 192), b_abs, 192)
    F = const.frac_bits
    reg = regulator_value(compute_roots(n, 2 * F))
    with workprec(4 * F):
        assert within(reg, const.regulator, F)
        assert within(c3_constant(3, 2) * reg * max(mp.log(reg), 1), const.upper_factor, F)
        assert within(mp.log(max(b_abs, mp.e)), const.log_b, F)
        assert within(mp.log(n), const.log_n, F)
    if b_abs <= 2:
        assert const.log_b == (1 << F, 0)   # log e, exactly


@pytest.mark.parametrize("b_abs", [1, 10])
def test_upper_radius_covers_each_log_anywhere_in_its_radius(monkeypatch, b_abs):
    # with R and the factor taken as exact, log H and log b at either end of their
    # radii move the upper bound by no more than its radius: a radius that left out
    # either log's would not cover it
    n = 10**6
    const = bounds._n_constants(compute_roots(n, 192), b_abs, 192)
    exact = dataclasses.replace(const, regulator=(const.regulator[0], 0),
                                upper_factor=(const.upper_factor[0], 0))
    form = build_form(n, 2, 1)
    mid, _ = bounds._upper_bound(form, exact)
    real = bounds.fixed_log
    (lb, rb), moved = exact.log_b, 0
    for sign in (-1, 1):
        def edge(d, K, sign=sign):
            num, r = real(d, K)
            return num + sign * r, r

        monkeypatch.setattr(bounds, "fixed_log", edge)
        at_edge = dataclasses.replace(exact, log_b=(lb + sign * rb, rb))
        num, radius = bounds._upper_bound(form, at_edge)
        assert abs(num - mid) <= radius
        moved = max(moved, abs(num - mid))
    assert moved > 2   # the logs' radii, not the floors of the product, are what is covered


# the chain applies at both cells, and only the first crosses
BOUND_CELLS = [(10**64, 2, 1), (10**4, 2, 1)]
FIRST_BITS = 192   # the first level of the constants, at bound's default bits


def _open_at(monkeypatch, site, every):
    """Open one interval test of the bound side at the first attempt only, or at
    every attempt: the absorption by a log n whose radius is its value, the
    slack's sign by a threshold just above R - v_bar with a wider radius, the
    crossover by an upper factor whose radius dwarfs it.  Returns the list that
    collects the precision_bits of each _n_constants call, a level each."""
    levels, cells = [], []
    real_constants, real_threshold = bounds._n_constants, bounds._absorb_threshold
    real_quantities = bounds._quantities

    def constants(rs, b_abs, precision_bits):
        levels.append(precision_bits)
        const = real_constants(rs, b_abs, precision_bits)
        if site == "crossover" and (every or precision_bits == FIRST_BITS):
            num, _ = const.upper_factor
            const = dataclasses.replace(const, upper_factor=(num, num << 400))
        return const

    def quantities(*args):
        cells.append(real_quantities(*args))
        return cells[-1]

    def threshold(log_n, frac_bits, n, K):
        if site == "crossover" or not (every or frac_bits == FIRST_BITS + 48):
            return real_threshold(log_n, frac_bits, n, K)
        if site == "absorption":
            return real_threshold((log_n[0], log_n[0]), frac_bits, n, K)
        gap = cells[-1].regulator_num - cells[-1].v_bar_num
        return gap + (gap >> 20), gap >> 10

    monkeypatch.setattr(bounds, "_n_constants", constants)
    monkeypatch.setattr(bounds, "_quantities", quantities)
    monkeypatch.setattr(bounds, "_absorb_threshold", threshold)
    return levels


@pytest.mark.parametrize("site", ["absorption", "slack", "crossover"])
def test_open_bound_test_is_decided_at_doubled_bits(monkeypatch, site):
    # an interval test of the bound side that its first attempt leaves open retries
    # on the cell's triple and the constants of n at doubled bits, which decide it:
    # the report is the undoctored one.  A slack sign decided without its radius
    # would report the first attempt's slack, below 0, as the failure instead
    want = [bound_report(*cell) for cell in BOUND_CELLS]
    assert [(rep.crossover, rep.chain_failure) for rep in want] == [(True, ""), (False, "")]
    levels = _open_at(monkeypatch, site, every=False)
    for cell, rep in zip(BOUND_CELLS, want):
        levels.clear()
        assert bound_report(*cell) == rep
        assert levels == [FIRST_BITS, 2 * FIRST_BITS]
        assert float(lower_bound_chain(*cell)) == rep.lower_chain


def _exhausts(monkeypatch, capsys, site, name):
    """With the site open at every attempt, bound_report raises PrecisionExhausted
    naming the test and the cell after the last doubling, and bound exits 3."""
    levels = _open_at(monkeypatch, site, every=True)
    for n, s, t in BOUND_CELLS:
        levels.clear()
        with pytest.raises(PrecisionExhausted,
                           match=rf"{name}.*for \(n,s,t\)=\({n}, {s}, {t}\) undecided at"):
            bound_report(n, s, t)
        assert levels == [FIRST_BITS << k for k in range(PRECISION_ATTEMPTS)]
        assert cli.main(["bound", str(n), str(s), str(t)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "precision exhausted: " in err


def test_crossover_within_the_radii_raises_and_reports_no_verdict(monkeypatch, capsys):
    # an upper bound whose radius straddles the lower bound at every attempt decides
    # no crossover: PrecisionExhausted names the cell, and bound prints nothing and exits 3
    _exhausts(monkeypatch, capsys, "crossover", "crossover lower > upper")


def test_absorption_within_the_radius_of_its_threshold_raises(monkeypatch, capsys):
    # a log n whose radius spans the absorption's edge decides neither way: the
    # chain leaves it open, and where no attempt narrows it, exit 3
    n, F = 10**6, 240
    L, _ = bounds._log_n(n, F)
    for q in _applicable(n, st_box(2)):
        assert bounds._chain(q, (L, L), F) is None
    _exhausts(monkeypatch, capsys, "absorption", "w_bar absorption")


def test_slack_sign_within_its_radius_raises(monkeypatch, capsys):
    # a threshold within its radius of R - v_bar leaves the slack's sign open
    n, F = 10**6, 240
    for q in _applicable(n, st_box(2)):
        gap = q.regulator_num - q.v_bar_num
        assert bounds._chain(q, bounds._log_n(n, F), F) is not None
        assert bounds._chain(q, ((4 * n * gap << F) // (3 << q.frac_bits), 1 << F), F) is None
    _exhausts(monkeypatch, capsys, "slack", r"R - v_bar > \(3/4\) log\(n\)/n")


def test_chain_at_tiny_n_is_a_named_failure():
    # (3/4) log(n)/n is undefined at n = 0 and 0 at n = 1: named failures, not ZeroDivisionError
    assert {bound_report(0, s, t).chain_failure for s, t in st_box(2)} == {"n >= 1"}
    assert {bound_report(1, s, t).chain_failure for s, t in st_box(2)} == {"w_bar absorption"}


# the four once-twisted orbits {(s, s), (0, -s), (-s, 0)} with |s| <= 2
ONCE_TWISTED_ORBITS = [c for s in (-2, -1, 1, 2) for c in ((s, s), (0, -s), (-s, 0))]


@pytest.mark.parametrize("n", [0, 5, 1000, 10**64, 10**100])
def test_once_twisted_cell_reports_its_upper_bound(n):
    # s*t = 0 takes the one per-cell path: a cell's report is its report within its
    # orbit, where it is a rotation of the diagonal cell, with the upper bound of its form
    orbit = {(r.s, r.t): r for _, _, r in bounds.cell_reports(n, ONCE_TWISTED_ORBITS, 192)}
    for s, t in ONCE_TWISTED_ORBITS:
        rep = bound_report(n, s, t)
        assert rep == orbit[(s, t)]
        assert rep.B_rhs == float(bg_upper_bound(n, s, t)) == float(formula_upper(n, s, t))
    if n == 0:
        assert {r.chain_failure for r in orbit.values()} == {"n >= 1"}
    if n >= 10**64:   # 11 of the 12 cells cross
        assert [(r.s, r.t, r.chain_failure) for r in orbit.values() if not r.crossover] == \
            [(-2, 0, "R - v_bar > (3/4) log(n)/n")]


@pytest.mark.parametrize("n,s,t", [(5, 2, 1), (10**6, -1, 3), (10**64, 1, 0)])
def test_chain_names_a_u_bar_that_is_not_positive(n, s, t):
    # u_bar = -u1 - u2 = 2 g2 - g0 - g1 is 3 log|lam2| exactly, as the root set takes
    # g2 = -g0 - g1; a doctored q with u_bar = 0 is the chain's named failure
    q = compute_proof_quantities(n, s, t)
    g = compute_alphas(n, s, t, proof_precision(n, 192)).roots.log_fixed
    assert q.u_bar_num == 3 * g[2][0] > 0
    doctored = dataclasses.replace(q, u1_num=q.u1_num + q.u_bar_num)
    with pytest.raises(ChainPreconditionFailed, match=r"u_bar > 0 \(u_bar = 0\)"):
        bounds._chain(doctored, bounds._log_n(n, 240), 240)


def test_chain_value_scale():
    n = 10**6
    val = lower_bound_chain(n, 2, 1)
    assert float(val) > 0.5 * n * math.log(n)


def test_chain_guard_vbar_window():
    q = compute_proof_quantities(10**4, 2, 1)
    doctored = dataclasses.replace(q, v_bar_num=q.regulator_num * 2)
    F = 192 + 48   # lower_bound_chain's constant bits at its default 192
    with pytest.raises(ChainPreconditionFailed) as exc:
        bounds._chain(doctored, bounds._log_n(10**4, F), F)
    assert "v_bar" in str(exc.value)


def test_chain_inapplicable_pair_named():
    with pytest.raises(ChainPreconditionFailed) as exc:
        lower_bound_chain(10**4, 1, 2)
    assert exc.value.inequality == "w_bar absorption"


def test_bound_report_records_chain_failure():
    rep = bound_report(1000, 1, 2)
    assert rep.lower_chain is None
    assert rep.chain_failure == "w_bar absorption"
    assert not rep.crossover


def test_solver_solutions_respect_upper_bound():
    for (n, s, t) in [(0, 1, 0), (2, 1, 1), (5, 2, -1)]:
        ub = float(bg_upper_bound(n, s, t, b_abs=1))
        for r in solve_box(n, s, t, 200):
            assert math.log(max(abs(r.x), abs(r.y), 1)) < ub


def test_n0_scan_small_grid_no_crossover():
    rep = n0_scan(0.25, [10], st_policy=1)
    assert rep.threshold is None
    assert all(not r["crossover"] for r in rep.rows)


# sha256 of repr of the rows of n0_scan(0.25, [10^4, 10^8, ..., 10^64], 2), each as
# (n, s, t, upper, lower, margin, chain_failure, crossover)
N0_SCAN_ROWS_PIN = "0bb736c2310c4d7febdfca8ea6d1075625c550d67078f520e6f39a41dc1ada9e"


def test_n0_scan_rows_are_pinned():
    rows = n0_scan(0.25, [10**k for k in range(4, 65, 4)], 2).rows
    fields = ("n", "s", "t", "upper", "lower", "margin", "chain_failure", "crossover")
    assert len(rows) == 256
    digest = hashlib.sha256(repr([tuple(r[f] for f in fields) for r in rows]).encode())
    assert digest.hexdigest() == N0_SCAN_ROWS_PIN


# sha256 of repr of (threshold, inapplicable_pairs, margin_curve) of the same scan
N0_SCAN_ANALYSIS_PIN = "f23a02612a9b091d30c2c323599f8ccc57ee5eeb7a3c82f5d8ed23b17ccde7d6"


def test_n0_scan_analysis_is_pinned():
    rep = n0_scan(0.25, [10**k for k in range(4, 65, 4)], 2)
    assert rep.threshold == 10**56
    assert rep.inapplicable_pairs == [(-2, -1), (-2, 2), (-1, 1), (-1, 2), (1, 2)]
    assert [n for n, _ in rep.margin_curve] == [10**k for k in range(4, 65, 4)]
    digest = hashlib.sha256(repr((rep.threshold, rep.inapplicable_pairs,
                                  rep.margin_curve)).encode())
    assert digest.hexdigest() == N0_SCAN_ANALYSIS_PIN


def test_n0_scan_empty_grid():
    with pytest.raises(EmptyGrid):
        n0_scan(0.25, [])
    # at n = 0 the box of floor(n^(1/2 - epsilon)) is empty, and so is the orbit plan
    assert list(bounds.orbit_triples(0, [], 192)) == []
    assert [r["n"] for r in n0_scan(0.25, [0, 1]).rows] == [1] * 4
    with pytest.raises(ValueError):
        n0_scan(0.7, [100])


def _scan_pairs(monkeypatch, n, epsilon, cap=2):
    """The pairs n0_scan tests at n, read off its call of cell_reports."""
    seen = []

    def spy(n, pairs, precision_bits):
        seen.append(pairs)
        return iter(())

    with monkeypatch.context() as m:
        m.setattr(bounds, "cell_reports", spy)
        n0_scan(epsilon, [n], st_policy=cap)
    return seen[0]


def test_st_policy_respects_epsilon_cap(monkeypatch):
    pairs = _scan_pairs(monkeypatch, 20, 0.25, cap=5)   # 20^0.25 ~ 2.1 -> bound 2
    assert max(max(abs(s), abs(t)) for s, t in pairs) == 2
    assert all(s * t != 0 for s, t in pairs)


def test_st_policy_beyond_float_range(monkeypatch):
    # below float range the pairs are those of the float power, as before
    for n in [0, 1, 15, 16, 80, 81, 10**6, 10**299]:
        for eps in (0.01, 0.25, 0.4999):
            bound = min(2, int(math.floor(n ** (0.5 - eps))))
            assert _scan_pairs(monkeypatch, n, eps) == st_box(bound)
    assert _scan_pairs(monkeypatch, 10**400, 0.25) == st_box(2)
    assert _scan_pairs(monkeypatch, 10**5000, 0.499, cap=7) == st_box(7)
    rep = n0_scan(0.25, [10**400], st_policy=1)
    assert [(r["s"], r["t"]) for r in rep.rows] == st_box(1)
