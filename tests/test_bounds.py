"""Bound constant, upper bound, lower-bound chain, crossover scan."""

import math

import pytest
from mpmath import mp, mpf, workprec

from cubicthue import bounds
from cubicthue.asymptotics import ProofQuantities, compute_proof_quantities, st_box
from cubicthue.bounds import (
    StPolicy, bg_upper_bound, bound_report, c3_constant, lower_bound_chain, n0_scan,
)
from cubicthue.errors import ChainPreconditionFailed, EmptyGrid, ReducibleForm
from cubicthue.forms import build_form, height
from cubicthue.roots import compute_roots
from cubicthue.solver import solve_box


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
    ub = bg_upper_bound(n, 2, 1, b_abs=1)
    with workprec(200):
        assert ub > 0
        # exponent >= c3 * R^2 since max(log R, 1) >= 1 and log(H*B) > 0
        from cubicthue.roots import compute_roots
        R = compute_roots(n, 192).regulator
        assert ub > c3_constant(3, 2) * R * R


def test_upper_bound_height_doubling():
    # doubling H shifts the exponent by exactly c3 * R * max(log R, 1) * log 2
    n, s, t = 50, 2, 1
    base = bg_upper_bound(n, s, t, b_abs=1)
    from cubicthue.forms import build_form, height
    from cubicthue.roots import compute_roots
    with workprec(224):
        R = compute_roots(n, 192).regulator
        h = height(build_form(n, s, t))
        manual = c3_constant(3, 2) * R * max(mp.log(R), mpf(1)) * (R + mp.log(h * mp.e))
        assert abs(base - manual) < abs(base) * mpf(2) ** -120


def test_upper_bound_monotone_in_b():
    vals = [bg_upper_bound(60, 1, 1, b_abs=b) for b in (1, 10, 1000)]
    assert vals[0] <= vals[1] <= vals[2]


def test_upper_bound_rejects_reducible():
    with pytest.raises(ReducibleForm):
        bg_upper_bound(10, 0, 0)


def formula_upper(n, s, t, precision_bits=192):
    """The upper bound of the module docstring at b_abs = 1, evaluated term by term."""
    reg = compute_roots(n, precision_bits).regulator
    with workprec(precision_bits + 16):
        log_hb = mp.log(height(build_form(n, s, t))) + mp.log(max(mpf(1), mp.e))
        return c3_constant(3, 2) * reg * max(mp.log(reg), mpf(1)) * (reg + log_hb)


def formula_chain(n, q, precision_bits=192):
    """The chain value of the module docstring, evaluated term by term."""
    with workprec(precision_bits + 16):
        absorb_rhs = mpf(3) / 4 * mp.log(n) / n
        return (q.regulator - q.v_bar - absorb_rhs) * n / 3


@pytest.mark.parametrize("n", [60, 4999, 10**6, 10**64])
def test_per_n_constants_give_bit_identical_bounds(n):
    # the scan's path, constants once per n, against the public per-call functions
    const = bounds._n_constants(n, 1, 192)
    applicable = 0
    for s, t in st_box(3):
        form = build_form(n, s, t)
        upper = bounds._upper_bound(form, const)
        assert upper == bg_upper_bound(n, s, t) == formula_upper(n, s, t)
        assert bounds._bound_report(form, const) == bound_report(n, s, t)
        q = compute_proof_quantities(n, s, t, 192)
        try:
            public = lower_bound_chain(n, s, t)
        except ChainPreconditionFailed as exc:
            with pytest.raises(ChainPreconditionFailed) as per_n:
                bounds._chain(n, q, const.absorb_rhs, 208)
            assert per_n.value.inequality == exc.inequality
            continue
        applicable += 1
        assert bounds._chain(n, q, const.absorb_rhs, 208) == public == formula_chain(n, q)
    assert applicable > 0


def test_chain_at_tiny_n_is_a_named_failure():
    # (3/4) log(n)/n is undefined at n = 0 and 0 at n = 1: named failures, not ZeroDivisionError
    assert {bound_report(0, s, t).chain_failure for s, t in st_box(2)} == {"n >= 1"}
    assert {bound_report(1, s, t).chain_failure for s, t in st_box(2)} == {"w_bar absorption"}


def test_chain_value_scale():
    n = 10**6
    val = lower_bound_chain(n, 2, 1)
    assert float(val) > 0.5 * n * math.log(n)


def test_chain_guard_vbar_window():
    q = compute_proof_quantities(10**4, 2, 1)
    doctored = ProofQuantities(
        q.n, q.s, q.t, q.precision_bits, q.u1, q.u2, q.v1, q.v2, q.w1, q.w2,
        q.u_bar, q.regulator * 2, q.w_bar, q.b0, q.regulator,
        q.logdiff12, q.logdiff13, q.diff12_abs, q.diff13_abs)
    with pytest.raises(ChainPreconditionFailed) as exc:
        lower_bound_chain(10**4, 2, 1, quantities=doctored)
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


def test_n0_scan_empty_grid():
    with pytest.raises(EmptyGrid):
        n0_scan(0.25, [])
    with pytest.raises(ValueError):
        n0_scan(0.7, [100])


def test_st_policy_respects_epsilon_cap():
    pol = StPolicy(cap=5)
    pairs = pol.pairs(20, 0.25)       # 20^0.25 ~ 2.1 -> bound 2
    assert max(max(abs(s), abs(t)) for s, t in pairs) == 2
    assert all(s * t != 0 for s, t in pairs)


def test_st_policy_beyond_float_range():
    # below float range the pairs are those of the float power, as before
    for n in [0, 1, 15, 16, 80, 81, 10**6, 10**299]:
        for eps in (0.01, 0.25, 0.4999):
            bound = min(2, int(math.floor(n ** (0.5 - eps))))
            assert StPolicy().pairs(n, eps) == st_box(bound)
    assert StPolicy().pairs(10**400, 0.25) == st_box(2)
    assert StPolicy(cap=7).pairs(10**5000, 0.499) == st_box(7)
    rep = n0_scan(0.25, [10**400], st_policy=1)
    assert [(r["s"], r["t"]) for r in rep.rows] == st_box(1)
