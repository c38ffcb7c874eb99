"""Bound constant, upper bound, lower-bound chain, crossover scan."""

import dataclasses
import hashlib
import math

import pytest
from mpmath import mp, mpf, workprec

from cubicthue import bounds
from cubicthue.asymptotics import compute_proof_quantities, st_box
from cubicthue.bounds import (
    bg_upper_bound, bound_report, c3_constant, fixed_view, lower_bound_chain, n0_scan,
)
from cubicthue.errors import ChainPreconditionFailed, EmptyGrid, ReducibleForm
from cubicthue.forms import build_form, height
from cubicthue.roots import compute_roots
from cubicthue.solver import solve_box
from conftest import regulator_value


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
        R = regulator_value(compute_roots(n, 192))
        assert ub > c3_constant(3, 2) * R * R


def test_upper_bound_height_doubling():
    # doubling H shifts the exponent by exactly c3 * R * max(log R, 1) * log 2
    n, s, t = 50, 2, 1
    base = bg_upper_bound(n, s, t, b_abs=1)
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


def test_upper_bound_rejects_reducible():
    with pytest.raises(ReducibleForm):
        bg_upper_bound(10, 0, 0)


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


@pytest.mark.parametrize("n", [60, 4999, 10**6, 10**64])
def test_per_n_constants_give_bit_identical_bounds(n):
    # constants once per n on the public functions' root set, against those functions;
    # bound_report, a batch of one, against the batch of the whole box
    const = bounds._n_constants(compute_roots(n, 192), 1, 192)
    batch = {(rep.s, rep.t): rep for _, _, rep in bounds.cell_reports(n, st_box(3), 192)}
    applicable = 0
    for s, t in st_box(3):
        form = build_form(n, s, t)
        upper = bounds._upper_bound(form, const)
        assert upper == bg_upper_bound(n, s, t) == formula_upper(n, s, t)
        assert batch[(s, t)] == bound_report(n, s, t)
        assert batch[(s, t)].B_rhs == float(upper)
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


@pytest.mark.parametrize("n", [0, 5, 1000, 10**64])
def test_once_twisted_cell_reports_its_upper_bound(monkeypatch, n):
    # s*t = 0: the upper bound needs no proof quantities, and the chain names its failure
    def refuse(*args):
        raise AssertionError("proof quantities were computed")

    monkeypatch.setattr(bounds, "cell_quantities", refuse)
    for s, t in [(1, 0), (2, 0), (0, -3)]:
        rep = bound_report(n, s, t)
        assert (rep.lower_chain, rep.crossover, rep.chain_failure) == (None, False, "s*t != 0")
        assert rep.B_rhs == float(bg_upper_bound(n, s, t)) == float(formula_upper(n, s, t))


def test_chain_value_scale():
    n = 10**6
    val = lower_bound_chain(n, 2, 1)
    assert float(val) > 0.5 * n * math.log(n)


def test_chain_guard_vbar_window():
    q = compute_proof_quantities(10**4, 2, 1)
    doctored = dataclasses.replace(q, v_bar_num=q.regulator_num * 2)
    wp = max(192 + 16, q.precision_bits)   # lower_bound_chain's bits at its default 192
    with pytest.raises(ChainPreconditionFailed) as exc:
        bounds._chain(10**4, doctored, bounds._absorb_rhs(10**4, wp), wp)
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
