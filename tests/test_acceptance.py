"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

Criteria 5 and 6 are implemented exactly as stated and FAIL on genuinely
measured violations: a handful of exponent pairs (the doubled branches with
small |s| or |t|, and the doubly-dominated cone) break the claimed gap-product
bounds and the v_bar growth bounds at every n.  The failures are reproducible,
quantified in the test output, and not an artifact of precision (400-bit
checks agree).  See tests/test_asymptotics.py for the pair-by-pair analysis.
"""

import math
import time

import pytest
from mpmath import mp, workprec

import cubicthue.exact_field as ef
from conftest import alpha_values, beta_element, brute_force_solutions, discriminant, scaled
from cubicthue.asymptotics import (
    run_logdiff, run_regulator, st_box,
    check_error_products, compute_proof_quantities,
)
from cubicthue.bounds import bg_upper_bound, c3_constant, n0_scan, ratio_float
from cubicthue.forms import build_form, phi_transform
from cubicthue.roots import compute_alphas
from cubicthue.solver import decompose_unit, reduce_to_type1, solve_box


def report(capsys, num, ok, elapsed, budget, desc):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:>2}: {verdict}  [{elapsed:6.1f}s / {budget}s]  {desc}")


@pytest.fixture(scope="module")
def small_scan():
    """Criterion 7 corpus: n <= 8, |s|,|t| <= 2 plus the untwisted sanity pairs."""
    t0 = time.time()
    pairs = st_box(2) + [(1, 0), (0, 1)]
    out = {}
    for n in range(0, 9):
        for (s, t) in pairs:
            out[(n, s, t)] = solve_box(n, s, t, 200)
    return out, time.time() - t0


@pytest.fixture(scope="module")
def desk_scan():
    """Criterion 8 corpus: n in 50..200, |s|,|t| <= 3, s*t != 0, y up to 10^4."""
    t0 = time.time()
    out = {}
    for n in range(50, 201):
        for (s, t) in st_box(3):
            out[(n, s, t)] = solve_box(n, s, t, 10**4)
    return out, time.time() - t0


def test_criterion_01_exact_vs_numeric_forms(capsys):
    budget = 60
    t0 = time.time()
    worst = 0.0
    for n in range(2, 41):
        for s in range(-5, 6):
            for t in range(-5, 6):
                if s * t == 0:
                    continue
                f = build_form(n, s, t)
                tri = compute_alphas(n, s, t, 256)
                with workprec(300):
                    a1, a2, a3 = alpha_values(tri)
                    e1 = a1 + a2 + a3
                    e2 = a1 * a2 + a1 * a3 + a2 * a3
                    e3 = a1 * a2 * a3
                    resid = float(max(abs(e1 + f.A), abs(e2 - f.B), abs(e3 - 1)))
                    worst = max(worst, resid)
                    assert resid < 0.5
                    assert int(mp.nint(-e1)) == f.A and int(mp.nint(e2)) == f.B
    elapsed = time.time() - t0
    report(capsys, 1, True, elapsed, budget,
           f"numeric expansion rounds to exact (1, A, B, -1); worst residual {worst:.2e}")
    assert elapsed < budget


def test_criterion_02_discriminant_identity(capsys):
    budget = 10
    t0 = time.time()
    for n in range(0, 1001):
        assert discriminant(build_form(n, 1, 0)) == (n * n + n + 7) ** 2
    elapsed = time.time() - t0
    report(capsys, 2, True, elapsed, budget, "discriminant equals (n^2+n+7)^2 exactly for n <= 1000")
    assert elapsed < budget


def test_criterion_03_regulator_asymptotic(capsys):
    budget = 30
    t0 = time.time()
    res = run_regulator()
    slope = res.fits[0]["slope"]
    ok = abs(slope + 2.0) <= 0.3
    elapsed = time.time() - t0
    report(capsys, 3, ok, elapsed, budget, f"regulator residual slope {slope:.3f} (want -2 +- 0.3)")
    assert ok and elapsed < budget


def test_criterion_04_logdiff_branches(capsys):
    budget = 120
    t0 = time.time()
    res = run_logdiff()
    worst = max(f["slope"] for f in res.fits)
    ok = res.passed
    elapsed = time.time() - t0
    report(capsys, 4, ok, elapsed, budget,
           f"12/12 branches, scaled-residual slopes all <= 0.3 (worst {worst:.3f})")
    assert ok and elapsed < budget


def test_criterion_05_error_products(capsys):
    """Gap-product bounds with only the (+-1,+-1) exemption, as specified.

    Measured outcome: the pairs (1,2), (2,4), (-2,-1), (-4,-2) violate the
    product bound AND the min bound at every n (leading exponents 1 and <= 0
    instead of the claimed 2 and 1).  The criterion is therefore reported
    FAIL, with the violating pairs listed; the max bound holds everywhere.
    """
    budget = 60
    t0 = time.time()
    failures = set()
    for n in (10**3, 10**4, 10**5, 10**6):
        for (s, t) in st_box(5):
            rep = check_error_products(n, s, t)
            if not rep.passed:
                failures.add((s, t))
    ok = not failures
    elapsed = time.time() - t0
    report(capsys, 5, ok, elapsed, budget,
           "all bounds hold" if ok else f"bounds violated at (s,t) in {sorted(failures)}")
    assert elapsed < budget
    assert ok, f"gap-product bounds fail at {sorted(failures)} (measured, reproducible)"


def test_criterion_06_vbar_window_and_growth(capsys):
    """v_bar window (passes at 100% of points) and the growth bounds.

    Measured outcome: inside the doubly-dominated cone (2s < t-1 and
    s < 2t-1) v_bar collapses to O(log n / n^2)-scale from one edge of the
    window, so either v_bar*n/log n < 0.5 or (R - v_bar)/log n -> 0.  The
    window property itself holds everywhere; the growth half is reported
    FAIL with the violating pairs listed.
    """
    budget = 60
    t0 = time.time()
    window_violations = []
    ratio_violations = set()
    growth_floor = {}
    for n in (10**4, 10**5, 10**6):
        ln = math.log(n)
        for (s, t) in st_box(5):
            q = compute_proof_quantities(n, s, t)
            one = 1 << q.frac_bits
            if not 0 < q.v_bar_num < q.regulator_num:
                window_violations.append((n, s, t))
            if ratio_float(q.v_bar_num, one) * n / ln < 0.5:
                ratio_violations.add((s, t))
            g = ratio_float(q.regulator_num - q.v_bar_num, one) / ln
            growth_floor[(s, t)] = min(growth_floor.get((s, t), math.inf), g)
    stalling = {p for p, g in growth_floor.items() if g < 0.05}
    elapsed = time.time() - t0
    window_ok = not window_violations
    ok = window_ok and not ratio_violations and not stalling
    report(capsys, 6, ok, elapsed, budget,
           f"window 100%: {window_ok}; ratio<0.5 at {sorted(ratio_violations)}; "
           f"growth stalls at {sorted(stalling)}")
    assert window_ok, "b0 must place v_bar inside (0, R) everywhere"
    assert elapsed < budget
    assert not ratio_violations and not stalling, (
        f"v_bar growth bounds fail at {sorted(ratio_violations | stalling)} "
        "(measured, reproducible)")


def test_criterion_07_solver_ground_truth(capsys, small_scan):
    budget = 120
    small_scan, build_time = small_scan
    t0 = time.time() - build_time
    base = {(r.x, r.y): r.value for r in small_scan[(0, 1, 0)]}
    assert base[(-1, 2)] == 1
    checked = 0
    for (n, s, t), records in small_scan.items():
        got = {(r.x, r.y): r.value for r in records}
        oracle = brute_force_solutions(n, s, t, 200)
        assert got == oracle, f"candidate strategy != brute force at {(n, s, t)}"
        checked += 1
    elapsed = time.time() - t0
    report(capsys, 7, True, elapsed, budget,
           f"(-1,2) found; candidate search == brute force on {checked} parameter triples")
    assert elapsed < budget


def test_criterion_08_no_nontrivial_solutions_at_scale(capsys, desk_scan):
    budget = 600
    desk_scan, build_time = desk_scan
    t0 = time.time() - build_time
    nontrivial = [(k, r) for k, records in desk_scan.items()
                  for r in records if not r.trivial]
    ok = not nontrivial
    elapsed = time.time() - t0
    report(capsys, 8, ok, elapsed, budget,
           f"{len(desk_scan)} equations, y up to 10^4: "
           f"{len(nontrivial)} solutions with |y| >= 2")
    assert ok, f"unexpected nontrivial solutions: {nontrivial[:5]}"
    assert elapsed < budget


def test_criterion_09_type_reduction(capsys, small_scan, desk_scan):
    small_scan, desk_scan = small_scan[0], desk_scan[0]
    budget = 10
    t0 = time.time()
    reduced = 0
    for corpus in (small_scan, desk_scan):
        for (n, s, t), records in corpus.items():
            for r in records:
                if r.type_j in (2, 3):
                    new_st, ok = reduce_to_type1(n, s, t, r)
                    assert ok
                    reduced += 1
    for s in range(-50, 51):
        for t in range(-50, 51):
            p = phi_transform(*phi_transform(*phi_transform(s, t)))
            assert p == (s, t)
    elapsed = time.time() - t0
    report(capsys, 9, True, elapsed, budget,
           f"{reduced} type-2/3 records re-classified as type 1; phi^3 = id on the 101x101 box")
    assert elapsed < budget


def test_criterion_10_unit_decomposition(capsys, small_scan, desk_scan):
    small_scan, desk_scan = small_scan[0], desk_scan[0]
    budget = 60
    t0 = time.time()
    done = 0
    for corpus in (small_scan, desk_scan):
        for (n, s, t), records in corpus.items():
            for r in records:
                d = decompose_unit(n, s, t, r, with_b_bar=False)
                done += 1
                if done % 9973 == 0:  # spot re-check of the exact identity
                    beta = beta_element(n, s, t, r.x, r.y)
                    assert beta == scaled(ef.alpha_element(n, d.b1, d.b2), d.sign)
    elapsed = time.time() - t0
    report(capsys, 10, True, elapsed, budget, f"{done} records decomposed and verified exactly")
    assert elapsed < budget


def test_criterion_11_bound_constant_and_coverage(capsys, small_scan, desk_scan):
    small_scan, desk_scan = small_scan[0], desk_scan[0]
    budget = 10
    t0 = time.time()
    assert c3_constant(3, 2) == 3**94
    checked = 0
    for corpus in (small_scan, desk_scan):
        for (n, s, t), records in corpus.items():
            ub = float(bg_upper_bound(n, s, t, b_abs=1))
            for r in records:
                assert math.log(max(abs(r.x), abs(r.y), 1)) < ub
                checked += 1
    elapsed = time.time() - t0
    report(capsys, 11, True, elapsed, budget,
           f"c3(3,2) = 3^94 exactly; {checked} solutions below the upper bound")
    assert elapsed < budget


def test_criterion_12_empirical_crossover(capsys):
    budget = 300
    t0 = time.time()
    grid = [10**k for k in range(4, 65, 4)]
    rep = n0_scan(0.25, grid, st_policy=2)
    ok = rep.threshold is not None
    tail = [m for (n, m) in rep.margin_curve if n >= rep.threshold] if ok else []
    monotone = all(a < b for a, b in zip(tail, tail[1:]))
    elapsed = time.time() - t0
    report(capsys, 12, ok and monotone, elapsed, budget,
           f"EMPIRICAL threshold {rep.threshold:.2e} (chain-inapplicable pairs: "
           f"{rep.inapplicable_pairs}); margins monotone beyond: {monotone}"
           if ok else "no finite threshold found")
    assert ok and monotone
    assert elapsed < budget
