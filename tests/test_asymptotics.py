"""Predictors vs certified numerics: expansions, the 12-branch table, proof quantities."""

import dataclasses
import gc
import math
import weakref
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec

from cubicthue import asymptotics, proof
from cubicthue.asymptotics import (
    Branch,
    _absorb_rhs,
    check_error_products,
    classify_case,
    compute_proof_quantities,
    fit_error_exponent,
    logdiff_representatives,
    predict_logdiff,
    predict_power,
    predict_root_expansion,
    root_values,
    run_errorbound,
    run_logdiff,
    run_ubar,
    run_vbar,
    run_wbar,
    st_box,
    true_logdiffs,
)
from cubicthue.bounds import fixed_view, ratio_float
from cubicthue.errors import DegenerateTwist, ExactMatch, InsufficientSamples
from cubicthue.roots import (
    compute_alphas, compute_roots, fixed_log, orbit_triples, proof_precision,
)
from conftest import exact_roots

# Pairs on which the gap-product bounds and the w_bar absorption genuinely
# fail at every n (the doubled branches with |s| or |t| too small); measured,
# see notes in the repository history.  Within |s|,|t| <= 5 they are:
GAP_BOUND_VIOLATORS = {(1, 2), (2, 4), (-2, -1), (-4, -2)}


def test_root_expansion_formulas():
    n = 1000
    with workprec(96):
        v0, l0 = predict_root_expansion(n, 0)
        assert abs(v0.value - (n + 2 / mpf(n))) < 1e-12
        assert abs(l0.value - (mp.log(n) + 2 / mpf(n) ** 2)) < 1e-12
        v1, l1 = predict_root_expansion(n, 1)
        assert abs(v1.value - (-1 / mpf(n) + 1 / mpf(n) ** 2)) < 1e-15
        assert abs(l1.value - (-mp.log(n) - 1 / mpf(n) - 3 / (2 * mpf(n) ** 2))) < 1e-12
        v2, l2 = predict_root_expansion(n, 2)
        assert abs(v2.value - (-1 - 1 / mpf(n))) < 1e-15
        assert abs(l2.value - (1 / mpf(n) - 1 / (2 * mpf(n) ** 2))) < 1e-15


def test_root_expansion_residual_scale():
    # lam0 - (n + 2/n) = -1/n^2 + O(n^-3)
    for n in (10**3, 10**4):
        lam0, _, _ = root_values(compute_roots(n, 128))
        with workprec(160):
            v0, _ = predict_root_expansion(n, 0)
            assert abs(float(lam0 - v0.value) * n * n + 1.0) < 0.02


def test_predict_power_formulas():
    n = 500
    with workprec(96):
        p = predict_power(n, 3, 0)
        assert abs(p.value - (mpf(n) ** 3 + 6 * mpf(n))) < 1e-9
        assert predict_power(n, 0, 2).value == 1
        p11 = predict_power(n, 1, 1)
        assert abs(p11.value - (-(1 / mpf(n) - 1 / mpf(n) ** 2))) < 1e-15


def test_predict_power_accuracy():
    lams = root_values(compute_roots(2000, 160))
    with workprec(192):
        for a in (2, -3):
            for which in (0, 1, 2):
                pred = predict_power(2000, a, which)
                true = lams[which] ** a
                assert abs((true - pred.value) / true) < 1e-5


def test_classify_examples():
    c12, c13 = classify_case(3, 1)
    assert c12.branch is Branch.WIDE_ABOVE       # 2s = 6 > t+1 = 2
    assert c13.branch is Branch.EDGE_ABOVE       # s = 3 = 2t+1 exactly
    c12, c13 = classify_case(2, 4)
    assert c12.branch is Branch.DOUBLED_EVEN     # 2s = t, s even
    assert c13.branch is Branch.WIDE_BELOW       # s = 2 < 2t-1 = 7
    c12, c13 = classify_case(1, 1)
    assert c12.branch is Branch.EDGE_ABOVE
    assert c13.branch is Branch.EDGE_BELOW       # s = 2t-1


def test_classification_partitions_the_plane():
    # independent re-statement of the six mutually exclusive conditions
    def memberships(u, v, parity_of):
        return [u > v + 1, u == v + 1, u == v and parity_of % 2 == 1,
                u == v and parity_of % 2 == 0, u == v - 1, u < v - 1]

    for s in range(-50, 51):
        for t in range(-50, 51):
            m12 = memberships(2 * s, t, s)
            m13 = memberships(s, 2 * t, t)
            assert sum(m12) == 1 and sum(m13) == 1
            c12, c13 = classify_case(s, t)
            assert m12[list(Branch).index(c12.branch)]
            assert m13[list(Branch).index(c13.branch)]


def test_predict_logdiff_wide_branch():
    n = 10**4
    with workprec(96):
        p12, p13 = predict_logdiff(n, 3, 1)
        assert abs(p12.value - (2 * mp.log(n) - 1 / mpf(n))) < 1e-12
        # second difference sits on the boundary s = 2t+1: correction -(t+1)/n
        assert abs(p13.value - (2 * mp.log(n) - 2 / mpf(n))) < 1e-12


def test_predict_logdiff_doubled_even_branch():
    # (s,t) = (2,4): |a1 - a2| = 6 n^-3 (1 - 3/(2n) + ...); the coefficient is
    # |s + t| = 6, not |s| = 2 (measured; the 400-bit oracle below agrees)
    n = 10**4
    with workprec(160):
        p12, _ = predict_logdiff(n, 2, 4)
        expected = -3 * mp.log(n) + mp.log(6) - mpf(3) / (2 * n)
        assert abs(p12.value - expected) < 1e-12
    l12, _, _, _ = true_logdiffs(n, 2, 4, 160)
    assert abs(float(l12 - p12.value)) * n * n < 10


@pytest.mark.parametrize("s,t", sorted(set(
    [(2, 1), (1, 1), (1, 2), (2, 4), (1, 3), (1, 4),
     (4, 1), (3, 1), (4, 2), (3, 2), (-1, -1), (-2, -1),
     (-4, -2), (-1, -3), (-2, 2), (2, -2), (5, 3)])))
def test_logdiff_residuals_quadratic_decay(s, t):
    # every branch: residual * n^2 stays bounded (checked at two scales)
    vals = []
    for n in (10**3, 10**4):
        l12, l13, _, _ = true_logdiffs(n, s, t, 192)
        with workprec(224):
            p12, p13 = predict_logdiff(n, s, t)
            vals.append((abs(float(l12 - p12.value)) * n * n,
                         abs(float(l13 - p13.value)) * n * n))
    for r12, r13 in vals:
        assert r12 < 20 and r13 < 20


def reference_p13(n, s, t):
    """(leading, correction) of log|alpha1 - alpha3| by the six diff13 branches written
    out, the reference for predict_logdiff, which derives them from the diff12 ones."""
    nn = mpf(n)
    L = mp.log(nn)
    sg = 1 if t % 2 == 0 else -1
    b = classify_case(s, t)[1].branch
    if b is Branch.WIDE_ABOVE:
        return (s - t) * L, mpf(-t) / nn
    if b is Branch.EDGE_ABOVE:
        return (s - t) * L, mpf(-(t - sg)) / nn
    if b is Branch.DOUBLED_ODD:
        return t * L + mp.log(2), mpf(s - t) / (2 * nn)
    if b is Branch.DOUBLED_EVEN:
        # leading coefficient |s + t| = 3|t|; next order +(t-1)/(2n)
        return (t - 1) * L + mp.log(abs(s + t)), mpf(t - 1) / (2 * nn)
    if b is Branch.EDGE_BELOW:
        return t * L, mpf(s + sg) / nn
    return t * L, mpf(s) / nn


@pytest.mark.parametrize("n", [10**3, 10**6, 10**20, 10**64])
def test_diff13_predictions_match_the_written_out_branches_bit_for_bit(n):
    branches = set()
    with workprec(208):
        for s, t in st_box(8):
            _, p13 = predict_logdiff(n, s, t)
            leading, correction = reference_p13(n, s, t)
            assert (p13.leading._mpf_, p13.correction._mpf_) == (leading._mpf_, correction._mpf_)
            branches.add(classify_case(s, t)[1].branch)
    assert branches == set(Branch)


def test_predict_logdiff_rejects_degenerate():
    with pytest.raises(DegenerateTwist):
        predict_logdiff(100, 0, 1)


def test_error_products_pass_cases():
    rep = check_error_products(10**4, 2, 1)
    assert rep.margin_product >= 1 and rep.margin_min >= 1 and rep.margin_max >= 1
    assert rep.passed
    rep = check_error_products(10**4, -1, -3)
    assert rep.passed


def test_error_products_exemption():
    for st in ((1, 1), (-1, -1)):
        rep = check_error_products(10**4, *st)
        assert rep.exempt_first
        assert rep.margin_product < 1          # the exempted bound really does fail
        assert rep.margin_min >= 1 and rep.margin_max >= 1
        assert rep.passed


def test_error_products_known_violators():
    # these pairs genuinely violate the product and min bounds at every n;
    # the max bound still holds
    for st in sorted(GAP_BOUND_VIOLATORS):
        rep = check_error_products(10**4, *st)
        assert rep.margin_product < 1
        assert rep.margin_min < 1
        assert rep.margin_max >= 1
        assert not rep.passed


def test_proof_quantities_definitions():
    q = compute_proof_quantities(10**4, 2, 1)
    assert q.u_bar_num == -q.u1_num - q.u2_num
    assert q.v_bar_num == q.b0 * q.regulator_num - q.v1_num - q.v2_num
    assert 0 < q.v_bar_num < q.regulator_num


def test_proof_quantities_keep_the_precision_of_the_differences():
    # d12 and d13 feed the w_bar absorption test, so they are the triple's exact
    # differences over 2^K, with no rounding to 53 bits
    _, _, d12, d13 = true_logdiffs(10**4, 2, 1, 192)
    tri = compute_alphas(10**4, 2, 1, proof_precision(10**4, 2, 1, 192))
    q = compute_proof_quantities(10**4, 2, 1)
    a1, a2, a3 = tri.numerators
    assert q.frac_bits == tri.frac_bits
    assert (q.diff12_num, q.diff13_num) == (a1 - a2, a1 - a3)
    for d, num in ((d12, q.diff12_num), (d13, q.diff13_num)):
        assert d == fixed_view(num, q.frac_bits)
        assert d._mpf_[3] > tri.precision_bits - 8 > 53


def test_cold_proof_quantities_compute_one_root_set():
    # the logs and the regulator come from the root set the conjugates were powered from
    compute_roots.cache_clear()
    compute_alphas.cache_clear()
    compute_proof_quantities(10**5, 3, -2)
    assert compute_roots.cache_info().misses == 1


@pytest.mark.parametrize("harness", [run_vbar, run_wbar, run_errorbound, run_logdiff])
def test_lemma_harness_computes_one_root_set_per_grid_n(harness):
    # on its default grid, from cold caches: one root set per n, shared by its phi-orbits
    compute_roots.cache_clear()
    compute_alphas.cache_clear()
    res = harness()
    assert compute_roots.cache_info().misses == len(res.config["n_grid"])
    assert compute_alphas.cache_info().misses == 0


def test_ubar_limit():
    q = compute_proof_quantities(10**6, 2, 1)
    assert abs(ratio_float(q.u_bar_num, 1 << q.frac_bits) * 10**6 - 3.0) < 1e-3
    res = run_ubar(n_grid=[10**2, 10**3, 10**4, 10**5, 10**6])
    assert res.passed


def test_vbar_good_pairs():
    # mixed-branch pairs obey the log(n)/n lower bound with the window intact
    for (s, t) in [(2, 1), (1, 1), (-1, -1), (3, 1), (2, -2)]:
        for n in (10**4, 10**6):
            q = compute_proof_quantities(n, s, t)
            one = 1 << q.frac_bits
            assert 0 < q.v_bar_num < q.regulator_num
            assert ratio_float(q.v_bar_num, one) * n / math.log(n) >= 0.5
            assert ratio_float(q.regulator_num - q.v_bar_num, one) / math.log(n) > 0.3


def test_vbar_collapse_pairs_documented():
    # inside the doubly-dominated cone (2s < t-1 and s < 2t-1) the v1+v2
    # combination collapses onto an exact multiple of R and v_bar degenerates
    # to O(log n / n^2) from one side of the window or the other
    q = compute_proof_quantities(10**4, -2, 1)
    one = 1 << q.frac_bits
    assert 0 < q.v_bar_num < q.regulator_num
    assert ratio_float(q.v_bar_num, one) * 10**4 / math.log(10**4) < 0.01      # far below 0.5
    q = compute_proof_quantities(10**4, 1, 4)
    one = 1 << q.frac_bits
    assert 0 < q.v_bar_num < q.regulator_num
    assert ratio_float(q.regulator_num - q.v_bar_num, one) / math.log(10**4) < 0.01


@pytest.mark.parametrize("n_grid,st_bound", [
    (None, 3), ([10**k for k in range(16, 65)], 2),
])
def test_wbar_rows_agree_with_the_exact_absorption_test(n_grid, st_bound):
    # each row's ok, from its float margin, is the exact comparison num/den <= rhs
    # that bounds._chain makes on the cell's proof quantities
    res = run_wbar(n_grid=n_grid, st_bound=st_bound)
    exact = []
    for n in res.config["n_grid"]:
        man, exp = _absorb_rhs(n, 208).man_exp
        for s, t, tri, shift in asymptotics.orbit_triples(n, st_box(st_bound), 192):
            num, den = asymptotics.cell_quantities(tri, shift, s, t, 192).absorb_ratio()
            exact.append((n, s, t, Fraction(num, den) <= man * Fraction(2) ** exp))
    assert [(r["n"], r["s"], r["t"], r["ok"]) for r in res.rows] == exact
    assert any(ok for *_, ok in exact) and not all(ok for *_, ok in exact)


def test_wbar_absorption_split():
    res = run_wbar(n_grid=[10**4], st_bound=2)
    failing = {(r["s"], r["t"]) for r in res.rows if not r["ok"]}
    assert failing == {p for p in GAP_BOUND_VIOLATORS if max(map(abs, p)) <= 2}
    assert not res.passed  # the honest overall verdict on the full box


def test_fit_error_exponent_recovers_slope():
    samples = [(n, 3.7 * n ** -2.2) for n in (100, 300, 1000, 30000, 100000)]
    fit = fit_error_exponent(samples)
    assert abs(fit.slope + 2.2) < 1e-9
    assert fit.r_squared > 0.999999


def test_fit_error_exponent_guards():
    with pytest.raises(InsufficientSamples):
        fit_error_exponent([(100, 1.0), (1000, 0.5)])
    with pytest.raises(InsufficientSamples):
        fit_error_exponent([(100 + i, 1.0 / (100 + i)) for i in range(6)])
    with pytest.raises(ExactMatch):
        fit_error_exponent([(10**k, 0.0) for k in range(2, 7)])


def test_proof_quantities_reject_degenerate():
    with pytest.raises(DegenerateTwist):
        compute_proof_quantities(100, 1, 0)


def test_st_box_order_and_content():
    box = st_box(1)
    assert box == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


# ---------------------------------------------------------------------------
# Difference logs derived from the mirror orbit (roots.AlphaTriple.diff_log)
# ---------------------------------------------------------------------------

INDEX_PAIRS = ((0, 1), (0, 2), (1, 2))


def _exact_conjugates(n, s, t):
    """The conjugates T[0..2] of the triple of (s, t), from the oracle's roots at the
    working precision."""
    lam0, lam1, lam2 = exact_roots(n)[0]
    return lam0**s * lam1**t, lam1**s * lam2**t, lam2**s * lam0**t


def _assert_log_within_radius(pair, exact_difference, K):
    num, radius = pair
    assert abs(mp.log(abs(exact_difference)) * 2**K - num) <= radius


@pytest.mark.parametrize("n", [5, 100, 4999, 10**6, 10**20, 10**64])
def test_mirrored_logs_lie_within_their_radius(n):
    derived, orbits = 0, set()
    for s, t, tri, shift in asymptotics.orbit_triples(n, st_box(4), 192):
        orbits.add((tri.s, tri.t))
        if shift or tri.mirror is None:
            continue
        K = tri.frac_bits
        with workprec(2 * K + 64):
            exact = _exact_conjugates(n, s, t)
            for a, b in INDEX_PAIRS:
                pair = tri.diff_log(a, b)
                assert pair == tri._mirror_log(a, b)   # the log derived from the mirror's
                _assert_log_within_radius(pair, exact[a] - exact[b], K)
                derived += 1
    # the 40 orbits of the box form 20 mirrored pairs at the same bits, and one
    # orbit of each pair derives its logs from the other's
    assert len(orbits) == 40 and derived == 3 * 20


def _edge(pair, width):
    """pair moved by width, its radius widened by width: still valid, the true value
    now near the edge of the radius."""
    return pair[0] + width, pair[1] + width


def test_mirrored_log_radius_covers_logs_at_the_edge_of_their_radii():
    # the root logs of the mirror triple (3, 2) moved up, and its difference logs
    # down, so their errors add in log|T[a] - T[b]| = L'_ij - lam'_i - lam'_j for
    # T = the triple of (-3, -2): the radius needs every one of its terms
    n, bits, width = 10**6, 256, 1 << 20
    mirror = compute_alphas(n, 3, 2, bits)
    tri = compute_alphas(n, -3, -2, bits)
    K = tri.frac_bits
    assert mirror.frac_bits == K
    roots_at_edge = dataclasses.replace(mirror.roots)   # its logs set as if already read
    vars(roots_at_edge).update(log_fixed=tuple(_edge(g, width) for g in mirror.roots.log_fixed))
    mirror = dataclasses.replace(mirror, roots=roots_at_edge)
    for i, j in INDEX_PAIRS:
        d = (mirror.numerators[i] - mirror.numerators[j], mirror.radii[i] + mirror.radii[j])
        num, radius = fixed_log(d, K)
        mirror._diff_logs[(i, j)] = (num - width, radius + width)
    tri = dataclasses.replace(tri, mirror=(mirror, 0))
    with workprec(2 * K + 64):
        exact = _exact_conjugates(n, -3, -2)
        for a, b in INDEX_PAIRS:
            pair = tri.diff_log(a, b)
            _assert_log_within_radius(pair, exact[a] - exact[b], K)


def _direct_logs(tri):
    """fixed_log of each difference of tri, as the triple of a lone orbit takes them."""
    return {(i, j): fixed_log((tri.numerators[i] - tri.numerators[j],
                               tri.radii[i] + tri.radii[j]), tri.frac_bits)
            for i, j in INDEX_PAIRS}


def _filled_logs(n, pairs, y_bound=None):
    """{cell: the triple of its orbit} of pairs at n, after the proof quantities of
    every cell."""
    cells = {}
    for s, t, tri, shift in asymptotics.orbit_triples(n, pairs, 192, y_bound):
        proof._quantities(tri, shift, s, t, 192)
        cells[(s, t)] = tri
    return cells


def test_orbits_without_a_mirror_take_their_logs_directly():
    # no orbit of the logdiff representatives holds the negation of another
    for tri in _filled_logs(10**5, logdiff_representatives()).values():
        assert tri.mirror is None
        direct = _direct_logs(tri)
        assert tri._diff_logs == {key: direct[key] for key in tri._diff_logs}


def test_an_earlier_orbit_takes_a_later_one_as_its_mirror():
    # the cell (-1, -2) of (1, 2) is not in the box, but (1, -1), the cell of (1, 2)'s
    # orbit at shift 2, is the negation of the later representative (-1, 1): the
    # earlier orbit's triple derives its logs from the later one's
    n = 10**4
    cells = {(s, t): (tri, shift)
             for s, t, tri, shift in orbit_triples(n, [(1, 2), (1, -1), (-1, 1)], 192)}
    tri, source = cells[(1, 2)][0], cells[(-1, 1)][0]
    assert cells[(1, -1)] == (tri, 2) and cells[(-1, 1)] == (source, 0)
    assert tri.mirror[0] is source and tri.mirror[1] == 2 and source.mirror is None
    direct = _direct_logs(tri)
    for a, b in INDEX_PAIRS:
        (num, radius), (want, r) = tri.diff_log(a, b), direct[(a, b)]
        assert (num, radius) == tri._mirror_log(a, b)
        assert abs(num - want) <= radius + r


def test_mirror_difference_not_known_to_be_nonzero_falls_back():
    n, bits = 10**4, 256
    tri, mirror = compute_alphas(n, -2, 1, bits), compute_alphas(n, 2, -1, bits)
    blurred = dataclasses.replace(mirror, radii=tuple(abs(v) for v in mirror.numerators))
    linked = dataclasses.replace(tri, mirror=(blurred, 0))
    d = (tri.numerators[0] - tri.numerators[1], tri.radii[0] + tri.radii[1])
    assert linked.diff_log(0, 1) == fixed_log(d, tri.frac_bits)
    assert blurred._diff_logs == {}


def test_mirrors_at_other_bits_take_their_logs_directly():
    # a y_bound whose solver bits outweigh the differences' puts each triple at the
    # fraction bits of its representative's |s| + |t|; in st_box(3) two pairs of
    # mirrored orbits have representatives of unequal |s| + |t|, such as (-3, -1)
    # and (-2, -3), so their triples land at other bits
    n = 10**5
    cells = _filled_logs(n, st_box(3), 2**160)
    triples = {(tri.s, tri.t): tri for tri in cells.values()}
    apart = 0
    for (s, t), tri in triples.items():
        partner = cells.get((-s, -t))
        if tri.mirror is not None:
            assert tri.mirror[0].frac_bits == tri.frac_bits
        elif partner is not None and partner.frac_bits != tri.frac_bits:
            apart += 1
            assert partner.mirror is None
            direct = _direct_logs(tri)
            assert tri._diff_logs == {key: direct[key] for key in tri._diff_logs}
    assert apart == 4


def test_mirrored_memos_are_freed_without_the_cycle_collector():
    # each mirrored pair links one way only, so an n's triples, and the difference
    # logs they hold, go with their last reference, not at the next collection
    gc.disable()
    try:
        triples = []
        for s, t, tri, shift in asymptotics.orbit_triples(10**4, st_box(3), 192):
            proof._quantities(tri, shift, s, t, 192)
            triples.append(weakref.ref(tri))
        del tri
        assert sum(ref() is not None for ref in triples) == 0
    finally:
        gc.enable()
