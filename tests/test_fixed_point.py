"""The fixed-point kernel against the mpf code it replaced, and its certificates.

The oracle below is the mpf implementation of compute_alphas, the conjugate
differences and their logs, compute_proof_quantities and the lower-bound
chain as they were before the conjugates, the proof quantities and the
difference logs moved to integers over 2^K.  It runs at
twice the bits the kernel worked at, so it is the more accurate of the two.
"""

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, workprec

from cubicthue import asymptotics, bounds, proof, roots
from cubicthue.asymptotics import (
    check_error_products, compute_proof_quantities, logdiff_representatives, run_vbar, st_box,
    true_logdiffs,
)
from cubicthue.cli import main
from cubicthue.errors import ChainPreconditionFailed, DegenerateTwist, PrecisionExhausted
from cubicthue.forms import build_form
from cubicthue.roots import alpha_precision, compute_alphas, compute_roots, proof_precision
from conftest import (
    alpha_values, dyadic_value, exact_roots, log_values, patch_everywhere, regulator_value,
    root_values,
)


# ---------------------------------------------------------------------------
# the mpf oracle
# ---------------------------------------------------------------------------

def oracle_alphas(n, s, t, precision_bits):
    """alpha1, alpha2, alpha3 by mpf powers of the roots, and the root set."""
    wp = alpha_precision(n, s, t, precision_bits)
    rs = compute_roots(n, wp)
    lam0, lam1, lam2 = root_values(rs)
    with workprec(wp + 16):
        return lam0**s * lam1**t, lam1**s * lam2**t, lam2**s * lam0**t, rs


def oracle_signed_diffs(n, s, t, precision_bits):
    a1, a2, a3, rs = oracle_alphas(n, s, t, proof_precision(n, precision_bits))
    with workprec(rs.precision_bits):
        return a1 - a2, a1 - a3, rs


def oracle_quantities(n, s, t, precision_bits):
    d12, d13, rs = oracle_signed_diffs(n, s, t, precision_bits)
    with workprec(rs.precision_bits):
        a12, a13 = abs(d12), abs(d13)
        l12, l13 = mp.log(a12), mp.log(a13)
    la0, la1, la2 = log_values(rs)
    with workprec(proof_precision(n, precision_bits)):
        reg = regulator_value(rs)
        u1, u2 = la0 - la2, la1 - la2
        v1 = l12 * la0 - la2 * l13
        v2 = la1 * l13 - l12 * la2
        w1 = la0 / d12 - la2 / d13
        w2 = la1 / d13 - la2 / d12
        b0 = int(mp.floor((v1 + v2) / reg)) + 1
        return SimpleNamespace(u_bar=-u1 - u2, v_bar=b0 * reg - v1 - v2, w_bar=-w1 - w2,
                               b0=b0, regulator=reg, diff12_abs=a12, diff13_abs=a13)


def oracle_chain(n, q, absorb_rhs, wp):
    with workprec(wp):
        if q.u_bar <= 0:
            raise ChainPreconditionFailed("u_bar > 0")
        if not (0 < q.v_bar < q.regulator):
            raise ChainPreconditionFailed("0 < v_bar < R")
        if absorb_rhs is None:
            raise ChainPreconditionFailed("n >= 1")
        if abs(q.w_bar) / (2 * q.diff12_abs * q.diff13_abs) > absorb_rhs:
            raise ChainPreconditionFailed("w_bar absorption")
        value = (q.regulator - q.v_bar - absorb_rhs) * n / 3
        if value <= 0:
            raise ChainPreconditionFailed("R - v_bar > (3/4) log(n)/n")
        return value


def oracle_absorb_rhs(n, wp):
    """The absorption threshold (3/4) log(n)/n at wp bits."""
    with workprec(wp):
        return mpf(3) / 4 * mp.log(n) / n


def kernel_outcome(n, s, t, q, precision_bits):
    """(failure name, lower as a float, crossover) of the bounds kernel on q."""
    const = bounds._n_constants(compute_roots(n, precision_bits), 1, precision_bits)
    upper = bounds._upper_bound(build_form(n, s, t), const)
    try:
        slack = bounds._chain(q, const.log_n, const.frac_bits)
    except ChainPreconditionFailed as exc:
        return exc.inequality, None, False
    return ("", bounds.ratio_float(slack[0] * n, 3 << q.frac_bits),
            bounds._crosses(q, slack, upper, const.frac_bits))


def oracle_outcome(n, s, t, ref, precision_bits):
    """The same of the oracle chain on its quantities ref, at precision_bits + 16 bits."""
    wp = precision_bits + 16
    upper = bounds.bg_upper_bound(n, s, t, precision_bits=precision_bits)
    try:
        value = oracle_chain(n, ref, oracle_absorb_rhs(n, wp), wp)
    except ChainPreconditionFailed as exc:
        return exc.inequality, None, False
    return "", float(value), bool(value > dyadic_value(upper))


# ---------------------------------------------------------------------------
# the kernel against the oracle
# ---------------------------------------------------------------------------

LARGE_N = [10**12, 10**32, 10**64]


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(2, 10**6), st.sampled_from(LARGE_N)),
       st_pair=st.sampled_from(st_box(5)))
def test_kernel_matches_the_mpf_oracle_at_twice_the_bits(n, st_pair):
    s, t = st_pair
    pb = 192
    try:
        q = compute_proof_quantities(n, s, t, pb)
    except PrecisionExhausted:
        # an undecided b0 may only end this way where the cancellation is deep
        assert n >= 10**32
        return
    oracle_pb = 2 * q.frac_bits
    ref = oracle_quantities(n, s, t, oracle_pb)
    assert q.b0 == ref.b0

    # the conjugates: within their radius over 2^K, and relatively within 2^-precision_bits
    tri = compute_alphas(n, s, t, pb)
    K = tri.frac_bits
    *exact, _ = oracle_alphas(n, s, t, 2 * K)
    with workprec(4 * K):
        for num, radius, view, a in zip(tri.numerators, tri.radii, alpha_values(tri), exact):
            assert abs(a * 2**K - num) <= radius
            assert abs(view - a) < abs(a) * mpf(2) ** -pb

    assert kernel_outcome(n, s, t, q, pb) == oracle_outcome(n, s, t, ref, pb)

    if n <= 10**6:
        d12, d13, _ = oracle_signed_diffs(n, s, t, oracle_pb)
        with workprec(oracle_pb + 16):
            a12, a13 = abs(d12), abs(d13)
            margins = (a12 * a13 / (mpf(2) / 3 * n * n),
                       min(a12 * a12 * a13, a12 * a13 * a13) / (mpf(2) / 3 * n),
                       max(a12 * a12 * a13, a12 * a13 * a13) / (mpf(2) / 3 * n * n))
        exempt = (s, t) in ((1, 1), (-1, -1))
        passed = (exempt or margins[0] >= 1) and margins[1] >= 1 and margins[2] >= 1
        assert check_error_products(n, s, t, pb).passed == passed


@pytest.mark.parametrize("n", [0, 1, 2, 10**6, 10**64, 10**400])
def test_root_set_radii_hold(n):
    # every fixed-point value of a root set lies within its radius of the true value
    rs = compute_roots(n, 128)
    K = rs.frac_bits
    # 32 guard bits beyond the requested precision, the bits the logs are taken at
    assert K == max(128 + 32, n.bit_length())
    with workprec(2 * K + 64):
        lams, logs, reg = exact_roots(n)
        pairs = list(zip(rs.lam_fixed, lams)) + list(zip(rs.inv_fixed, (1 / v for v in lams)))
        pairs += list(zip(rs.log_fixed, logs)) + [(rs.reg_fixed, reg)]
        for (num, radius), exact in pairs:
            assert abs(exact * 2**K - num) <= radius
    # lam0 is the exact Newton floor, floor(lam0 * 2^k) * 2^(K - k) with k = K - bitlen(n)
    shift = n.bit_length()
    assert rs.lam_fixed[0] == (roots._lam0_floor(n, K - shift) << shift, 1 << shift)


def _exact_values(n):
    """lam0..2, their inverses, their log-absolute-values and the regulator at the
    working precision, from the oracle exact_roots."""
    lams, logs, reg = exact_roots(n)
    return list(lams) + [1 / v for v in lams] + list(logs) + [reg]


def _pairs(rs):
    return [*rs.lam_fixed, *rs.inv_fixed, *rs.log_fixed, rs.reg_fixed]


@pytest.mark.parametrize("n", [0, 5, 100, 10**6, 10**64, 10**400])
def test_shifted_root_set_holds_the_values(n):
    rs = compute_roots(n, 256)
    K = rs.frac_bits
    for d in (1, 2, 7, 64, 100):
        low = roots.shift_roots(rs, K - d)
        k2 = low.frac_bits
        assert k2 == K - d and low.precision_bits == rs.precision_bits - d
        # where compute_roots has K - d bits too, its interval meets the shifted one
        fresh = None
        if k2 >= 96 and roots.root_frac_bits(n, k2 - 32) == k2:
            fresh = _pairs(compute_roots(n, k2 - 32))
        with workprec(2 * K + 64):
            exact = _exact_values(n)
            for i, ((num, r), x) in enumerate(zip(_pairs(low), exact)):
                assert abs(x * 2**k2 - num) <= r
                if fresh:
                    assert abs(num - fresh[i][0]) <= r + fresh[i][1]
    with pytest.raises(ValueError):
        roots.shift_roots(rs, K + 1)


@pytest.mark.parametrize("n", [5, 10**6])
def test_shift_radius_covers_values_at_the_edge_of_their_radius(n):
    # a valid root set whose every value lies just below the top of a radius of
    # 2^d units: the floor shift by d moves it up to 2 - 2^-d units of 2^-(K - d)
    # from the new numerator, so the radius must be ceil(r / 2^d) + 1, not less
    rs = compute_roots(n, 128)
    K = rs.frac_bits
    with workprec(2 * K + 64):
        exact = _exact_values(n)
        for d in (2, 5, 9):
            edge = [(int(mp.floor(x * 2**K)) - (1 << d) + 1, 1 << d) for x in exact]
            for (num, r), x in zip(edge, exact):
                assert abs(x * 2**K - num) <= r
            doctored = dataclasses.replace(rs, lam_fixed=tuple(edge[0:3]),
                                           inv_fixed=tuple(edge[3:6]))
            # the logs and the regulator are cached properties: set as if already read
            vars(doctored).update(log_fixed=tuple(edge[6:9]), reg_fixed=edge[9])
            low = roots.shift_roots(doctored, K - d)
            for (num, r), x in zip(_pairs(low), exact):
                assert abs(x * 2**(K - d) - num) <= r


# ---------------------------------------------------------------------------
# the orbit path of the scans
# ---------------------------------------------------------------------------

def _scaled(pair, frac_bits, to_bits):
    return pair[0] << (to_bits - frac_bits), pair[1] << (to_bits - frac_bits)


@pytest.mark.parametrize("n", [5, 100, 5000, 10**6, 10**64])
def test_orbit_path_gives_the_proof_quantities_of_each_cell(n):
    log_n = bounds._log_n(n, 240)
    cells = 0
    orbit = asymptotics.orbit_triples(n, st_box(3), 192)
    for (s, t, tri, shift), (form, _, rep) in zip(orbit, bounds.cell_reports(n, st_box(3), 192)):
        cells += 1
        assert (form.s, form.t) == (rep.s, rep.t) == (s, t)
        q = asymptotics.cell_quantities(tri, shift, s, t)
        ref = compute_proof_quantities(n, s, t, 192)
        assert (q.n, q.s, q.t, q.b0) == (ref.n, ref.s, ref.t, ref.b0)
        # the cell's conjugates are tri's from index shift on
        own = compute_alphas(n, s, t, proof_precision(n, 192))
        top = max(tri.frac_bits, own.frac_bits)
        for j in range(3):
            a = _scaled((tri.numerators[(j + shift) % 3], tri.radii[(j + shift) % 3]),
                        tri.frac_bits, top)
            b = _scaled((own.numerators[j], own.radii[j]), own.frac_bits, top)
            assert abs(a[0] - b[0]) <= a[1] + b[1]
        # the same chain verdict, which the cell's report records
        verdicts = []
        for quantities in (q, ref):
            try:
                bounds._chain(quantities, log_n, 240)
                verdicts.append("")
            except ChainPreconditionFailed as exc:
                verdicts.append(exc.inequality)
        assert verdicts[0] == verdicts[1] == rep.chain_failure
    assert cells == 36


def test_orbit_cell_with_undecided_b0_goes_to_the_doubling_loop(monkeypatch):
    # radii wider than the differences leave the orbit's triple undecided: the cell
    # escalates from that triple, for the representative's (s, t), at twice its bits
    n = 10**4
    asked = []
    real = roots.compute_alphas

    def spy(*args):
        asked.append(args)
        return real(*args)

    monkeypatch.setattr(roots, "compute_alphas", spy)
    for s, t, tri, shift in asymptotics.orbit_triples(n, st_box(2), 192):
        wide = dataclasses.replace(tri, radii=tuple(abs(a) for a in tri.numerators))
        assert proof.attempt_quantities(wide, shift, s, t) is None
        asked.clear()
        q = asymptotics.cell_quantities(wide, shift, s, t)
        assert asked == [(n, tri.s, tri.t, 2 * tri.precision_bits)]
        ref = compute_proof_quantities(n, s, t, 192)
        assert (q.n, q.s, q.t, q.b0) == (ref.n, ref.s, ref.t, ref.b0)


def test_logdiff_cell_not_known_to_be_nonzero_goes_to_the_doubling_loop(monkeypatch):
    # radii wider than the differences leave the orbit's triple undecided: the cell
    # takes its logs from the representative's triple at twice its bits, and its
    # residuals, correctly rounded, are those of the triple it came from
    n = 10**4
    log_n = lambda K: roots.log_int(n, K)
    asked = []
    real = roots.compute_alphas

    def spy(*args):
        asked.append(args)
        return real(*args)

    patch_everywhere(monkeypatch, real, spy)
    for s, t, tri, shift in asymptotics.orbit_triples(n, logdiff_representatives(), 192):
        wide = dataclasses.replace(tri, radii=tuple(abs(a) for a in tri.numerators))
        asked.clear()
        got = asymptotics._logdiff_residuals(wide, shift, s, t, log_n)
        assert asked == [(n, tri.s, tri.t, 2 * tri.precision_bits)]
        doubled = real(n, tri.s, tri.t, 2 * tri.precision_bits)
        assert got == asymptotics._logdiff_residuals(doubled, shift, s, t, log_n)
        assert got == asymptotics._logdiff_residuals(tri, shift, s, t, log_n)
    # with radii that never shrink: PRECISION_ATTEMPTS triples, then PrecisionExhausted

    def blurred(*args):
        asked.append(args[-1])
        tri = real(*args)
        return dataclasses.replace(tri, radii=tuple(abs(a) for a in tri.numerators))

    patch_everywhere(monkeypatch, spy, blurred)   # spy is every binding of compute_alphas
    asked.clear()
    with pytest.raises(PrecisionExhausted, match="undecided at"):
        true_logdiffs(n, 2, 1)
    assert asked == roots.doublings(proof_precision(n, 192))
    assert len(asked) == roots.PRECISION_ATTEMPTS


ONCE_TWISTED = [(s, 0) for s in range(-3, 4) if s] + [(0, t) for t in range(-3, 4) if t]


@pytest.mark.parametrize("n", [2, 5, 100, 10**6, 10**64])
def test_once_twisted_cells_match_the_mpf_oracle(n):
    # a cell with s*t = 0 takes the path of every other: b0 and the chain's outcome
    # are the oracle's
    for s, t in ONCE_TWISTED:
        q = compute_proof_quantities(n, s, t, 192)
        ref = oracle_quantities(n, s, t, 2 * q.frac_bits)
        assert (s, t, q.b0) == (s, t, ref.b0)
        assert kernel_outcome(n, s, t, q, 192) == oracle_outcome(n, s, t, ref, 192)


def test_only_the_cell_0_0_is_refused(capsys):
    tri = compute_alphas(100, 1, 0, proof_precision(100, 192))
    assert asymptotics.cell_quantities(tri, 0, 1, 0) == compute_proof_quantities(100, 1, 0)
    with pytest.raises(DegenerateTwist, match=r"\(s, t\) = \(0, 0\) gives the reducible form"):
        compute_proof_quantities(100, 0, 0)
    # the bound command prints a once-twisted cell's chain, and refuses (5, 0, 0)
    # with the solver's message
    assert main(["bound", "5", "1", "0"]) == 0
    assert "lower-bound chain:    2.76854\n  crossover: no" in capsys.readouterr().out
    assert main(["bound", "5", "0", "0"]) == 2
    assert ("error: (s, t) = (0, 0) gives the reducible form (x - y)^3"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# b0 and the window are certified
# ---------------------------------------------------------------------------

def _cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("n, s, t", [(10**64, -5, 4), (10**64, -4, 5), (10**32, -5, 5)])
def test_bound_at_default_precision_gives_the_1024_bit_answer(capsys, n, s, t):
    # at 192 bits these cells once reported "0 < v_bar < R"; the answer at 1024 bits
    # is the one a certified b0 must give, or else exit 3
    code, out = _cli(capsys, "bound", str(n), str(s), str(t))
    want = _cli(capsys, "--precision-bits", "1024", "bound", str(n), str(s), str(t))
    assert code == 3 or (code, out) == want
    assert "0 < v_bar < R" not in want[1]


def test_vbar_lemma_at_1e64_gives_the_1024_bit_answer():
    try:
        rows = run_vbar(n_grid=[10**64]).rows
    except PrecisionExhausted:
        return
    want = run_vbar(n_grid=[10**64], precision_bits=1024).rows
    assert [(r["b0"], r["in_window"]) for r in rows] == [(r["b0"], r["in_window"]) for r in want]
    assert all(r["in_window"] for r in rows)


def test_undecided_b0_doubles_then_exhausts(monkeypatch):
    # with radii that never shrink, b0 is never certified: four attempts, then exit 3,
    # for the proof quantities alone and for bound, which decides b0 with the chain
    attempts = []

    def never(tri, shift, s, t):
        attempts.append(tri.precision_bits)

    patch_everywhere(monkeypatch, proof.attempt_quantities, never)
    first = proof_precision(10**4, 192)
    with pytest.raises(PrecisionExhausted, match=r"b0 for \(n,s,t\)=\(10000, 2, 1\)"):
        compute_proof_quantities(10**4, 2, 1)
    assert attempts == [first, 2 * first, 4 * first, 8 * first]
    attempts.clear()
    with pytest.raises(PrecisionExhausted, match=r"b0 for \(n,s,t\)=\(10000, 2, 1\)"):
        bounds.bound_report(10**4, 2, 1)
    assert attempts == [first, 2 * first, 4 * first, 8 * first]
    assert main(["bound", "10000", "2", "1"]) == 3


def test_chain_beyond_float_range_is_carried_exactly(capsys):
    # the chain value near n/3 overflows a float at n = 10^400; it is the exact
    # Fraction, and the margin the exact quotient rounded to 53 bits, rendered, not inf
    rep = bounds.bound_report(10**400, 2, 1)
    assert isinstance(rep.lower_chain, Fraction) and rep.crossover
    assert rep.lower_chain == bounds.lower_bound_chain(10**400, 2, 1)
    assert rep.lower_chain > 10**405 and isinstance(rep.margin, Fraction)
    quotient = rep.lower_chain / Fraction(rep.B_rhs)
    assert rep.margin.denominator == 1 and rep.margin.numerator.bit_length() > 1024
    assert abs(rep.margin - quotient) <= quotient / 2**53
    code, out = _cli(capsys, "bound", str(10**400), "2", "1")
    assert code == 0 and "inf" not in out and "lower-bound chain:    2.82555e+405" in out
    rows = bounds.n0_scan(0.25, [10**400], st_policy=1).rows
    assert all(isinstance(r[k], Fraction) for r in rows for k in ("lower", "margin")
               if r[k] is not None)
    # finite values stay the floats they are
    rep = bounds.bound_report(10**6, 2, 1)
    assert isinstance(rep.lower_chain, float) and rep.margin == rep.lower_chain / rep.B_rhs
