"""Certified roots: localisation, algebraic identities, precision behaviour."""

import dataclasses
import hashlib
import math

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, workprec

import cubicthue.exact_field as ef
import cubicthue.roots as roots
from cubicthue.asymptotics import root_values, st_box
from cubicthue.bounds import fixed_view
from cubicthue.errors import PrecisionExhausted
from cubicthue.forms import build_form, discriminant
from cubicthue.roots import (
    alpha_precision, compute_alphas, compute_roots, orbit_triples, proof_precision,
)
from conftest import alpha_values, exact_roots, log_values, regulator_value


def test_localisation_brackets():
    for n in (4, 10, 1000, 10**6):
        lam0, lam1, lam2 = root_values(compute_roots(n, 128))
        assert n < lam0 < n + 1
        assert -1 / mpf(n - 1) < lam1 < 0
        assert -1 - mpf(2) / n < lam2 < -1


def test_symmetric_function_identities():
    for n in (0, 1, 7, 9, 10, 250, 10**64):
        rs = compute_roots(n, 160)
        with workprec(192):
            eps = mpf(2) ** -140
            l0, l1, l2 = root_values(rs)
            assert abs(l0 * l1 * l2 - 1) < eps * (n + 2) ** 2
            assert abs(l0 + l1 + l2 - (n - 1)) < eps * (n + 2) ** 2
            assert abs(sum(log_values(rs))) < eps * (n + 2)


def test_lambda0_expansion_value():
    # lam0(10) = 10.18754...; the gap below n + 2/n = 10.2 is the O(n^-2) term
    lam0, _, _ = root_values(compute_roots(10, 128))
    assert abs(float(lam0) - 10.2) < 0.02


def test_regulator_expansion_value():
    rs = compute_roots(100, 128)
    with workprec(160):
        predicted = mp.log(100) ** 2 + mp.log(100) / 100
        assert abs(regulator_value(rs) - predicted) < 0.01


def test_regulator_positive_and_pair_invariant():
    # conjugation sends lam0 -> lam1 -> lam2; any fundamental pair gives |det| = R
    for n in (2, 30, 10**4):
        rs = compute_roots(n, 160)
        la, reg = log_values(rs), regulator_value(rs)
        with workprec(192):
            d01 = la[0] * la[2] - la[1] * la[1]
            d12 = la[1] * la[0] - la[2] * la[2]
            d02 = la[0] * la[0] - la[1] * la[2]
            tol = mpf(2) ** -120 * (1 + mp.log(n + 2)) ** 2
            assert reg > 0
            for d in (d01, d12, d02):
                assert abs(abs(d) - reg) < tol


def test_root_shuffle_identities():
    for n in (5, 80):
        lam0, lam1, lam2 = root_values(compute_roots(n, 192))
        with workprec(224):
            bound = mpf(2) ** -188 * n
            assert abs(lam1 + 1 / (lam0 + 1)) < bound
            assert abs(lam2 + (lam0 + 1) / lam0) < bound


def test_precision_doubling_shrinks_residual():
    n = 57

    def residual(bits):
        _, x, _ = root_values(compute_roots(n, bits))
        with workprec(512):
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
    # lam1 ~ -1/n is below one unit of 2^-K here: its pair is certified on the
    # integers, and its view, taken from 1/lam1 ~ -n, stays relatively accurate
    n = 10**64
    rs = compute_roots(n, 160)
    K = rs.frac_bits
    num, r = rs.lam_fixed[1]
    roots._certify_root(n, (num, r), K, 1)
    with pytest.raises(PrecisionExhausted):
        roots._certify_root(n, (num + 2 * r + 1, r), K, 1)
    with pytest.raises(PrecisionExhausted):
        roots._certify_root(n, (num - 2 * r - 1, r), K, 1)
    with workprec(4 * K):
        (_, lam1, _), _, _ = exact_roots(n)
        assert abs(root_values(rs)[1] / lam1 - 1) < mpf(2) ** -160
        assert abs(fixed_view(num, K) / lam1 - 1) > mpf(2) ** -8


def test_huge_n_certifies():
    n = 10**400
    lam0, lam1, lam2 = root_values(compute_roots(n, 192))
    with workprec(1600):
        # lam0 = n + 2/n + ..., so to 192 bits the three roots are n, -1/n and -1
        eps = mpf(2) ** -190
        assert abs(lam0 / n - 1) < eps
        assert abs(lam1 * n + 1) < eps
        assert abs(lam2 + 1) < eps


# sha256 of repr((frac_bits, lam_fixed, inv_fixed, log_fixed, reg_fixed)) + newline,
# over ROOT_PIN_N x ROOT_PIN_BITS in that order
ROOT_PIN_N = [0, 1, 2, 5, 100, 4999, 10**6, 10**12, 10**64, 10**400]
ROOT_PIN_BITS = [64, 128, 192, 384, 1024]
ROOT_PIN = "c50d5d42743ca9bf4c944472d67ccc06afeae0ffaf652485a23a09026e4efc80"


def test_fixed_point_numerators_are_pinned():
    digest = hashlib.sha256()
    for n in ROOT_PIN_N:
        for bits in ROOT_PIN_BITS:
            rs = compute_roots(n, bits)
            fixed = (rs.frac_bits, rs.lam_fixed, rs.inv_fixed, rs.log_fixed, rs.reg_fixed)
            digest.update(repr(fixed).encode() + b"\n")
    assert digest.hexdigest() == ROOT_PIN


def test_views_follow_the_shifted_bits():
    # a shifted root set's mpf values are those of its own numerators
    rs = compute_roots(10**6, 256)
    low = roots.shift_roots(rs, rs.frac_bits - 100)
    K = low.frac_bits
    assert root_values(low)[0] == fixed_view(low.lam_fixed[0][0], K) != root_values(rs)[0]
    with workprec(low.precision_bits + 32):
        assert root_values(low)[1] == 1 / fixed_view(low.inv_fixed[1][0], K)


def test_root_logs_are_taken_when_first_read(monkeypatch):
    # two fixed_log calls per computed root set, at the first read of its logs or
    # regulator; a shifted set floor-shifts its source's logs and regulator
    calls = []
    real = roots.fixed_log

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(roots, "fixed_log", counting)
    roots.compute_roots.cache_clear()
    rs = compute_roots(10**6, 256)
    low = roots.shift_roots(rs, rs.frac_bits - 100)
    assert calls == [] and root_values(low)[0] > 0
    assert low.reg_fixed == ((rs.reg_fixed[0] >> 100), -(-rs.reg_fixed[1] >> 100) + 1)
    assert low.log_fixed == tuple((num >> 100, -(-r >> 100) + 1) for num, r in rs.log_fixed)
    assert len(calls) == 2
    assert regulator_value(rs) > 0 and len(calls) == 2


def test_root_set_identity_takes_no_logs(monkeypatch):
    # the logs and the regulator are derived values, outside ==, hash and repr of a
    # root set and of the triples powered from it
    calls = []
    real = roots.fixed_log
    monkeypatch.setattr(roots, "fixed_log", lambda *args: calls.append(args) or real(*args))
    roots.compute_roots.cache_clear()
    rs = compute_roots(10**6, 256)
    copy = dataclasses.replace(rs)
    tri, tri_copy = roots.power_alphas(rs, 2, 1, 192), roots.power_alphas(copy, 2, 1, 192)
    assert rs == copy and hash(rs) == hash(copy) and repr(rs) == repr(copy)
    assert tri == tri_copy and hash(tri) == hash(tri_copy) and repr(tri) == repr(tri_copy)
    assert calls == []
    assert rs.log_fixed == copy.log_fixed and len(calls) == 4


@pytest.mark.parametrize("n", [0, 1, 10**6, 10**64])
def test_alpha_triple_exact_self_checks(n):
    # each identity to relative 2^-(precision_bits-16), relative to the size of
    # its terms, which is what an error of 2^-precision_bits per conjugate allows
    bits = 160
    for s, t in st_box(3):
        tri = compute_alphas(n, s, t, bits)
        form = build_form(n, s, t)
        a1, a2, a3 = alpha_values(tri)
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
    lam0, lam1, lam2 = root_values(compute_roots(n, 128))
    a1, a2, a3 = alpha_values(compute_alphas(n, 1, 0, 128))
    with workprec(160):
        assert abs(a1 - lam0) < mpf(2) ** -100 * n
        assert abs(a2 - lam1) < mpf(2) ** -100
        assert abs(a3 - lam2) < mpf(2) ** -100


def test_alpha_product_is_one():
    for (n, s, t) in [(5, 1, 1), (20, 3, -2), (11, -4, 5)]:
        a1, a2, a3 = alpha_values(compute_alphas(n, s, t, 192))
        with workprec(256):
            assert abs(a1 * a2 * a3 - 1) < mpf(2) ** -150


def test_alpha_matches_exact_field_embedding():
    n, s, t = 10, 2, -1
    a1, _, _ = alpha_values(compute_alphas(n, s, t, 192))
    lam0, _, _ = root_values(compute_roots(n, 256))
    with workprec(256):
        exact = ef.alpha_element(n, s, t).embed(lam0)
        assert abs(a1 - exact) < mpf(2) ** -150 * abs(exact)


@pytest.mark.parametrize("n", [0, 5, 1000, 10**6, 10**32])
def test_compute_alphas_is_the_one_ask_plan(n):
    # the direct body gives the numerators and radii orbit_triples gives for a lone
    # cell, whose one ask is its proof_precision
    for s, t in st_box(3):
        for bits in (64, 192, 333):
            direct = compute_alphas(n, s, t, proof_precision(n, s, t, bits))
            (_, _, planned, _), = orbit_triples(n, [(s, t)], bits)
            assert (direct.numerators, direct.radii, direct.frac_bits, direct.precision_bits) == \
                (planned.numerators, planned.radii, planned.frac_bits, planned.precision_bits)


@st.composite
def log_arguments(draw):
    """(K, numerator, radius): x = numerator / 2^K with |log2 |x|| up to 4096 either way,
    |numerator| > radius."""
    K = draw(st.integers(64, 4096))
    e = draw(st.integers(max(-4096, 17 - K), 4096))      # |x| = 2^e m with m in [1, 2)
    num = (1 << (K + e)) + draw(st.integers(0, (1 << (K + e)) - 1))
    r = draw(st.integers(0, 1 << 16))
    return K, draw(st.sampled_from([num, -num])), r


@settings(max_examples=300, deadline=None)
@given(log_arguments())
@example((1024, 2**1024 + 2, 0))              # log(1 + 2^-1023): the whole series is tail
@example((96, 2**(96 + 3000), 0))             # e = 3000: |e| times the error of log 2
@example((4096, -(2**(4096 - 4000) + 1), 7))  # e = -4000
def test_fixed_log_radius_holds_against_mp_log(case):
    # every x within the radius of the argument: the radius covers both ends
    K, num, r = case
    value, radius = roots.fixed_log((num, r), K)
    with workprec(K + 64):
        for end in (abs(num) - r, abs(num) + r):
            assert abs(mp.log(mpf(end) / 2**K) * 2**K - value) <= radius


def test_argument_validation():
    with pytest.raises(ValueError):
        compute_roots(-1, 128)
    with pytest.raises(ValueError):
        compute_roots(5, 32)


def test_escalate_formats_what_only_when_it_raises():
    def what():
        raise AssertionError("the message was built for a decided attempt")

    first = compute_alphas(5, 1, 1, 64)
    assert roots.escalate(what, first, lambda tri: tri.precision_bits) == 64
    with pytest.raises(PrecisionExhausted, match=r"^the roots undecided at 512 bits$"):
        roots.escalate(lambda: "the roots", first, lambda tri: None)


# the three starting-bit formulas that roots.working_bits replaced, as they were written
def written_alpha_precision(n, s, t, precision_bits):
    growth = (abs(s) + abs(t)) * math.log2(n + 2)
    wp = precision_bits + int(math.ceil(growth)) + 32
    return ((wp + 63) // 64) * 64


def written_diff_precision(n, s, t, precision_bits):
    return precision_bits + int(math.ceil((abs(s) + abs(t) + 2) * math.log2(n + 2))) + 32


def written_first_bits_sum(n, s, t, y_bound):
    return (abs(s) + abs(t)) * math.log2(n + 2) + 2 * math.log2(y_bound + 1) + 64


@pytest.mark.parametrize("n", [0, 1, 2, 6, 10**6, 2**64 - 2, 10**64, 10**400],
                         ids=["0", "1", "2", "6", "10^6", "2^64-2", "10^64", "10^400"])
def test_working_bits_keeps_the_formulas_it_replaced(n):
    # the roots' and the differences' bits are unchanged; the solver's first bits
    # round the same sum up, where they took its floor
    for s, t in st_box(8):
        for bits in (64, 192, 1024):
            assert alpha_precision(n, s, t, bits) == written_alpha_precision(n, s, t, bits)
            assert proof_precision(n, s, t, bits) == written_diff_precision(n, s, t, bits)
            for y_bound in (1, 10**4, 10**5, 10**100):
                assert roots.candidate_precision(n, s, t, y_bound, bits) == \
                    max(bits, math.ceil(written_first_bits_sum(n, s, t, y_bound)))


@pytest.mark.parametrize("n", [5, 10**6, 10**40])
def test_planned_triples_are_powered_from_their_shift(n):
    # the cells of st_box(5) and the solver's attempts at a large y_bound ask for
    # several bits, so the triples lie at several frac_bits; each triple serves its
    # orbit's asks at their most bits
    y_bound, members = 2**160, {}
    for s, t, tri, _ in orbit_triples(n, st_box(5), 192, y_bound):
        members.setdefault(id(tri), (tri, []))[1].append((s, t, proof_precision(n, s, t, 192)))
    plans = []
    for tri, asks in members.values():
        asks.append((tri.s, tri.t, roots.candidate_precision(n, tri.s, tri.t, y_bound, 192)))
        plans.append((tri, max(alpha_precision(n, s, t, bits) for s, t, bits in asks),
                      max(bits for _, _, bits in asks)))
    top = max(wp for _, wp, _ in plans)
    for tri, wp, bits in plans:
        K = roots.root_frac_bits(n, wp)
        # a fresh root set, with no power taken yet
        fresh = roots.compute_roots.__wrapped__(n, top)
        want = roots.power_alphas(roots.shift_roots(fresh, K), tri.s, tri.t, bits)
        assert (tri.numerators, tri.radii, tri.frac_bits, tri.precision_bits) == \
            (want.numerators, want.radii, K, bits)
    # one shifted root set per frac_bits, shared by its triples
    by_bits = {}
    for tri, _, _ in plans:
        by_bits.setdefault(tri.frac_bits, set()).add(id(tri.roots))
    assert len(by_bits) > 1 and all(len(ids) == 1 for ids in by_bits.values())
