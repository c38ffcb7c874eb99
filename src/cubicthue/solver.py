"""Bounded search for f(x, y) = +-1, solution typing, and unit decomposition.

Write f(x, y) = prod_j (x - alpha_j y), where alpha_1, alpha_2, alpha_3 are
the three real roots of g(z) = f(z, 1) = z^3 + A z^2 + B z - 1.  Solutions
come in pairs (x, y), (-x, -y) with opposite values, y = 0 gives (+-1, 0), so
the search runs over y >= 1.  A solution is of type j when |x - alpha_j y| is
its smallest factor.  For i != j the triangle inequality gives
|x - alpha_i y| >= |alpha_j - alpha_i| y / 2, and the factors multiply to 1, so

    |x - alpha_j y| <= 4 / (G_j y^2),    G_j = prod_{i != j} |alpha_j - alpha_i|.

Candidate generation is complete by the following argument.

* Brackets.  Each alpha_j is replaced by a rational bracket lo < alpha_j < hi
  taken from its numeric value.  A bracket is accepted only if g changes sign
  across it, by exact integer evaluation of f at its endpoints, and the three
  brackets are pairwise disjoint; g has three roots, so each bracket then
  holds exactly one.  The distances between the brackets give a rational
  lower bound G on G_j.
* Large y.  For y > 8 / G the bound above gives |alpha_j - x/y| < 1/(2 y^2).
  A common divisor d of x and y has d^3 | f(x, y) = +-1, so x/y is in lowest
  terms, and by Legendre's theorem it is a convergent of alpha_j.  The
  partial quotients shared by every real number in (lo, hi), the common
  prefix of the continued fractions of lo and hi, are those of alpha_j.
  Where the prefix stops, the next partial quotient is still at least the
  floor of the lower end; if that does not carry the next denominator past
  y_bound, the precision is doubled and the brackets are rebuilt, and after
  the last attempt PrecisionExhausted is raised.
* Small y.  For 1 <= y <= 8 / G every integer x in [lo y - r, hi y + r] with
  r = 4 / (G y^2) is tried.

This is the reduction step of Tzanakis and de Weger, "On the practical
solution of the Thue equation", J. Number Theory 31 (1989).  Membership in
the output is decided by exact integer evaluation of f at every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mpmath import mp, workprec

from . import exact_field as ef
from .asymptotics import compute_proof_quantities
from .errors import DegenerateTwist, NotReducible, PrecisionExhausted, RoundingAmbiguous
from .forms import build_form, eval_form
from .roots import AlphaTriple, compute_alphas

_MARGIN_BITS = 64        # first attempt: bits beyond 2 log2(y_bound) + log2 max|alpha|
_PRECISION_ATTEMPTS = 4  # the precision doubles between attempts


@dataclass(frozen=True)
class SolutionRecord:
    n: int
    s: int
    t: int
    x: int
    y: int
    value: int
    type_j: int
    beta_abs: tuple
    trivial: bool

    def as_record(self) -> dict:
        return {"n": self.n, "s": self.s, "t": self.t, "x": self.x, "y": self.y,
                "value": self.value, "type": self.type_j, "trivial": self.trivial}


@dataclass(frozen=True)
class UnitDecomposition:
    b1: int
    b2: int
    sign: int
    b_bar: Optional[int]  # b0 - b1 - b2; None for the untwisted sanity cases (s*t = 0)


def _validate_st(s: int, t: int):
    if s * t == 0 and (s, t) not in ((1, 0), (0, 1)):
        raise DegenerateTwist(f"(s, t) = {(s, t)} is outside the solver's domain")


def _betas(x: int, y: int, alphas: AlphaTriple):
    """(|x - alpha_j y| for j = 1, 2, 3; the j minimising it, ties to the smallest)."""
    with workprec(alphas.roots.precision_bits):
        betas = tuple(abs(x - a * y) for a in alphas.alphas)
    return betas, min(range(3), key=betas.__getitem__) + 1


def classify_type(x: int, y: int, alphas: AlphaTriple) -> int:
    """Index j minimising |x - alpha_j y|; ties go to the smallest index."""
    return _betas(x, y, alphas)[1]


def _make_record(n, s, t, x, y, value, alphas) -> SolutionRecord:
    betas, type_j = _betas(x, y, alphas)
    return SolutionRecord(n, s, t, x, y, value, type_j,
                          tuple(float(b) for b in betas), abs(y) <= 1)


def _brackets(form, tri: AlphaTriple):
    """Certified disjoint brackets (lo, hi), one around each root of g; None if not certified."""
    out = []
    for a in tri.alphas:
        # a has relative error below 2^-precision_bits, far inside the +-2^(1-k) bracket
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


def _convergents(lo: Fraction, hi: Fraction, q_max: int):
    """Convergents (p, q) with q <= q_max of every real number in (lo, hi).

    None if the bracket is too wide to decide them all.
    """
    out = []
    p, q, p_prev, q_prev = 1, 0, 0, 1
    # the complete quotient lies in (a/b, c/d); d == 0 stands for an infinite c/d
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    while True:
        m = a // b
        if d == 0 or c // d != m:
            # the next partial quotient is at least m, its denominator at least m q + q_prev
            return out if m * q + q_prev > q_max else None
        p, q, p_prev, q_prev = m * p + p_prev, m * q + q_prev, p, q
        if q > q_max:
            return out
        out.append((p, q))
        a, b, c, d = d, c - m * d, b, a - m * b


def _candidates(form, tri: AlphaTriple, y_bound: int):
    """Candidate pairs (x, y), y >= 1, that contain every solution; None if precision is short."""
    brackets = _brackets(form, tri)
    if brackets is None:
        return None
    out = set()
    for j, (lo, hi) in enumerate(brackets):
        g = Fraction(1)  # lower bound on G_j from the gaps between the brackets
        for i, (lo_i, hi_i) in enumerate(brackets):
            if i != j:
                g *= max(lo_i - hi, lo - hi_i)
        convergents = _convergents(lo, hi, y_bound)
        if convergents is None:
            return None
        out.update((p, q) for p, q in convergents if q * g > 8)
        for y in range(1, min(y_bound, math.floor(8 / g)) + 1):
            r = 4 / (g * y * y)
            out.update((x, y) for x in range(math.ceil(lo * y - r), math.floor(hi * y + r) + 1))
    return out


def solve_box(n: int, s: int, t: int, y_bound: int, precision_bits: int = 160):
    """All solutions of f(x, y) = +-1 with |y| <= y_bound, exactly verified.

    Returns SolutionRecord objects sorted by (|y|, y, x).  Trivial solutions
    (|y| <= 1) are included and flagged.  precision_bits is the least
    precision of the conjugates; more is used as y_bound requires.  Raises
    PrecisionExhausted if the candidates stay undecided after the last
    precision doubling.
    """
    _validate_st(s, t)
    return _solve_form(build_form(n, s, t), y_bound, precision_bits)


def _solve_form(form, y_bound: int, precision_bits: int):
    """solve_box for a form that is already built from a valid (s, t)."""
    if y_bound < 1:
        raise ValueError("y_bound must be >= 1")
    n, s, t = form.n, form.s, form.t
    # (|s| + |t|) log2(n + 2) bounds log2 max|alpha|
    bits = (abs(s) + abs(t)) * math.log2(n + 2) + 2 * math.log2(y_bound + 1) + _MARGIN_BITS
    pb = max(precision_bits, int(bits))
    for _ in range(_PRECISION_ATTEMPTS):
        tri = compute_alphas(n, s, t, pb)
        candidates = _candidates(form, tri, y_bound)
        if candidates is not None:
            break
        pb *= 2
    else:
        raise PrecisionExhausted(
            f"solver candidates for (n,s,t)={(n, s, t)} undecided at {pb // 2} bits")

    found = {}
    for x, y in candidates | {(1, 0)}:
        v = eval_form(form, x, y)
        if v == 1 or v == -1:
            found[(x, y)] = v
            found[(-x, -y)] = -v

    records = [_make_record(n, s, t, x, y, v, tri) for (x, y), v in found.items()]
    records.sort(key=lambda r: (abs(r.y), r.y, r.x))
    return records


def reduce_to_type1(n: int, s: int, t: int, rec: SolutionRecord, precision_bits: int = 192):
    """Map a type-2/3 record to the parameter pair under which it is type 1.

    The conjugate permutation (s, t) -> (-s+t, -s) relabels alpha3 as the
    first conjugate, so type-3 records reduce through it; applying it twice,
    (s, t) -> (-t, s-t), relabels alpha2 first and handles type 2.  The form
    itself is unchanged by either map (the linear factors are permuted), so
    (x, y) stays a solution; we re-classify and demand type 1.
    """
    if rec.type_j not in (2, 3):
        raise ValueError("only type-2/3 records can be reduced")
    if rec.type_j == 2:
        new_st = (-t, s - t)
    else:
        new_st = (-s + t, -s)
    s2, t2 = new_st
    f_old = build_form(n, s, t)
    f_new = build_form(n, s2, t2)
    if (f_new.A, f_new.B) != (f_old.A, f_old.B):
        raise NotReducible(f"transformed form differs at (n,s,t)={(n, s, t)}")
    if eval_form(f_new, rec.x, rec.y) != rec.value:
        raise NotReducible("record does not solve the transformed equation")
    tri = compute_alphas(n, s2, t2, precision_bits)
    if classify_type(rec.x, rec.y, tri) != 1:
        raise NotReducible(f"record did not re-classify as type 1 under {new_st}")
    return new_st, True


def decompose_unit(n: int, s: int, t: int, rec: SolutionRecord,
                   precision_bits: int = 192, with_b_bar: bool = True) -> UnitDecomposition:
    """Exponents (b1, b2) with x - alpha1*y = sign * lam0^b1 * lam1^b2, verified exactly.

    The real solution of the 2x2 log-linear system is rounded to integers and
    the claimed identity re-checked in the exact order; on ambiguous rounding
    the precision is raised and the solve retried.
    """
    if abs(rec.value) != 1:
        raise ValueError("record is not a unit solution")
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
            return UnitDecomposition(b1, b2, sign, b_bar)
        pb *= 2
    raise RoundingAmbiguous(
        f"unit exponents for (x,y)=({x},{y}) stayed ambiguous up to {pb} bits"
    )
