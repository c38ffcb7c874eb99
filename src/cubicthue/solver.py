"""Bounded search for f(x, y) = +-1, solution typing, and unit decomposition.

Write f(x, y) = prod_j (x - alpha_j y), where alpha_1, alpha_2, alpha_3 are
the three real roots of g(z) = f(z, 1) = z^3 + A z^2 + B z - 1.  Solutions
come in pairs (x, y), (-x, -y) with opposite values, y = 0 gives (+-1, 0), so
the search runs over y >= 1.  A solution is of type j when |x - alpha_j y| is
its smallest factor.  For i != j the triangle inequality gives
|x - alpha_i y| >= |alpha_j - alpha_i| y / 2, and the factors multiply to 1, so

    |x - alpha_j y| <= 4 / (G_j y^2),    G_j = prod_{i != j} |alpha_j - alpha_i|.

Candidate generation is complete by the following argument.  It runs in
integers only.

* Brackets.  Each alpha_j is replaced by the bracket from (N_j - r_j - 1) / D
  to (N_j + r_j + 1) / D, where N_j / D with D = 2^K is its fixed-point value
  and r_j its radius (roots.py), so the integer numerators lo_j < hi_j hold
  alpha_j strictly between them.  A bracket is accepted only if f(lo_j, D)
  and f(hi_j, D) differ in sign; f is homogeneous of degree 3 and D > 0, so
  these are the signs of g at lo_j / D and hi_j / D.  The three brackets
  must also be pairwise disjoint; g has three roots, so each bracket then
  holds exactly one.  The distances between the brackets give an integer g_j
  with G_j >= g_j / D^2.
* Large y.  For y > 8 / G_j the bound above gives |alpha_j - x/y| < 1/(2 y^2),
  and y g_j > 8 D^2 ensures y > 8 / G_j.  A common divisor d of x and y has
  d^3 | f(x, y) = +-1, so x/y is in lowest terms, and by Legendre's theorem
  it is a convergent of alpha_j.  The partial quotients shared by every real
  number in (lo_j / D, hi_j / D), the common prefix of the continued
  fractions of the two ends, are those of alpha_j; the continued fraction
  walk runs on the integers lo_j, hi_j and D.
  Where the prefix stops, the next partial quotient is still at least the
  floor of the lower end; if that does not carry the next denominator past
  y_bound, the candidates are undecided at this precision, and the brackets
  are rebuilt at more bits (see "Precision" in roots.py).
* Small y.  For 1 <= y <= 8 D^2 / g_j, which covers every y <= 8 / G_j, every
  integer x in [lo_j y / D - r, hi_j y / D + r] with r = 4 D^2 / (g_j y^2) >=
  4 / (G_j y^2) is tried; the ends are exact integer floors and ceilings.

This is the reduction step of Tzanakis and de Weger, "On the practical
solution of the Thue equation", J. Number Theory 31 (1989).  Membership in
the output is decided by exact integer evaluation of f at every candidate.

Typing.  Each record keeps its certificate: the exact unit alpha =
lam0^s lam1^t, powered once by solve_box, and the AlphaTriple that certified
the candidates.  The type is decided on the triple's numerators, in integers:
B_j = |x 2^K - N_j y| is |x - alpha_j y| 2^K to within e_j = r_j |y|, so j
is the type when B_j + e_j < B_i - e_i for both i != j.  Otherwise the
type is undecided at this precision, and escalates as the candidates do.
A true tie happens only at y = 0, where every factor is x and the
type is 1: with y != 0, |x - alpha_i y| = |x - alpha_j y| for i != j would
make alpha_i + alpha_j = 2 x / y rational, hence alpha_k = -A - alpha_i -
alpha_j rational too, but alpha is not +-1 (lam0 and lam1 are
multiplicatively independent), so it generates the cubic field and its
conjugates are irrational.  reduce_to_type1 re-types on a triple powered
from the record's root set, and decompose_unit takes the record's unit and
starts its log solve on the record's triple, so a solve and the steps after
it compute the roots of n once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from mpmath import mp, workprec

from . import exact_field as ef
from .asymptotics import cell_quantities
from .errors import DegenerateTwist, NotReducible, RoundingAmbiguous
from .forms import build_form, eval_form, form_of_unit
from .roots import (AlphaTriple, attempts, compute_alphas, doublings, escalate, power_alphas,
                    working_bits)

_MARGIN_BITS = 64        # first attempt: bits beyond 2 log2(y_bound) + log2 max|alpha|
SOLVER_FLOOR_BITS = 160  # solve_box's default least precision of the conjugates


@dataclass(frozen=True)
class SolutionRecord:
    n: int
    s: int
    t: int
    x: int
    y: int
    value: int
    type_j: int
    trivial: bool
    # the certificate (Typing in the module docstring): made only by solve_box
    unit: ef.FieldInt = field(compare=False, repr=False)
    alphas: AlphaTriple = field(compare=False, repr=False)

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


def _check_record(n: int, s: int, t: int, rec: SolutionRecord):
    if (rec.n, rec.s, rec.t) != (n, s, t):
        raise ValueError(f"record of (n,s,t)={(rec.n, rec.s, rec.t)}, not {(n, s, t)}")


def classify_type(x: int, y: int, alphas: AlphaTriple) -> int:
    """The type j of (x, y): the index minimising |x - alpha_j y|, decided in integers.

    See Typing in the module docstring; y = 0 is type 1.  alphas serves the
    first attempt.
    """
    key = (alphas.n, alphas.s, alphas.t)

    def decide(tri):
        den = 1 << tri.frac_bits
        b = [abs(x * den - num * y) for num in tri.numerators]
        e = [r * abs(y) for r in tri.radii]
        j = min(range(3), key=b.__getitem__)
        if y == 0 or all(b[j] + e[j] < b[i] - e[i] for i in range(3) if i != j):
            return j + 1
        return None

    return escalate(lambda: f"type of (x,y)=({x},{y}) for (n,s,t)={key}", alphas, decide)


def _brackets(form, tri: AlphaTriple):
    """Certified disjoint brackets around the roots of g, over one denominator.

    Returns ([(lo_j, hi_j) for j = 1, 2, 3], den) with den = 2^K and
    lo_j / den < alpha_j < hi_j / den, or None if they are not certified.
    """
    out = [(num - r - 1, num + r + 1) for num, r in zip(tri.numerators, tri.radii)]
    den = 1 << tri.frac_bits
    for lo, hi in out:
        # f is homogeneous of degree 3 and den > 0: f(lo, den) has the sign of g(lo / den)
        if eval_form(form, lo, den) * eval_form(form, hi, den) >= 0:
            return None
    ordered = sorted(out)
    if any(ordered[i][1] >= ordered[i + 1][0] for i in range(2)):
        return None
    return out, den


def _convergents(lo: int, hi: int, den: int, q_max: int):
    """Convergents (p, q) with q <= q_max of every real number in (lo/den, hi/den), den > 0.

    None if the bracket is too wide to decide them all.
    """
    out = []
    p, q, p_prev, q_prev = 1, 0, 0, 1
    # the complete quotient lies in (a/b, c/d); d == 0 stands for an infinite c/d
    a, b, c, d = lo, den, hi, den
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
    got = _brackets(form, tri)
    if got is None:
        return None
    brackets, den = got
    limit = 8 * den * den  # q g > limit gives q G_j > 8
    radius = 4 * den ** 3  # 4 / (G_j y^2) <= 4 den^2 / (g y^2) = radius / (den g y^2)
    out = set()
    for j, (lo, hi) in enumerate(brackets):
        g = 1  # G_j >= g / den^2, from the gaps between the brackets
        for i, (lo_i, hi_i) in enumerate(brackets):
            if i != j:
                g *= max(lo_i - hi, lo - hi_i)
        convergents = _convergents(lo, hi, den, y_bound)
        if convergents is None:
            return None
        out.update((p, q) for p, q in convergents if q * g > limit)
        for y in range(1, min(y_bound, limit // g) + 1):
            # x in [lo y / den - r, hi y / den + r] with r = radius / (den g y^2)
            gy3, w = g * y ** 3, den * g * y * y
            out.update((x, y) for x in range(-((radius - lo * gy3) // w),
                                             (hi * gy3 + radius) // w + 1))
    return out


def solve_box(n: int, s: int, t: int, y_bound: int, precision_bits: int = SOLVER_FLOOR_BITS):
    """All solutions of f(x, y) = +-1 with |y| <= y_bound, exactly verified.

    Returns SolutionRecord objects sorted by (|y|, y, x).  Trivial solutions
    (|y| <= 1) are included and flagged.  precision_bits is the least
    precision of the conjugates; more is used as y_bound requires, and where
    the candidates or a type stay undecided (see "Precision" in roots.py).
    Each record carries the unit and the triple that certified it.
    """
    _validate_st(s, t)
    if y_bound < 1:
        raise ValueError("y_bound must be >= 1")
    unit = ef.alpha_element(n, s, t)
    tri = compute_alphas(n, s, t, _first_bits(n, s, t, y_bound, precision_bits))
    found, tri = _solve_form(form_of_unit(unit, s, t), y_bound, tri)
    records = [SolutionRecord(n, s, t, x, y, v, classify_type(x, y, tri), abs(y) <= 1, unit, tri)
               for (x, y), v in found.items()]
    records.sort(key=lambda r: (abs(r.y), r.y, r.x))
    return records


def _first_bits(n: int, s: int, t: int, y_bound: int, precision_bits: int) -> int:
    """The precision of the solver's first attempt: at least precision_bits, and
    the bits the convergents up to y_bound need (see "Precision" in roots.py)."""
    need = 2 * math.log2(y_bound + 1) + _MARGIN_BITS
    return max(precision_bits, working_bits(n, abs(s) + abs(t), need))


def _solve_form(form, y_bound: int, tri: AlphaTriple):
    """The exact solution map {(x, y): f(x, y)} with |y| <= y_bound, for a form
    already built from a valid (s, t) and y_bound >= 1, and the AlphaTriple that
    certified it: tri, the form's conjugates, or a later attempt (roots.attempts).
    """
    def decide(cur):
        candidates = _candidates(form, cur, y_bound)
        return None if candidates is None else (candidates, cur)

    candidates, tri = escalate(
        lambda: f"solver candidates for (n,s,t)={(form.n, form.s, form.t)}", tri, decide)

    found = {}
    for x, y in candidates | {(1, 0)}:
        v = eval_form(form, x, y)
        if v == 1 or v == -1:
            found[(x, y)] = v
            found[(-x, -y)] = -v
    return found, tri


def reduce_to_type1(n: int, s: int, t: int, rec: SolutionRecord):
    """Map a type-2/3 record to the parameter pair under which it is type 1.

    The conjugate permutation (s, t) -> (-s+t, -s) relabels alpha3 as the
    first conjugate, so type-3 records reduce through it; applying it twice,
    (s, t) -> (-t, s-t), relabels alpha2 first and handles type 2.  The form
    itself is unchanged by either map (the linear factors are permuted), so
    (x, y) stays a solution.  All three are checked: the new form, built by
    exact powering, equals the one of the record's unit; it takes the
    record's value at (x, y); and the record re-types as 1 on the new
    conjugates, powered from the record's root set on their own (not
    rotated from its triple), so that the orbit identity is checked too.
    """
    _check_record(n, s, t, rec)
    if rec.type_j not in (2, 3):
        raise ValueError("only type-2/3 records can be reduced")
    if rec.type_j == 2:
        new_st = (-t, s - t)
    else:
        new_st = (-s + t, -s)
    s2, t2 = new_st
    f_old = form_of_unit(rec.unit, s, t)
    f_new = build_form(n, s2, t2)
    if (f_new.A, f_new.B) != (f_old.A, f_old.B):
        raise NotReducible(f"transformed form differs at (n,s,t)={(n, s, t)}")
    if eval_form(f_new, rec.x, rec.y) != rec.value:
        raise NotReducible("record does not solve the transformed equation")
    tri = power_alphas(rec.alphas.roots, s2, t2, rec.alphas.precision_bits)
    if classify_type(rec.x, rec.y, tri) != 1:
        raise NotReducible(f"record did not re-classify as type 1 under {new_st}")
    return new_st, True


def _exponent_guesses(x: int, y: int, first: AlphaTriple):
    """Candidate (b1, b2) for x - alpha1*y, in the order decompose_unit tries them.

    First the pair the record's shape fixes, if it has one: x - alpha1*y is x
    when y = 0 and -y * lam0^s * lam1^t when x = 0, (s, t) being first's.  Then
    the rounded real solution of the 2x2 log-linear system on each triple of
    roots.attempts(first); a rounding that is not clear-cut yields no guess.
    """
    if y == 0:
        yield 0, 0
    elif x == 0:
        yield first.s, first.t
    for tri in attempts(first):
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
            yield b1, b2


def decompose_unit(n: int, s: int, t: int, rec: SolutionRecord,
                   with_b_bar: bool = True) -> UnitDecomposition:
    """Exponents (b1, b2) with x - alpha1*y = sign * lam0^b1 * lam1^b2, verified exactly.

    The guesses of _exponent_guesses are tried in order: first the pair the
    record's shape fixes, (0, 0) when y = 0 and (s, t) when x = 0, then the
    rounded solutions of the log-linear system, on the record's own triple
    and then at doubling precision.  The first guess for which x - alpha1*y
    equals +-lam0^b1 * lam1^b2 in the exact order Z[lam0] is returned, alpha1
    being the record's unit; RoundingAmbiguous is raised if none does.
    b_bar takes the certified b0 of cell_quantities on the record's triple,
    so no second root set is computed.

    A guess that passes the exact test is the answer: lam0 and lam1 are
    multiplicatively independent (E. Thomas, J. reine angew. Math. 310, 1979),
    and +-1 are the only roots of unity in a real field, so x - alpha1*y has
    one sign and one exponent pair.  So a shape guess that passes returns what
    the log solve returns whenever that succeeds, without computing it.
    """
    _check_record(n, s, t, rec)
    if abs(rec.value) != 1:
        raise ValueError("record is not a unit solution")
    x, y = rec.x, rec.y
    alpha = rec.unit
    beta_exact = ef.FieldInt(n, x, 0, 0) - alpha * y
    for b1, b2 in _exponent_guesses(x, y, rec.alphas):
        if (b1, b2) == (s, t):
            power = alpha
        elif (b1, b2) == (0, 0):
            power = ef.one(n)
        else:
            power = ef.alpha_element(n, b1, b2)
        if beta_exact == power:
            sign = 1
        elif beta_exact == -power:
            sign = -1
        else:
            continue
        b_bar = None
        if with_b_bar and s * t != 0:
            tri = rec.alphas
            b_bar = cell_quantities(tri, 0, {}, s, t, tri.precision_bits).b0 - b1 - b2
        return UnitDecomposition(b1, b2, sign, b_bar)
    raise RoundingAmbiguous(
        f"unit exponents for (x,y)=({x},{y}) stayed ambiguous up to "
        f"{doublings(rec.alphas.precision_bits)[-1]} bits"
    )
