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

Domain.  The argument needs only three distinct real conjugates, none of
them rational: a totally real, irreducible form.  Every (s, t) but (0, 0)
gives one, the once-twisted (s, 0) and (0, t) included (the argument is in
forms); (0, 0) gives (x - y)^3, and is refused (forms.check_twist).

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
conjugates are irrational.  The two solutions of a pair have one type, as
|-x - alpha_j (-y)| = |x - alpha_j y| for every j, so solve_box types one of
each pair and gives the other the same type.

reduce_to_type1 re-types on a triple powered from the record's root set, and
decompose_unit takes the record's unit and starts its log solve on the
record's triple, so a solve and the steps after it compute the roots of n
once.  A reduction's form check and its target triple depend only on the
certificate and the target pair, so they are made once per target pair and
kept in a memo that solve_box makes for the records of that solve; the
value and the type 1 are still checked per record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import exact_field as ef
from .errors import NotReducible
from .forms import at_power, build_form, check_twist, eval_form, form_of_unit
from .proof import cell_quantities, log_system
from .roots import (AlphaTriple, attempts, candidate_precision, compute_alphas, escalate,
                    fixed_log, power_alphas)

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
    # the solve's checked reduction targets: (s2, t2) -> (form, triple of (s2, t2))
    reductions: dict = field(compare=False, repr=False)

    def as_record(self) -> dict:
        return {"n": self.n, "s": self.s, "t": self.t, "x": self.x, "y": self.y,
                "value": self.value, "type": self.type_j, "trivial": self.trivial}


@dataclass(frozen=True)
class UnitDecomposition:
    b1: int
    b2: int
    sign: int
    b_bar: Optional[int]  # b0 + b1 + b2, the chain's integer; None only if not asked for


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
        b = [abs((x << tri.frac_bits) - num * y) for num in tri.numerators]
        e = [r * abs(y) for r in tri.radii]
        j = min(range(3), key=b.__getitem__)
        if y == 0 or all(b[j] + e[j] < b[i] - e[i] for i in range(3) if i != j):
            return j + 1
        return None

    return escalate(lambda: f"type of (x,y)=({x},{y}) for (n,s,t)={key}", attempts(alphas), decide)


def _brackets(form, tri: AlphaTriple):
    """Certified disjoint brackets around the roots of g, over one denominator.

    Returns ([(lo_j, hi_j) for j = 1, 2, 3], K) with lo_j / 2^K < alpha_j <
    hi_j / 2^K, or None if they are not certified.
    """
    out = [(num - r - 1, num + r + 1) for num, r in zip(tri.numerators, tri.radii)]
    K = tri.frac_bits
    for lo, hi in out:
        # f is homogeneous of degree 3 and 2^K > 0: f(lo, 2^K) has the sign of g(lo / 2^K)
        at_lo, at_hi = at_power(form.A, form.B, lo, K), at_power(form.A, form.B, hi, K)
        if not (at_lo < 0 < at_hi or at_hi < 0 < at_lo):
            return None
    ordered = sorted(out)
    if any(ordered[i][1] >= ordered[i + 1][0] for i in range(2)):
        return None
    return out, K


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
    brackets, K = got
    den = 1 << K
    limit = 8 << 2 * K     # q g > limit gives q G_j > 8
    radius = 4 << 3 * K    # 4 / (G_j y^2) <= 4 den^2 / (g y^2) = radius / (den g y^2)
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
            gy3, w = g * y ** 3, (g * y * y) << K
            out.update((x, y) for x in range(-((radius - lo * gy3) // w),
                                             (hi * gy3 + radius) // w + 1))
    return out


def solve_box(n: int, s: int, t: int, y_bound: int, precision_bits: int = SOLVER_FLOOR_BITS):
    """All solutions of f(x, y) = +-1 with |y| <= y_bound, exactly verified.

    Returns SolutionRecord objects sorted by (|y|, y, x).  Trivial solutions
    (|y| <= 1) are included and flagged.  precision_bits is the least
    precision of the conjugates; more is used as y_bound requires, and where
    the candidates or a type stay undecided (see "Precision" in roots.py).
    Each record carries the unit, the triple that certified it and the solve's
    reduction memo.
    """
    check_twist(s, t)
    if y_bound < 1:
        raise ValueError("y_bound must be >= 1")
    unit = ef.alpha_element(n, s, t)
    tri = compute_alphas(n, s, t, candidate_precision(n, s, t, y_bound, precision_bits))
    found, tri = solve_form(form_of_unit(unit, s, t), y_bound, tri)
    types = {}
    for x, y in found:
        # one type per pair: |-x - alpha_j (-y)| = |x - alpha_j y|
        types[(x, y)] = types.get((-x, -y)) or classify_type(x, y, tri)
    memo = {}
    records = [SolutionRecord(n, s, t, x, y, v, types[(x, y)], abs(y) <= 1, unit, tri, memo)
               for (x, y), v in found.items()]
    records.sort(key=lambda r: (abs(r.y), r.y, r.x))
    return records


def solve_form(form, y_bound: int, tri: AlphaTriple):
    """The exact solution map {(x, y): f(x, y)} with |y| <= y_bound, for a form
    already built from a valid (s, t) and y_bound >= 1, and the AlphaTriple that
    certified it: tri, the form's conjugates, or a later attempt (roots.attempts).
    """
    def decide(cur):
        candidates = _candidates(form, cur, y_bound)
        return None if candidates is None else (candidates, cur)

    candidates, tri = escalate(
        lambda: f"solver candidates for (n,s,t)={(form.n, form.s, form.t)}", attempts(tri), decide)

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
    The first check and the powering are made once per target pair for the
    records of one solve (_reduction_target); the other two, per record.
    """
    _check_record(n, s, t, rec)
    if rec.type_j not in (2, 3):
        raise ValueError("only type-2/3 records can be reduced")
    if rec.type_j == 2:
        new_st = (-t, s - t)
    else:
        new_st = (-s + t, -s)
    f_new, tri = _reduction_target(rec, *new_st)
    if eval_form(f_new, rec.x, rec.y) != rec.value:
        raise NotReducible("record does not solve the transformed equation")
    if classify_type(rec.x, rec.y, tri) != 1:
        raise NotReducible(f"record did not re-classify as type 1 under {new_st}")
    return new_st, True


def _reduction_target(rec: SolutionRecord, s2: int, t2: int):
    """The form of (rec.n, s2, t2), checked equal to that of rec's unit, and the
    triple of (s2, t2) powered from rec's root set at rec's bits.

    Both are made once per target pair and kept in rec.reductions, the memo
    every record of a solve shares.
    """
    memo = rec.reductions
    if (s2, t2) not in memo:
        f_old = form_of_unit(rec.unit, rec.s, rec.t)
        f_new = build_form(rec.n, s2, t2)
        if (f_new.A, f_new.B) != (f_old.A, f_old.B):
            raise NotReducible(f"transformed form differs at (n,s,t)={(rec.n, rec.s, rec.t)}")
        memo[(s2, t2)] = f_new, power_alphas(rec.alphas.roots, s2, t2,
                                             rec.alphas.precision_bits)
    return memo[(s2, t2)]


def _exponent_guess(x: int, y: int, tri: AlphaTriple):
    """(b1, b2) for x - alpha1*y decided on tri, or None: in integers, the
    unit-exponent system of the proof quantities (proof.log_system) on the
    fixed_log of x 2^K - N_j y, x - alpha_j y over 2^K with radius r_j |y|
    (j = 2, 3), and each det e = -R e rounded to the nearest integer e.  A
    difference of open sign, or an e farther than 1/4 from -det e / R, is None."""
    K, ends = tri.frac_bits, zip(tri.numerators[1:], tri.radii[1:])
    diffs = [((x << K) - num * y, r * abs(y)) for num, r in ends]
    if any(abs(d) <= r for d, r in diffs):
        return None
    *dets, _ = log_system(tri.roots, *(fixed_log(d, K) for d in diffs))
    reg = tri.roots.reg_fixed[0]
    # e = -det e / R to the nearest integer; within 1/4 of it when 4 |det e + e R| <= R
    guess = tuple((reg - 2 * v) // (2 * reg) for v in dets)
    return guess if all(4 * abs(v + e * reg) <= reg for v, e in zip(dets, guess)) else None


def decompose_unit(n: int, s: int, t: int, rec: SolutionRecord,
                   with_b_bar: bool = True) -> UnitDecomposition:
    """Exponents (b1, b2) with x - alpha1*y = sign * lam0^b1 * lam1^b2, verified exactly.

    A guess counts only if x - alpha1*y equals +-lam0^b1 * lam1^b2 in the
    exact order Z[lam0], alpha1 being the record's unit.  The first guess is
    the pair the record's shape fixes: (0, 0) when y = 0, as x - alpha1*y is x,
    and (s, t) when x = 0, as it is -y alpha1.  Then each triple of
    roots.attempts(rec.alphas) gives one guess (_exponent_guess), through
    escalate: PrecisionExhausted (exit code 3) if none passes.  b_bar, the
    chain's integer b0 + b1 + b2 (bounds.lower_bound_chain), takes the
    certified b0 of cell_quantities on the record's triple: no second root set.

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
    beta_exact = ef.FieldInt(n, x - alpha.c0 * y, -alpha.c1 * y, -alpha.c2 * y)

    def checked(guess):
        """(b1, b2, sign) if x - alpha1*y = sign * lam0^b1 * lam1^b2 exactly, else None."""
        if guess is None:
            return None
        power = alpha if guess == (s, t) else ef.alpha_element(n, *guess)
        if beta_exact == power:
            return (*guess, 1)
        if beta_exact == -power:
            return (*guess, -1)
        return None

    shape = (0, 0) if y == 0 else (s, t) if x == 0 else None
    b1, b2, sign = checked(shape) or escalate(
        lambda: f"unit exponents for (x,y)=({x},{y})", attempts(rec.alphas),
        lambda tri: checked(_exponent_guess(x, y, tri)))
    b_bar = cell_quantities(rec.alphas, 0, s, t).b0 + b1 + b2 if with_b_bar else None
    return UnitDecomposition(b1, b2, sign, b_bar)
