"""Explicit upper bound, the lower-bound chain, and the empirical crossover scan.

The upper bound is the classical effective estimate for Thue equations
F(x, y) = b over a field with regulator R, unit rank r and form height H:

    log max(|x|, |y|) < c3 * R * max(log R, 1) * (R + log(H*B)),
    c3 = 3^(r+27) * (r+1)^(7r+19) * d^(2d+6r+14)      (d = degree).

The lower-bound chain turns the measured proof quantities into the implied
lower bound on log|y| for a hypothetical nontrivial solution:

    log|y| >= (R - v_bar - (3/4) log(n)/n) * n / 3.

Two of its hypotheses, u_bar > 0 and 0 < v_bar < R, hold for every
ProofQuantities (proof.py proves both), so a cell can fail only the other
three, and the chain names them: n >= 1, as log(n)/n is undefined at n = 0
(refused before b0 is computed), the w_bar absorption inequality, and room
R - v_bar > (3/4) log(n)/n above the absorbed w_bar term.  The scan reports,
per grid cell, whether the lower bound exceeds the upper one; the reported
threshold is an EMPIRICAL surrogate, not a proof.

Every decision and every value is made in the fixed point of roots.py:
integers over a power of two, each with an integer radius.  The constants of
n (R, c3 R max(log R, 1), log max(b, e) and log n) are held over
2^(precision_bits + 48), their logs taken by roots.fixed_log with its proved
radius, and the upper bound is their fixed-point combination with log H.  The
chain's slack R - v_bar - (3/4) log(n)/n is an integer over the cell's 2^K,
and the lower bound is slack * n / (3 * 2^K).  The w_bar absorption, the
slack's sign and the crossover lower > upper are interval tests: each is
certainly true, certainly false, or open within the summed radii, where the
cell retries at doubled bits (_decided).  The proof quantities' own integers
(u1, u2, d12, d13, R and v_bar of the cell) carry no radius here yet.  No
value depends on a working precision: bg_upper_bound and
lower_bound_chain return exact Fractions, a report's values are floats or,
beyond float range, Fractions (a margin rounded to 53 bits), and cli prints them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ChainPreconditionFailed, EmptyGrid
from .forms import BinaryCubicForm, build_form, check_twist, height, phi_transform, st_box
# compute_proof_quantities is re-exported: benchmarks/tracer.py wraps it here
from .proof import _one_cell, _quantities, compute_proof_quantities  # noqa: F401
from .roots import _shifted, attempts, compute_roots, escalate, fixed_log, fixed_mul, orbit_triples

_CONST_GUARD = 48   # the constants of n carry precision_bits + 48 fraction bits


def ratio_float(num: int, den: int) -> float:
    """num / den for integers, correctly rounded to a float; +-inf beyond float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num < 0) == (den < 0) else -math.inf


def float_power(n: int, exponent: float) -> float:
    """n ** exponent for an integer n >= 0 of any size; math.inf beyond float range.

    Where n ** exponent is a float it is returned as it is; for an n beyond
    float range the power is taken through math.log, which accepts any int.
    """
    try:
        return n ** exponent
    except OverflowError:
        try:
            return math.exp(exponent * math.log(n))
        except OverflowError:
            return math.inf


def _exact(num: int, den: int):
    """num / den as a Fraction."""
    # fractions, with the decimal it loads, is imported here, not with the module:
    # import cubicthue would pay for it on every start, for values few runs make
    from fractions import Fraction
    return Fraction(num, den)


def c3_constant(degree: int, rank: int) -> int:
    """Exact integer value of the bound constant for (degree, rank)."""
    if degree < 3 or rank < 1:
        raise ValueError("need degree >= 3 and rank >= 1")
    return 3 ** (rank + 27) * (rank + 1) ** (7 * rank + 19) * degree ** (2 * degree + 6 * rank + 14)


def _log_int(m: int, frac_bits: int):
    """log m over 2^frac_bits with its radius, for an integer m >= 1 (roots.fixed_log)."""
    return fixed_log((m << frac_bits, 0), frac_bits)


def _log_n(n: int, frac_bits: int):
    """log n over 2^frac_bits with its radius: exact at n = 1, None at n = 0, where
    (3/4) log(n)/n is undefined."""
    if n <= 1:
        return (0, 0) if n else None
    return _log_int(n, frac_bits)


def _rescaled(pair, from_bits: int, to_bits: int):
    """A (numerator, radius) pair over 2^from_bits, over 2^to_bits: exactly where
    to_bits is larger, by the floor shift of roots.py where it is smaller."""
    if to_bits >= from_bits:
        return pair[0] << (to_bits - from_bits), pair[1] << (to_bits - from_bits)
    return _shifted([pair], from_bits - to_bits)[0]


@dataclass(frozen=True)
class _NConstants:
    """The parts of the upper bound and of the lower-bound chain that depend on n
    (and b_abs) alone: (numerator, radius) pairs over 2^frac_bits, frac_bits =
    precision_bits + 48.

    regulator is R, upper_factor c3 * R * max(log R, 1), log_b log max(b_abs, e)
    (exactly 1 for b_abs <= 2) and log_n log n (None at n = 0).  R is the
    regulator of the given root set: bg_upper_bound gives compute_roots(n,
    precision_bits), _level the root set of the first attempt at its bits.
    """

    frac_bits: int
    regulator: tuple
    upper_factor: tuple
    log_b: tuple
    log_n: Optional[tuple]


def _n_constants(rs, b_abs: int, precision_bits: int) -> _NConstants:
    F = precision_bits + _CONST_GUARD
    one = 1 << F
    reg = _rescaled(rs.reg_fixed, rs.frac_bits, F)
    log_reg, r_log = fixed_log(reg, F)
    # x -> max(x, 1) moves no two values farther apart, so the radius holds
    num, r = fixed_mul(reg, (max(log_reg, one), r_log), F)
    c3 = c3_constant(3, 2)
    log_b = (one, 0) if b_abs <= 2 else _log_int(b_abs, F)
    return _NConstants(F, reg, (c3 * num, c3 * r), log_b, _log_n(rs.n, F))


def bg_upper_bound(n: int, s: int, t: int, b_abs: int = 1, precision_bits: int = 192):
    """Upper bound on log max(|x|, |y|) for |f(x, y)| <= b_abs, as a Fraction: the
    fixed-point numerator of _upper_bound over its power of two.  DegenerateTwist at
    (s, t) = (0, 0) before any root set."""
    check_twist(s, t)
    if b_abs < 1:
        raise ValueError("b_abs must be >= 1")
    const = _n_constants(compute_roots(n, precision_bits), b_abs, precision_bits)
    return _exact(_upper_bound(build_form(n, s, t), const)[0], 1 << const.frac_bits)


def _upper_bound(form, const: _NConstants):
    """bg_upper_bound for a form that is already built, from the constants of its n:
    (numerator, radius) over 2^const.frac_bits."""
    # height is already floored at 3
    parts = (const.regulator, _log_int(height(form), const.frac_bits), const.log_b)
    total = (sum(num for num, _ in parts), sum(r for _, r in parts))
    return fixed_mul(const.upper_factor, total, const.frac_bits)


def lower_bound_chain(n: int, s: int, t: int, precision_bits: int = 192):
    """Implied lower bound on log|y| under b_bar = b0 + b1 + b2 >= 1, as an exact
    Fraction: _decided on the one-cell triple, with no crossover.

    Raises ChainPreconditionFailed (naming the violated inequality) where the
    chain's numeric hypotheses do not hold; some parameter pairs violate them
    at every n and are simply outside the chain's reach.
    """
    tri = _one_cell(n, s, t, precision_bits)
    q, (slack, _), _ = _decided(tri, 0, s, t, {}, 1, precision_bits)
    return _exact(slack * n, 3 << q.frac_bits)


def _at_most(x: int, factors) -> bool:
    """x <= the product of factors, for integers x >= 0 and factors >= 0.

    Decided from bit lengths where they settle it: a product of k factors >= 1
    whose lengths sum to l lies in [2^(l-k), 2^l), so x is at most it when x has
    at most l - k bits, and above it when x has more than l bits.  Otherwise
    the product is multiplied out.
    """
    if not all(factors):
        return x == 0
    length = sum(f.bit_length() for f in factors)
    if x.bit_length() <= length - len(factors):
        return True
    if x.bit_length() > length:
        return False
    return x <= math.prod(factors)


def _absorb_threshold(log_n, frac_bits: int, n: int, K: int):
    """(3/4) log(n)/n over 2^K with its radius, from log n over 2^frac_bits:
    3 L 2^K // (4 n 2^frac_bits), which keeps its relative precision at every n.  The
    floor adds a unit to the radius only where the division leaves a remainder."""
    L, r = log_n
    den = (4 * n) << frac_bits
    a, rem = divmod(3 * L << K, den)
    return a, -(-(3 * r << K) // den) + (rem != 0)


def _absorbed(q, a: int, r: int):
    """The w_bar absorption |w_bar| / (2 |d12| |d13|) <= A of q's cell, A = (a, r) over
    2^K: |U1 D13 + U2 D12| 2^(3K) <= 2 D12^2 D13^2 A, decided by _at_most at A's lower
    end and, where that fails, at its upper end; None where the two ends disagree."""
    K = q.frac_bits
    w = abs(q.u1_num * q.diff13_num + q.u2_num * q.diff12_num) << 3 * K
    d12, d13 = abs(q.diff12_num), abs(q.diff13_num)
    if _at_most(w, (2, d12, d12, d13, d13, max(a - r, 0))):
        return True
    return None if _at_most(w, (2, d12, d12, d13, d13, a + r)) else False


def _chain(q, log_n, frac_bits: int):
    """The chain's slack R - v_bar - (3/4) log(n)/n for the proof quantities q of a
    cell at n >= 1, as (numerator, radius) over 2^K, K = q.frac_bits, from log n over
    2^frac_bits; the lower bound is slack * n / (3 * 2^K).

    It tests the two hypotheses a cell at n >= 1 can fail: the w_bar absorption
    at the threshold A = (3/4) log(n)/n, by _absorbed, and the slack's sign, at both
    ends of A's radius.  A certain failure raises ChainPreconditionFailed; where
    the absorption or the sign is open, None.  u_bar > 0 and 0 < v_bar < R hold
    for every ProofQuantities (see proof.py), and _decided refuses n = 0.
    """
    K = q.frac_bits
    one = 1 << K
    a, r = _absorb_threshold(log_n, frac_bits, q.n, K)
    if not (absorbed := _absorbed(q, a, r)):
        if absorbed is None:
            return None
        raise ChainPreconditionFailed(
            "w_bar absorption",
            f"lhs = {ratio_float(*q.absorb_ratio()):.3g}, rhs = {ratio_float(a, one):.3g}")
    slack = q.regulator_num - q.v_bar_num - a
    if slack <= r:
        if slack >= -r:
            return None
        raise ChainPreconditionFailed(
            "R - v_bar > (3/4) log(n)/n", f"slack = {ratio_float(slack, one):.3g}")
    return slack, r


def _crosses(q, slack, upper, frac_bits: int):
    """lower > upper, for the lower bound slack * n / (3 * 2^K) of q's cell and the
    upper bound over 2^frac_bits, each with its radius; None where the radii leave
    it open."""
    (num, r), (u, ru), K = slack, upper, q.frac_bits
    gap = (num * q.n << frac_bits) - (3 * u << K)
    return None if abs(gap) <= (r * q.n << frac_bits) + (3 * ru << K) else gap > 0


def _level(consts: dict, cur, first, b_abs: int, precision_bits: int) -> _NConstants:
    """The constants of n for the attempt cur of roots.attempts(first): at precision_bits
    doubled as often as first's bits, built from cur's root set once per n and level."""
    k = cur.precision_bits // first.precision_bits
    return consts.get(k) or consts.setdefault(k, _n_constants(cur.roots, b_abs, precision_bits * k))


def _decided(tri, shift: int, s: int, t: int, consts: dict, b_abs: int, precision_bits: int,
             form=None, upper=None):
    """(q, slack, crossover) of the cell (s, t) whose conjugates are tri's from index shift
    on: b0, the chain and, given the form and its first upper bound, the crossover (else
    False), decided on each of roots.attempts(tri) in turn with the constants of its level.
    A cell at n = 0 fails the chain's n >= 1 before its b0 is computed."""
    if tri.n == 0:
        raise ChainPreconditionFailed("n >= 1", "(3/4) log(n)/n is undefined at n = 0")
    open_test = "b0"

    def decide(cur):
        nonlocal open_test
        const, q = _level(consts, cur, tri, b_abs, precision_bits), _quantities(cur, shift, s, t)
        open_test = "b0" if q is None else "w_bar absorption or R - v_bar > (3/4) log(n)/n"
        slack = q and _chain(q, const.log_n, const.frac_bits)
        if slack is None or form is None:   # open, or no crossover asked
            return slack and (q, slack, False)
        open_test = "crossover lower > upper"
        up = upper if cur is tri else _upper_bound(form, const)
        crossover = _crosses(q, slack, up, const.frac_bits)
        return None if crossover is None else (q, slack, crossover)

    return escalate(lambda: f"{open_test} for (n,s,t)={(tri.n, s, t)}", attempts(tri), decide)


@dataclass(frozen=True)
class BoundReport:
    n: int
    s: int
    t: int
    c3: int
    H: int
    B_rhs: float               # upper-bound exponent
    lower_chain: Optional[object]  # a float, or a Fraction beyond float range
    crossover: bool
    chain_failure: str = ""    # named precondition if the chain does not apply
    precision_bits: int = 192

    @property
    def margin(self):
        """lower_chain / B_rhs (None where the chain does not apply), correctly
        rounded to 53 bits: a float in float range, else a Fraction.  int / int
        rounds correctly, so a quotient beyond float range is divided by 2^k into
        it, and the float multiplied back by 2^k."""
        if not self.lower_chain:
            return None
        (num, den), (b_num, b_den) = (v.as_integer_ratio() for v in (self.lower_chain, self.B_rhs))
        num, den = num * b_den, den * b_num
        k = max(num.bit_length() - den.bit_length() - 1000, 0)
        q = num / (den << k)
        try:
            return math.ldexp(q, k)
        except OverflowError:
            return _exact(int(q) << k, 1)

    def as_record(self) -> dict:
        return {"n": self.n, "s": self.s, "t": self.t, "c3": str(self.c3),
                "H": str(self.H), "B_rhs": self.B_rhs, "lower_chain": self.lower_chain,
                "crossover": self.crossover, "chain_failure": self.chain_failure,
                "precision_bits": self.precision_bits}

    def row(self) -> dict:
        """The bound fields of a scan row, in the scan's column order."""
        return {"upper": self.B_rhs, "lower": self.lower_chain, "margin": self.margin,
                "chain_failure": self.chain_failure, "crossover": self.crossover,
                "precision_bits": self.precision_bits}


def bound_report(n: int, s: int, t: int, b_abs: int = 1, precision_bits: int = 192) -> BoundReport:
    """The BoundReport of one cell: cell_reports for the pairs [(s, t)]."""
    (_, _, rep), = cell_reports(n, [(s, t)], precision_bits, b_abs=b_abs)
    return rep


def cell_reports(n: int, pairs, precision_bits: int, y_bound=None, b_abs: int = 1):
    """Yield (form, tri, BoundReport) for each (s, t) of pairs, in order.

    The one per-cell bound path: bound_report is a batch of one, the scans
    batch the cells of an n.  b_abs >= 1, and (s, t) != (0, 0) by check_twist in
    orbit_triples, are checked before any root set.  The cells go by phi-orbit
    (roots.orbit_triples, which plans their triples, bits and mirror links, and
    takes y_bound) and share the form of their orbit's representative, built
    once per mirrored pair of orbits; a form carries the (s, t) of its cell.
    The constants of n are built once per level (_level), the first from the
    first triple's root set, the upper bound once per mirrored pair of forms,
    and b0, the chain and the crossover per cell (_decided), the once-twisted
    cells (s, 0) and (0, t) as the others.  tri is the orbit's triple, in the
    order of the first cell of the orbit.

    The form of (-s, -t) is the reversed cubic of that of (s, t), (A, B) ->
    (-B, -A), as its conjugates are the inverses, alpha(-s, -t) = 1/alpha(s, t):
    so the orbit of (-s, -t), phi being linear, takes the reversed form of the
    orbit of (s, t) where that is built first.  Its height is the same, so is its
    upper bound.
    """
    if b_abs < 1:
        raise ValueError("b_abs must be >= 1")
    consts, forms, uppers = {}, {}, {}
    for s, t, tri, shift in orbit_triples(n, pairs, precision_bits, y_bound):
        orbit = (tri.s, tri.t)
        if orbit not in forms:
            mirror = forms.get((-tri.s, -tri.t))
            forms[orbit] = (BinaryCubicForm(n, *orbit, -mirror.B, -mirror.A) if mirror
                            else build_form(n, *orbit))
            once = phi_transform(*orbit)
            forms[once] = forms[phi_transform(*once)] = forms[orbit]
        form = forms[orbit]
        if shift:
            form = BinaryCubicForm(n, s, t, form.A, form.B)
        const = _level(consts, tri, tri, b_abs, precision_bits)
        key = min((form.A, form.B), (-form.B, -form.A))
        upper = uppers.get(key) or uppers.setdefault(key, _upper_bound(form, const))
        lower, failure, crossover = None, "", False
        try:
            q, (slack, _), crossover = _decided(tri, shift, s, t, consts, b_abs, precision_bits,
                                                form, upper)
            num, den = slack * n, 3 << q.frac_bits
            lower = ratio_float(num, den)
            lower = _exact(num, den) if math.isinf(lower) else lower   # beyond float range
        except ChainPreconditionFailed as exc:
            failure = exc.inequality
        yield form, tri, BoundReport(n, s, t, c3_constant(3, 2), height(form),
                                     ratio_float(upper[0], 1 << const.frac_bits), lower,
                                     crossover, failure, precision_bits)


@dataclass
class N0ScanReport:
    epsilon: float
    n_grid: list
    rows: list                       # one dict per (n, s, t)
    threshold: Optional[int]         # least grid n after which all applicable pairs cross
    inapplicable_pairs: list         # chain preconditions fail even at the largest grid n
    margin_curve: list = field(default_factory=list)  # (n, min margin over applicable pairs)


def n0_scan(epsilon: float, n_grid, st_policy: int = 2, precision_bits: int = 192) -> N0ScanReport:
    """Compare the lower-bound chain against the upper bound across a grid.

    At each n the tested pairs are all (s, t) with s*t != 0 and
    max(|s|, |t|) <= min(st_policy, floor(n^(1/2 - epsilon))).  The
    reported threshold is empirical: it is the least grid n beyond which
    lower > upper holds at every tested (s, t) for which the chain applies.
    Pairs whose chain preconditions fail even at the largest n are reported
    separately rather than silently dropped.
    """
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    n_grid = sorted(set(int(n) for n in n_grid))
    if not n_grid:
        raise EmptyGrid("n0 scan needs a nonempty n grid")

    rows = []
    for n in n_grid:
        pairs = st_box(int(math.floor(min(st_policy, float_power(n, 0.5 - epsilon)))))
        for _, _, rep in cell_reports(n, pairs, precision_bits):
            rows.append({"n": n, "s": rep.s, "t": rep.t, **rep.row()})

    # the box grows with n, so every pair has a row at the largest n
    inapplicable = sorted((r["s"], r["t"]) for r in rows
                          if r["n"] == n_grid[-1] and r["chain_failure"])
    crossed_from, margins = {}, {}   # pair -> first n of its last run of crossovers
    for r in rows:   # in n order
        pair = (r["s"], r["t"])
        if pair in inapplicable:
            continue
        if not r["crossover"]:
            crossed_from[pair] = None
        elif crossed_from.get(pair) is None:
            crossed_from[pair] = r["n"]
        if r["margin"] is not None:
            margins.setdefault(r["n"], []).append(r["margin"])
    stabilised = list(crossed_from.values())
    threshold = max(stabilised) if stabilised and None not in stabilised else None
    margin_curve = [(n, min(values)) for n, values in margins.items()]
    return N0ScanReport(epsilon, n_grid, rows, threshold, inapplicable, margin_curve)
