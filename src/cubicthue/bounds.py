"""Explicit upper bound, the lower-bound chain, and the empirical crossover scan.

The upper bound is the classical effective estimate for Thue equations
F(x, y) = b over a field with regulator R, unit rank r and form height H:

    log max(|x|, |y|) < c3 * R * max(log R, 1) * (R + log(H*B)),
    c3 = 3^(r+27) * (r+1)^(7r+19) * d^(2d+6r+14)      (d = degree).

The lower-bound chain turns the measured proof quantities into the implied
lower bound on log|y| for a hypothetical nontrivial solution:

    log|y| >= (R - v_bar - (3/4) log(n)/n) * n / 3,

valid when u_bar > 0, v_bar sits inside (0, R) with room R - v_bar above the
absorbed w_bar term, and the w_bar absorption inequality itself holds.  The
scan reports, per grid cell, whether the lower bound exceeds the upper one;
the reported threshold is an EMPIRICAL surrogate, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from mpmath import mp, mpf, workprec
from mpmath.libmp import from_int, from_man_exp, mpf_div, mpf_mul_int, mpf_sub, round_nearest

from .errors import ChainPreconditionFailed, EmptyGrid, ReducibleForm
from .forms import BinaryCubicForm, build_form, height, is_reducible, phi_transform, st_box
from .proof import cell_quantities, compute_proof_quantities
from .roots import compute_roots, orbit_triples


_THREE = from_int(3)


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


def fixed_view(num: int, frac_bits: int):
    """num / 2^frac_bits as an mpf, exactly, whatever the working precision."""
    return mp.make_mpf(from_man_exp(num, -frac_bits))


def c3_constant(degree: int, rank: int) -> int:
    """Exact integer value of the bound constant for (degree, rank)."""
    if degree < 3 or rank < 1:
        raise ValueError("need degree >= 3 and rank >= 1")
    return 3 ** (rank + 27) * (rank + 1) ** (7 * rank + 19) * degree ** (2 * degree + 6 * rank + 14)


def _absorb_rhs(n: int, wp: int):
    """The absorption threshold (3/4) log(n) / n at wp bits; None at n = 0."""
    if n == 0:
        return None
    with workprec(wp):
        return mpf(3) / 4 * mp.log(n) / n


@dataclass(frozen=True)
class _NConstants:
    """The parts of the upper bound and of the lower-bound chain that depend on n
    (and b_abs) alone, at precision_bits + 16 bits.

    upper_factor is c3 * R * max(log R, 1), log_b is log max(b_abs, e) and
    absorb_rhs is (3/4) log(n) / n (None at n = 0, where it is undefined).
    R is fixed_view of the given root set's regulator: bg_upper_bound gives
    compute_roots(n, precision_bits), cell_reports the root set of its triples.
    """

    precision_bits: int
    regulator: object
    upper_factor: object
    log_b: object
    absorb_rhs: object


def _n_constants(rs, b_abs: int, precision_bits: int) -> _NConstants:
    reg = fixed_view(rs.reg_fixed[0], rs.frac_bits)
    with workprec(precision_bits + 16):
        log_b = mp.log(max(mpf(b_abs), mp.e))
        factor = c3_constant(3, 2) * reg * max(mp.log(reg), mpf(1))
    return _NConstants(precision_bits, reg, factor, log_b, _absorb_rhs(rs.n, precision_bits + 16))


def bg_upper_bound(n: int, s: int, t: int, b_abs: int = 1, precision_bits: int = 192):
    """Upper bound on log max(|x|, |y|) for |f(x, y)| <= b_abs, as an mpf."""
    if b_abs < 1:
        raise ValueError("b_abs must be >= 1")
    const = _n_constants(compute_roots(n, precision_bits), b_abs, precision_bits)
    return _upper_bound(build_form(n, s, t), const)


def _upper_bound(form, const: _NConstants):
    """bg_upper_bound for a form that is already built, from the constants of its n."""
    if is_reducible(form):
        raise ReducibleForm(f"form for (n,s,t)=({form.n},{form.s},{form.t}) has a rational root")
    with workprec(const.precision_bits + 16):
        # height is already floored at 3
        return const.upper_factor * (const.regulator + (mp.log(height(form)) + const.log_b))


def lower_bound_chain(n: int, s: int, t: int, precision_bits: int = 192):
    """Implied lower bound on log|y| under b_bar >= 1, as an mpf.

    Raises ChainPreconditionFailed (naming the violated inequality) where the
    chain's numeric hypotheses do not hold; some parameter pairs violate them
    at every n and are simply outside the chain's reach.
    """
    q = compute_proof_quantities(n, s, t, precision_bits)
    wp = max(precision_bits + 16, q.precision_bits)
    return _chain(n, q, _absorb_rhs(n, wp), wp)


def _chain(n: int, q, absorb_rhs, wp: int):
    """lower_bound_chain for the quantities q, given (3/4) log(n) / n at wp bits.

    u_bar > 0, the window and the w_bar absorption are decided on the integers
    of q over 2^K; the value, and the test that it is positive, are the mpf
    expression of the module docstring at wp bits.
    """
    one = 1 << q.frac_bits
    if q.u_bar_num <= 0:
        raise ChainPreconditionFailed("u_bar > 0", f"u_bar = {ratio_float(q.u_bar_num, one):.3g}")
    if not 0 < q.v_bar_num < q.regulator_num:
        raise ChainPreconditionFailed("0 < v_bar < R",
                                      f"v_bar = {ratio_float(q.v_bar_num, one):.3g}")
    if absorb_rhs is None:
        raise ChainPreconditionFailed("n >= 1", "(3/4) log(n)/n is undefined at n = 0")
    # |w_bar| / (2 |d12| |d13|) = num / den <= absorb_rhs = man 2^exp, cross-multiplied
    num, den = q.absorb_ratio()
    _, man, exp, _ = absorb_rhs._mpf_
    absorbed = num <= (den * man) << exp if exp >= 0 else num << -exp <= den * man
    if not absorbed:
        raise ChainPreconditionFailed(
            "w_bar absorption",
            f"lhs = {ratio_float(num, den):.3g}, rhs = {float(absorb_rhs):.3g}")
    # (R - v_bar - absorb_rhs) * n / 3 at wp bits, each step rounded to nearest as
    # the mpf operators round it, on the exact views of q's integers
    K = q.frac_bits
    r_minus_v = from_man_exp(q.regulator_num - q.v_bar_num, -K, wp, round_nearest)
    slack = mpf_sub(r_minus_v, absorb_rhs._mpf_, wp, round_nearest)
    value = mp.make_mpf(mpf_div(mpf_mul_int(slack, n, wp, round_nearest), _THREE, wp, round_nearest))
    if value <= 0:
        raise ChainPreconditionFailed(
            "R - v_bar > (3/4) log(n)/n", f"slack = {float(value):.3g}")
    return value


def _finite_float(x):
    """float(x) for a float or mpf x, or x itself where the float would be +-inf."""
    f = float(x)
    return x if math.isinf(f) else f


@dataclass(frozen=True)
class BoundReport:
    n: int
    s: int
    t: int
    c3: int
    H: int
    B_rhs: float               # upper-bound exponent
    lower_chain: Optional[object]  # a float, or an mpf beyond float range
    crossover: bool
    chain_failure: str = ""    # named precondition if the chain does not apply
    precision_bits: int = 192

    @property
    def margin(self):
        """lower_chain / B_rhs (None where the chain does not apply), a float
        wherever it is finite."""
        if not self.lower_chain:
            return None
        return _finite_float(self.lower_chain / self.B_rhs)

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
    batch the cells of an n.  b_abs >= 1 is checked before any root set.  The
    cells go by phi-orbit (roots.orbit_triples, which plans their triples, bits
    and mirror links, and takes y_bound) and share the form of their orbit's
    representative, built once per mirrored pair of orbits; a form carries the
    (s, t) of its cell.  The constants of n are built once, from the first
    triple's root set, the upper bound once per mirrored pair of forms, and the
    chain per cell on that cell's proof quantities; a cell with s*t = 0 has
    none, and reports its upper bound with the chain failure "s*t != 0".  tri
    is the orbit's triple, in the order of the first cell of the orbit.

    The form of (-s, -t) is the reversed cubic of that of (s, t), (A, B) ->
    (-B, -A), as its conjugates are the inverses, alpha(-s, -t) = 1/alpha(s, t):
    so the orbit of (-s, -t), phi being linear, takes the reversed form of the
    orbit of (s, t) where that is built first.  Its height and its is_reducible
    answer are the same, so is its upper bound.
    """
    if b_abs < 1:
        raise ValueError("b_abs must be >= 1")
    const = None
    forms, uppers = {}, {}
    for s, t, tri, shift in orbit_triples(n, pairs, precision_bits, y_bound):
        const = const or _n_constants(tri.roots, b_abs, precision_bits)
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
        key = min((form.A, form.B), (-form.B, -form.A))
        if key not in uppers:
            uppers[key] = _upper_bound(form, const)
        lower, failure, crossover = None, "", False
        try:
            if s * t == 0:
                raise ChainPreconditionFailed("s*t != 0")
            q = cell_quantities(tri, shift, s, t, precision_bits)
            lower_mpf = _chain(n, q, const.absorb_rhs, precision_bits + 16)
            lower = _finite_float(lower_mpf)
            crossover = bool(lower_mpf > uppers[key])
        except ChainPreconditionFailed as exc:
            failure = exc.inequality
        yield form, tri, BoundReport(n, s, t, c3_constant(3, 2), height(form), float(uppers[key]),
                                     lower, crossover, failure, precision_bits)


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
