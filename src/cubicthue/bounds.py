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

from .asymptotics import compute_proof_quantities, float_power, st_box
from .errors import ChainPreconditionFailed, EmptyGrid, ReducibleForm
from .forms import build_form, height, is_reducible
from .roots import compute_roots


def c3_constant(degree: int, rank: int) -> int:
    """Exact integer value of the bound constant for (degree, rank)."""
    if degree < 3 or rank < 1:
        raise ValueError("need degree >= 3 and rank >= 1")
    return 3 ** (rank + 27) * (rank + 1) ** (7 * rank + 19) * degree ** (2 * degree + 6 * rank + 14)


@dataclass(frozen=True)
class _NConstants:
    """The parts of the upper bound and of the lower-bound chain that depend on n
    (and b_abs) alone, at precision_bits + 16 bits.

    upper_factor is c3 * R * max(log R, 1), log_b is log max(b_abs, e) and
    absorb_rhs is (3/4) log(n) / n (None at n = 0, where it is undefined).
    Built once per n, they are bit-identical to the values each call of the
    public functions computes for itself.
    """

    precision_bits: int
    regulator: object
    upper_factor: object
    log_b: object
    absorb_rhs: object


def _n_constants(n: int, b_abs: int, precision_bits: int) -> _NConstants:
    if b_abs < 1:
        raise ValueError("b_abs must be >= 1")
    reg = compute_roots(n, precision_bits).regulator
    with workprec(precision_bits + 16):
        log_b = mp.log(max(mpf(b_abs), mp.e))
        factor = c3_constant(3, 2) * reg * max(mp.log(reg), mpf(1))
    return _NConstants(precision_bits, reg, factor, log_b, _absorb_rhs(n, precision_bits + 16))


def _absorb_rhs(n: int, wp: int):
    """(3/4) log(n) / n at wp bits; None at n = 0."""
    if n == 0:
        return None
    with workprec(wp):
        return mpf(3) / 4 * mp.log(n) / n


def bg_upper_bound(n: int, s: int, t: int, b_abs: int = 1, precision_bits: int = 192):
    """Upper bound on log max(|x|, |y|) for |f(x, y)| <= b_abs, as an mpf."""
    return _upper_bound(build_form(n, s, t), _n_constants(n, b_abs, precision_bits))


def _upper_bound(form, const: _NConstants):
    """bg_upper_bound for a form that is already built, from the constants of its n."""
    if is_reducible(form):
        raise ReducibleForm(f"form for (n,s,t)=({form.n},{form.s},{form.t}) has a rational root")
    with workprec(const.precision_bits + 16):
        # height is already floored at 3
        return const.upper_factor * (const.regulator + (mp.log(height(form)) + const.log_b))


def lower_bound_chain(n: int, s: int, t: int, quantities=None, precision_bits: int = 192):
    """Implied lower bound on log|y| under b_bar >= 1, as an mpf.

    Raises ChainPreconditionFailed (naming the violated inequality) where the
    chain's numeric hypotheses do not hold; some parameter pairs violate them
    at every n and are simply outside the chain's reach.
    """
    q = quantities or compute_proof_quantities(n, s, t, precision_bits)
    wp = max(precision_bits + 16, q.precision_bits)
    return _chain(n, q, _absorb_rhs(n, wp), wp)


def _chain(n: int, q, absorb_rhs, wp: int):
    """lower_bound_chain for the quantities q, given (3/4) log(n) / n at wp bits."""
    with workprec(wp):
        if q.u_bar <= 0:
            raise ChainPreconditionFailed("u_bar > 0", f"u_bar = {float(q.u_bar):.3g}")
        if not (0 < q.v_bar < q.regulator):
            raise ChainPreconditionFailed("0 < v_bar < R", f"v_bar = {float(q.v_bar):.3g}")
        if absorb_rhs is None:
            raise ChainPreconditionFailed("n >= 1", "(3/4) log(n)/n is undefined at n = 0")
        absorb_lhs = abs(q.w_bar) / (2 * q.diff12_abs * q.diff13_abs)
        if absorb_lhs > absorb_rhs:
            raise ChainPreconditionFailed(
                "w_bar absorption",
                f"lhs = {float(absorb_lhs):.3g}, rhs = {float(absorb_rhs):.3g}")
        value = (q.regulator - q.v_bar - absorb_rhs) * n / 3
        if value <= 0:
            raise ChainPreconditionFailed(
                "R - v_bar > (3/4) log(n)/n", f"slack = {float(value):.3g}")
        return value


@dataclass(frozen=True)
class BoundReport:
    n: int
    s: int
    t: int
    c3: int
    H: int
    B_rhs: float               # upper-bound exponent
    lower_chain: Optional[float]
    crossover: bool
    chain_failure: str = ""    # named precondition if the chain does not apply
    precision_bits: int = 192

    def as_record(self) -> dict:
        return {"n": self.n, "s": self.s, "t": self.t, "c3": str(self.c3),
                "H": str(self.H), "B_rhs": self.B_rhs, "lower_chain": self.lower_chain,
                "crossover": self.crossover, "chain_failure": self.chain_failure,
                "precision_bits": self.precision_bits}


def bound_report(n: int, s: int, t: int, b_abs: int = 1, precision_bits: int = 192) -> BoundReport:
    return _bound_report(build_form(n, s, t), _n_constants(n, b_abs, precision_bits))


def _bound_report(form, const: _NConstants, upper=None) -> BoundReport:
    """bound_report for a form that is already built, from the constants of its n.

    upper, if given, is _upper_bound(form, const), computed once for all the
    parameter pairs that share the form.
    """
    n, s, t = form.n, form.s, form.t
    if upper is None:
        upper = _upper_bound(form, const)
    lower = None
    failure = ""
    crossover = False
    try:
        # compute_proof_quantities keeps precision_bits, so the chain runs at the constants' bits
        q = compute_proof_quantities(n, s, t, const.precision_bits)
        lower_mpf = _chain(n, q, const.absorb_rhs, const.precision_bits + 16)
        lower = float(lower_mpf)
        crossover = bool(lower_mpf > upper)
    except ChainPreconditionFailed as exc:
        failure = exc.inequality
    return BoundReport(n, s, t, c3_constant(3, 2), height(form), float(upper),
                       lower, crossover, failure, const.precision_bits)


@dataclass(frozen=True)
class StPolicy:
    """Which exponent pairs to test at a given n: all s*t != 0 with
    max(|s|, |t|) <= min(cap, floor(n^(1/2 - epsilon)))."""

    cap: int = 2

    def pairs(self, n: int, epsilon: float):
        return st_box(int(math.floor(min(self.cap, float_power(n, 0.5 - epsilon)))))


@dataclass
class N0ScanReport:
    epsilon: float
    n_grid: list
    rows: list                       # one dict per (n, s, t)
    threshold: Optional[int]         # least grid n after which all applicable pairs cross
    inapplicable_pairs: list         # chain preconditions fail even at the largest grid n
    margin_curve: list = field(default_factory=list)  # (n, min margin over applicable pairs)


def n0_scan(epsilon: float, n_grid, st_policy=None, precision_bits: int = 192) -> N0ScanReport:
    """Compare the lower-bound chain against the upper bound across a grid.

    The reported threshold is empirical: it is the least grid n beyond which
    lower > upper holds at every tested (s, t) for which the chain applies.
    Pairs whose chain preconditions fail even at the largest n are reported
    separately rather than silently dropped.
    """
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    n_grid = sorted(set(int(n) for n in n_grid))
    if not n_grid:
        raise EmptyGrid("n0 scan needs a nonempty n grid")
    if isinstance(st_policy, int):
        st_policy = StPolicy(st_policy)
    st_policy = st_policy or StPolicy()

    rows = []
    by_pair = {}
    for n in n_grid:
        const = _n_constants(n, 1, precision_bits)
        for (s, t) in st_policy.pairs(n, epsilon):
            rep = _bound_report(build_form(n, s, t), const)
            margin = (rep.lower_chain / rep.B_rhs) if rep.lower_chain else None
            rows.append({"n": n, "s": s, "t": t, "upper": rep.B_rhs,
                         "lower": rep.lower_chain, "margin": margin,
                         "crossover": rep.crossover, "chain_failure": rep.chain_failure,
                         "precision_bits": precision_bits})
            by_pair.setdefault((s, t), []).append(rows[-1])

    n_top = n_grid[-1]
    inapplicable = sorted(
        p for p, prows in by_pair.items()
        if all(r["chain_failure"] for r in prows if r["n"] == n_top)
    )
    threshold = None
    stabilised = []
    for p, prows in by_pair.items():
        if p in inapplicable:
            continue
        crossed_from = None
        for r in sorted(prows, key=lambda r: r["n"]):
            if r["crossover"]:
                if crossed_from is None:
                    crossed_from = r["n"]
            else:
                crossed_from = None
        stabilised.append(crossed_from)
    if stabilised and all(c is not None for c in stabilised):
        threshold = max(stabilised)

    margin_curve = []
    for n in n_grid:
        margins = [r["margin"] for r in rows
                   if r["n"] == n and r["margin"] is not None
                   and (r["s"], r["t"]) not in inapplicable]
        if margins:
            margin_curve.append((n, min(margins)))
    return N0ScanReport(epsilon, n_grid, rows, threshold, inapplicable, margin_curve)
