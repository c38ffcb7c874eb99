"""Asymptotic predictors and their measurement harnesses.

Each predictor returns a structured Prediction (leading term, correction
term, claimed error order) so the harness can compare any of the pieces
against certified numeric values and fit the actual decay exponent of the
residual over a parameter grid.

The twelve-branch table for log|alpha1 - alpha2| and log|alpha1 - alpha3|
is the delicate part.  Only its diff12 half is written out: six formulas,
derived from the two-term power expansions of the roots and cross-checked
against 400-bit numerics, each with residual O(n^-2) for fixed (s, t),
measured as a clean -2 slope on log-log grids.  The diff13 half is derived
from it.  phi(s, t) = (t - s, -s) rotates the conjugates (see below), so
|alpha1 - alpha3| at (s, t) is |alpha1 - alpha2| at phi(s, t), and the
diff13 branch of (s, t) is the mirror of the diff12 branch of phi(s, t):
WIDE_ABOVE <-> WIDE_BELOW, EDGE_ABOVE <-> EDGE_BELOW, and each DOUBLED
branch is its own mirror.  A sign or parity slip in one half therefore shows
in the other; tests/test_asymptotics.py keeps the six diff13 formulas
written out as the check.

The proof quantities are computed in the fixed point of roots.py: integers
over 2^K, each with an integer error radius in units of 2^-K.  The
conjugates come from a triple of numerators with radii, so alpha1 - alpha2
and alpha1 - alpha3 are integer differences whose radii add.  Their logs are
taken in integers too, by roots.fixed_log, with the radius proved there: the
relative error of the difference (radius over |numerator| - radius) and the
kernel's floors, log-2 error and series tail.  The root logs and the
regulator carry the radii the root set gave them, and
v1 + v2 = log|d12| u1 + log|d13| u2 is a sum of fixed-point products whose
radius follows from those.  b0 and the window 0 < v_bar < R are decided only
when (v1 + v2) mod R lies farther than that radius (plus b0 times the
regulator's) from 0 and from R; otherwise cell_quantities retries at more
bits by the precision policy of roots.py (its "Precision" paragraph).
So a b0 this module reports is the true one, whatever the cancellation in
v_bar = b0 R - v1 - v2.  The other decisions of the lower-bound chain
(u_bar > 0, the w_bar absorption) are made on the same integers, without a
division (see bounds._chain); they are not certified.

The cells (s, t), phi(s, t) = (t - s, -s) and phi^2(s, t) = (-t, s - t) of
one orbit have the same three conjugates in a cyclic order: those of
phi^m(s, t) are alpha_(j + shift) of (s, t), with shift = 2m mod 3.  So
their differences are the three alpha_i - alpha_j of one triple, up to sign,
and _quantities takes the triple, the shift of a cell and a memo of the
logs |alpha_i - alpha_j|, one per pair of indices.  orbit_triples plans a
grid's cells this way: one root set per n, one triple and one memo per
orbit, so an orbit takes three difference logs in all.  The harnesses
run_logdiff, run_errorbound, run_vbar and run_wbar go through it, as does
bounds.cell_reports, the bound path of the bound command and the scans;
true_logdiffs, check_error_products and compute_proof_quantities are the
one-cell case, on compute_alphas's triple with a fresh memo.

The orbit of (-s, -t) mirrors that of (s, t): alpha_j(-s, -t) =
1/alpha_j(s, t), so its triple T' holds the inverses of the triple T of
(s, t) in a cyclic order, and log|T'[a] - T'[b]| = log|T[i] - T[j]| -
log|T[i]| - log|T[j]| for the matching indices i, j (_LogMemo).  The logs
|T[k]| are s g_k + t g_(k+1) in the root logs g, so a mirrored log is an
integer combination whose radius adds those of its terms, and a pair of
mirrored orbits takes three difference logs, not six.  orbit_triples links
the memos of two mirrored orbits only where both triples have the same
frac_bits (one shift of the root set); a memo whose mirror's difference is
not known to be nonzero takes its own log, as do an orbit without its
mirror among the cells (the logdiff representatives) and the one-cell case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from mpmath import mp, mpf, workprec

from .errors import DegenerateTwist, ExactMatch, InsufficientSamples, PrecisionExhausted
from .forms import phi_transform
from .roots import (
    compute_alphas, compute_roots, escalate, fixed_log, fixed_mul, fixed_view, plan_triples,
    working_bits,
)

DEFAULT_EPSILON = 0.25


class Branch(enum.Enum):
    """The six cases per difference, keyed by how 2s compares to t (or s to 2t)."""

    WIDE_ABOVE = "u>v+1"
    EDGE_ABOVE = "u=v+1"
    DOUBLED_ODD = "u=v,odd"
    DOUBLED_EVEN = "u=v,even"
    EDGE_BELOW = "u=v-1"
    WIDE_BELOW = "u<v-1"


@dataclass(frozen=True)
class CaseLabel:
    """Which branch applies to one of the two conjugate differences."""

    difference: int  # 2 for alpha1-alpha2, 3 for alpha1-alpha3
    branch: Branch

    def condition(self) -> str:
        u, v = ("2s", "t") if self.difference == 2 else ("s", "2t")
        parity = "s" if self.difference == 2 else "t"
        return {
            Branch.WIDE_ABOVE: f"{u} > {v}+1",
            Branch.EDGE_ABOVE: f"{u} = {v}+1",
            Branch.DOUBLED_ODD: f"{u} = {v}, {parity} odd",
            Branch.DOUBLED_EVEN: f"{u} = {v}, {parity} even",
            Branch.EDGE_BELOW: f"{u} = {v}-1",
            Branch.WIDE_BELOW: f"{u} < {v}-1",
        }[self.branch]


def _classify_one(u: int, v: int, parity_of: int) -> Branch:
    if u > v + 1:
        return Branch.WIDE_ABOVE
    if u == v + 1:
        return Branch.EDGE_ABOVE
    if u == v:
        return Branch.DOUBLED_ODD if parity_of % 2 else Branch.DOUBLED_EVEN
    if u == v - 1:
        return Branch.EDGE_BELOW
    return Branch.WIDE_BELOW


def classify_case(s: int, t: int):
    """Total, unambiguous branch assignment for both conjugate differences."""
    return (
        CaseLabel(2, _classify_one(2 * s, t, s)),
        CaseLabel(3, _classify_one(s, 2 * t, t)),
    )


@dataclass(frozen=True)
class Prediction:
    """leading + correction, with the claimed decay order of the neglected error."""

    leading: object
    correction: object
    error_order: float

    @property
    def value(self):
        return self.leading + self.correction


def _sgn_pow(k: int) -> int:
    """(-1)**k for any integer sign of k."""
    return 1 if k % 2 == 0 else -1


def predict_root_expansion(n: int, which: int):
    """Two-term value and log expansions of root `which` (0, 1 or 2)."""
    if n < 4:
        raise ValueError("expansions are for n >= 4")
    nn = mpf(n)
    if which == 0:
        val = Prediction(nn, 2 / nn, -2.0)
        logp = Prediction(mp.log(nn), 2 / nn**2, -3.0)
    elif which == 1:
        val = Prediction(-1 / nn, 1 / nn**2, -3.0)
        logp = Prediction(-mp.log(nn), -1 / nn - 3 / (2 * nn**2), -3.0)
    elif which == 2:
        val = Prediction(mpf(-1), -1 / nn, -3.0)
        logp = Prediction(mpf(0), 1 / nn - 1 / (2 * nn**2), -3.0)
    else:
        raise ValueError("root index must be 0, 1 or 2")
    return val, logp


def predict_power(n: int, a: int, which: int, epsilon: float = DEFAULT_EPSILON) -> Prediction:
    """Two-term prediction of lam_which^a, signs folded in."""
    nn = mpf(n)
    sg = _sgn_pow(a)
    if which == 0:
        return Prediction(nn**a, 2 * a * nn ** (a - 2), a - 2 - 2 * epsilon)
    if which == 1:
        return Prediction(sg * nn ** (-a), sg * (-a) * nn ** (-a - 1), -a - 1 - 2 * epsilon)
    if which == 2:
        return Prediction(mpf(sg), sg * mpf(a) / nn, -1 - 2 * epsilon)
    raise ValueError("root index must be 0, 1 or 2")


def predict_logdiff(n: int, s: int, t: int, epsilon: float = DEFAULT_EPSILON):
    """Branch predictions for log|alpha1 - alpha2| and log|alpha1 - alpha3|.

    Claimed error order is -(1 + 2*epsilon) for exponents up to n^(1/2-epsilon);
    for fixed (s, t) the measured residuals decay like n^-2.
    """
    nn = mpf(n)
    return _predict_logdiff(nn, mp.log(nn), s, t, epsilon)


def _predict_logdiff(nn, L, s: int, t: int, epsilon: float):
    """predict_logdiff from nn = mpf(n) and L = log(nn), which depend on n alone, at the
    working precision."""
    if s * t == 0:
        raise DegenerateTwist("log-difference expansions need s*t != 0")
    err = -(1 + 2 * epsilon)
    # |alpha1 - alpha3| at (s, t) is |alpha1 - alpha2| at phi(s, t) (module docstring)
    return _predict12(nn, L, s, t, err), _predict12(nn, L, t - s, -s, err)


def _predict12(nn, L, s: int, t: int, err: float) -> Prediction:
    """The diff12 prediction of predict_logdiff at (s, t), by its branch."""
    b = _classify_one(2 * s, t, s)
    if b is Branch.WIDE_ABOVE:
        return Prediction((s - t) * L, mpf(-t) / nn, err)
    if b is Branch.EDGE_ABOVE:
        return Prediction((s - t) * L, mpf(-(t + _sgn_pow(s))) / nn, err)
    if b is Branch.DOUBLED_ODD:
        # |a1 - a2| = 2 n^(s-t) (1 + (s-t)/(2n) + ...)
        return Prediction((s - t) * L + mp.log(2), mpf(s - t) / (2 * nn), err)
    if b is Branch.DOUBLED_EVEN:
        # leading coefficient |s + t| = 3|s|; next order -(s+1)/(2n)
        return Prediction((s - t - 1) * L + mp.log(abs(s + t)), mpf(-(s + 1)) / (2 * nn), err)
    if b is Branch.EDGE_BELOW:
        return Prediction((-s) * L, mpf(t - s - _sgn_pow(s)) / nn, err)
    return Prediction((-s) * L, mpf(t - s) / nn, err)


def _diff_precision(n: int, s: int, t: int, precision_bits: int) -> int:
    """Bits needed so the conjugate differences survive catastrophic cancellation
    (see "Precision" in roots.py)."""
    return working_bits(n, abs(s) + abs(t) + 2, precision_bits + 32)


def _order(shift: int):
    """The indices of tri's conjugates that are alpha1, alpha2, alpha3 of a cell."""
    return shift, (shift + 1) % 3, (shift + 2) % 3


def _ordered_diffs(tri, shift: int):
    """alpha1 - alpha2 and alpha1 - alpha3, as (numerator, radius) pairs over 2^K,
    of the cell whose conjugates are those of tri from index shift on."""
    (i, j, k), nums, radii = _order(shift), tri.numerators, tri.radii
    return (nums[i] - nums[j], radii[i] + radii[j]), (nums[i] - nums[k], radii[i] + radii[k])


def orbit_triples(n: int, pairs, precision_bits: int, solver_bits=None):
    """Yield (s, t, tri, shift, logs) for each (s, t) of pairs, in order,
    evaluated by phi-orbit on one root set.

    The cells of pairs that phi maps into each other share one AlphaTriple,
    powered for the first such cell, the orbit's representative (tri.s,
    tri.t); a cell's conjugates are tri's from index shift on (see _quantities), and
    logs is the orbit's memo of difference logs.  Of two mirrored orbits
    (those of (s, t) and (-s, -t)) whose triples have one frac_bits, the
    memo of the later one is linked to that of the first (see _LogMemo).
    The triple serves the
    proof quantities of each of the orbit's cells (at _diff_precision) and,
    if solver_bits is given, the representative's solver attempt at
    solver_bits(s, t) bits; roots.plan_triples powers all the triples of n
    from one root set.
    """
    in_box = set(pairs)
    cells = {}     # cell -> (representative, shift)
    asks = {}      # representative -> the (s, t, bits) its triple must serve
    for rep in pairs:
        if rep in cells:
            continue
        once, twice = phi_transform(*rep), phi_transform(*phi_transform(*rep))
        members = [(c, shift) for c, shift in ((rep, 0), (once, 2), (twice, 1)) if c in in_box]
        asks[rep] = [(*c, _diff_precision(n, *c, precision_bits)) for c, _ in members]
        if solver_bits is not None:
            asks[rep].append((*rep, solver_bits(*rep)))
        cells.update((c, (rep, shift)) for c, shift in members)
    triples = plan_triples(n, asks)
    logs = {rep: _LogMemo() for rep in asks}
    for rep, memo in logs.items():
        # the cell (-s, -t) of the representative (s, t): the triple of its orbit
        # holds the inverses of rep's triple, in the order its shift gives; one
        # link per pair, so that no two memos refer to each other
        partner, shift = cells.get((-rep[0], -rep[1]), (rep, 0))
        if (memo.mirror is None and partner != rep
                and triples[partner].frac_bits == triples[rep].frac_bits):
            logs[partner].mirror = (triples[rep], shift, memo)
    for s, t in pairs:
        rep, shift = cells[(s, t)]
        yield s, t, triples[rep], shift, logs[rep]


def _one_cell(n: int, s: int, t: int, precision_bits: int, what: str):
    """The triple of (n, s, t) alone at _diff_precision bits, as orbit_triples
    plans it for pairs [(s, t)] (compute_alphas is that one-ask plan, cached)."""
    if s * t == 0:
        raise DegenerateTwist(f"{what} need s*t != 0")
    return compute_alphas(n, s, t, _diff_precision(n, s, t, precision_bits))


def _logdiffs(tri, shift: int, logs: dict):
    """log|alpha1 - alpha2|, log|alpha1 - alpha3| and the signed differences of
    the cell whose conjugates are those of tri from index shift on, as exact
    mpf views of their numerators over 2^K; the logs come from the memo."""
    d12, d13 = _ordered_diffs(tri, shift)
    if abs(d12[0]) <= d12[1] or abs(d13[0]) <= d13[1]:
        raise PrecisionExhausted(f"a conjugate difference in the phi-orbit of (n,s,t)="
                                 f"{(tri.n, tri.s, tri.t)} is not known to be nonzero "
                                 f"over 2^{tri.frac_bits}")
    i, j, k = _order(shift)
    K = tri.frac_bits
    l12, l13 = _memo_log(logs, i, j, d12, K), _memo_log(logs, i, k, d13, K)
    return tuple(fixed_view(num, K) for num in (l12[0], l13[0], d12[0], d13[0]))


def true_logdiffs(n: int, s: int, t: int, precision_bits: int = 192):
    """Certified log|alpha1 - alpha2|, log|alpha1 - alpha3| and the signed differences."""
    return _logdiffs(_one_cell(n, s, t, precision_bits, "conjugate differences"), 0, {})


def ratio_float(num: int, den: int) -> float:
    """num / den for integers, correctly rounded to a float; +-inf beyond float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num < 0) == (den < 0) else -math.inf


@dataclass(frozen=True)
class ErrorProductReport:
    """The three gap-product bounds with their multiplicative margins."""

    n: int
    s: int
    t: int
    margin_product: float  # |d12 d13| / ((2/3) n^2)
    margin_min: float      # the lesser of |d12 d13| |d12|, |d12 d13| |d13| over (2/3) n
    margin_max: float      # the greater over (2/3) n^2
    exempt_first: bool     # (s,t) in {(1,1), (-1,-1)} skips the first bound

    @property
    def passed(self) -> bool:
        ok_first = self.exempt_first or self.margin_product >= 1.0
        return ok_first and self.margin_min >= 1.0 and self.margin_max >= 1.0


def check_error_products(n: int, s: int, t: int, precision_bits: int = 192) -> ErrorProductReport:
    """The gap products of |alpha1 - alpha2| and |alpha1 - alpha3|, as integer
    ratios over powers of 2^K, each rounded once to a float."""
    return _error_products(_one_cell(n, s, t, precision_bits, "error products"), 0, s, t)


def _error_products(tri, shift: int, s: int, t: int) -> ErrorProductReport:
    """check_error_products for the cell (s, t) whose conjugates are those of tri
    from index shift on."""
    d12, d13 = _ordered_diffs(tri, shift)
    K, n = tri.frac_bits, tri.n
    a12, a13 = abs(d12[0]), abs(d13[0])
    product = a12 * a13                       # over 2^(2K)
    mixed = sorted((product * a12, product * a13))   # over 2^(3K)
    one2, one3 = 1 << 2 * K, 1 << 3 * K
    return ErrorProductReport(
        n, s, t,
        ratio_float(3 * product, 2 * n * n * one2),
        ratio_float(3 * mixed[0], 2 * n * one3),
        ratio_float(3 * mixed[1], 2 * n * n * one3),
        (s, t) in ((1, 1), (-1, -1)),
    )


@dataclass(frozen=True)
class ProofQuantities:
    """The six 2x2 determinants of the unit-exponent system plus derived scalars.

    u_bar = -u1 - u2, w_bar = -w1 - w2, and b0 is the unique integer placing
    v_bar = b0*R - v1 - v2 inside the window (0, R).

    The fields ending in _num are the quantities in fixed point: integers
    over 2^frac_bits (diff12_num and diff13_num are the signed differences
    alpha1 - alpha2 and alpha1 - alpha3).  u_bar, v_bar and regulator read
    u_bar_num, v_bar_num and regulator_num as exact mpf views; the other
    quantities have no view.  w_bar enters the proof only through the
    absorption ratio |w_bar| / (2 |d12| |d13|), which absorb_ratio gives as
    a quotient of integers: bounds._chain decides the absorption on it, and
    run_wbar reports it.
    """

    n: int
    s: int
    t: int
    precision_bits: int
    frac_bits: int
    b0: int
    u1_num: int
    u2_num: int
    v1_num: int
    v2_num: int
    v_bar_num: int
    regulator_num: int
    diff12_num: int
    diff13_num: int

    def _view(self, num):
        return fixed_view(num, self.frac_bits)

    v_bar = property(lambda self: self._view(self.v_bar_num))
    regulator = property(lambda self: self._view(self.regulator_num))

    @property
    def u_bar_num(self) -> int:
        return -self.u1_num - self.u2_num

    @property
    def u_bar(self):
        return self._view(self.u_bar_num)

    def absorb_ratio(self):
        """|w_bar| / (2 |d12| |d13|) as (numerator, denominator), integers.

        |w_bar| = |u1 d13 + u2 d12| / |d12 d13|, so over 2^K the ratio is
        |U1 D13 + U2 D12| 2^(2K) / (2 (D12 D13)^2).
        """
        w = abs(self.u1_num * self.diff13_num + self.u2_num * self.diff12_num)
        return w << 2 * self.frac_bits, 2 * (self.diff12_num * self.diff13_num) ** 2


def _absorb_rhs(n: int, wp: int):
    """The absorption threshold (3/4) log(n) / n at wp bits; None at n = 0."""
    if n == 0:
        return None
    with workprec(wp):
        return mpf(3) / 4 * mp.log(n) / n


def _quantities(tri, shift: int, logs: dict, s: int, t: int, precision_bits: int):
    """ProofQuantities of the cell (s, t) whose conjugates are those of tri from
    index shift on, or None where the radii leave b0 undecided.

    logs maps a pair i < j of tri's indices to log|alpha_i - alpha_j| over 2^K;
    a log it lacks is taken and stored.  v1 + v2 = V and R are known as
    integers over 2^K with radii r_V and r_R.  With m = floor(V / R) and
    rem = V - m R, the true value of v1 + v2 lies strictly between m R and
    (m + 1) R, for the true R, when

        rem > r_V + |m| r_R    and    R - rem > r_V + |m + 1| r_R.

    Then b0 = m + 1 and v_bar = R - rem lies in (0, R).  The differences
    themselves must be known to be nonzero before their logs are taken.
    """
    d12, d13 = _ordered_diffs(tri, shift)
    if abs(d12[0]) <= d12[1] or abs(d13[0]) <= d13[1]:
        return None
    rs, K = tri.roots, tri.frac_bits
    i, j, k = _order(shift)
    l12, l13 = _memo_log(logs, i, j, d12, K), _memo_log(logs, i, k, d13, K)
    g0, g1, g2 = rs.log_fixed
    p1, p2 = fixed_mul(l12, g0, K), fixed_mul(g2, l13, K)
    p3, p4 = fixed_mul(g1, l13, K), fixed_mul(l12, g2, K)
    v1, v2 = p1[0] - p2[0], p3[0] - p4[0]
    r_v = p1[1] + p2[1] + p3[1] + p4[1]
    reg, r_reg = rs.reg_fixed
    m, rem = divmod(v1 + v2, reg)
    if rem <= r_v + abs(m) * r_reg or reg - rem <= r_v + abs(m + 1) * r_reg:
        return None
    return ProofQuantities(
        tri.n, s, t, precision_bits, K, m + 1,
        g0[0] - g2[0], g1[0] - g2[0], v1, v2, reg - rem, reg, d12[0], d13[0],
    )


class _LogMemo(dict):
    """An orbit's memo {(i, j): log|T[i] - T[j]|} over 2^K, i < j, for its triple T,
    and its mirror: None, or (T', shift, memo of T') for the triple T' of the
    mirror orbit at the same K, with T[a] = 1/T'[(a - shift) mod 3].

    The mirror orbit is that of (-s, -t), and alpha_j(-s, -t) = 1/alpha_j(s, t),
    so if the cell (-s', -t') of the representative (s', t') of T' has the
    conjugates of T from index shift on, then T[a] = 1/T'[(a - shift) mod 3].
    With i = (a - shift) mod 3 and j = (b - shift) mod 3,

        T[a] - T[b] = (T'[j] - T'[i]) / (T'[i] T'[j]),
        log|T[a] - T[b]| = log|T'[i] - T'[j]| - lam'_i - lam'_j,

    where lam'_k = log|T'[k]| = s' g_k + t' g_(k+1) (indices mod 3) for the
    representative (s', t') of T' and the root logs g of their root set: an
    integer combination of a memo entry L'_ij of T' and root logs, whose radius
    is the sum of theirs, r(L'_ij) + |s'| (r_i + r_j) + |t'| (r_(i+1) + r_(j+1))
    with r_k the radius of g_k.  The memo of T' has no mirror: it takes its
    logs itself, and both orbits read them, so neither memo refers back and
    both are freed with their triples, without a reference cycle.
    """

    mirror = None


def _mirror_log(tri, shift: int, logs: dict, a: int, b: int):
    """log|T[a] - T[b]| over 2^K from the mirror (tri, shift, logs) of T's memo (see
    _LogMemo), taking tri's log into logs if it is not there; None where tri's
    difference is not known to be nonzero."""
    i, j = sorted(((a - shift) % 3, (b - shift) % 3))
    if (i, j) not in logs:
        num, r = tri.numerators[i] - tri.numerators[j], tri.radii[i] + tri.radii[j]
        if abs(num) <= r:
            return None
        logs[(i, j)] = fixed_log((num, r), tri.frac_bits)
    num, r = logs[(i, j)]
    g, s, t = tri.roots.log_fixed, tri.s, tri.t
    for k in (i, j):
        (gk, rk), (gn, rn) = g[k], g[(k + 1) % 3]
        num -= s * gk + t * gn
        r += abs(s) * rk + abs(t) * rn
    return num, r


def _memo_log(logs: dict, i: int, j: int, d, frac_bits: int):
    """log|alpha_i - alpha_j| over 2^K from the memo; if it is not there, from the
    memo's mirror where that has one (_mirror_log), else taken from d."""
    key = (min(i, j), max(i, j))
    if key not in logs:
        mirror = getattr(logs, "mirror", None)
        derived = _mirror_log(*mirror, *key) if mirror else None
        logs[key] = derived or fixed_log(d, frac_bits)
    return logs[key]


def cell_quantities(tri, shift: int, logs: dict, s: int, t: int, precision_bits: int):
    """The proof quantities of a cell of tri's orbit (see _quantities), with b0 certified.

    Where the radii leave b0 undecided, the cell escalates from tri over
    roots.attempts(tri) (see "Precision" in roots.py): tri reads the orbit's
    memo logs, each later triple a memo of its own.
    """
    if s * t == 0:
        raise DegenerateTwist("proof quantities need s*t != 0")
    return escalate(lambda: f"b0 for (n,s,t)={(tri.n, s, t)}", tri,
                    lambda cur: _quantities(cur, shift, logs if cur is tri else {},
                                            s, t, precision_bits))


def compute_proof_quantities(n: int, s: int, t: int, precision_bits: int = 192) -> ProofQuantities:
    """The proof quantities of (n, s, t), with b0 and the window certified:
    cell_quantities on the one-cell triple, at _diff_precision(n, s, t,
    precision_bits) bits."""
    return cell_quantities(_one_cell(n, s, t, precision_bits, "proof quantities"),
                           0, {}, s, t, precision_bits)


@dataclass(frozen=True)
class FitResult:
    slope: float
    stderr: float
    r_squared: float
    count: int


def fit_error_exponent(samples) -> FitResult:
    """Least-squares slope of log|residual| against log n.

    samples: iterable of (n, residual).  Needs >= 5 samples spanning >= 2
    decades of n; exact-zero residuals abort the fit (nothing to measure).
    """
    pts = [(float(n), float(r)) for n, r in samples]
    if len(pts) < 5:
        raise InsufficientSamples(f"need >= 5 samples, got {len(pts)}")
    ns = [p[0] for p in pts]
    if max(ns) < 100.0 * min(ns):
        raise InsufficientSamples("samples must span at least two decades of n")
    if any(p[1] == 0.0 for p in pts):
        raise ExactMatch("residuals are exactly zero; no exponent to fit")
    x = [math.log(p[0]) for p in pts]
    y = [math.log(abs(p[1])) for p in pts]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    denom = math.fsum(a * a for a in dx)
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / denom
    ss_res = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    ss_tot = math.fsum(b * b for b in dy)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    dof = len(pts) - 2
    stderr = math.sqrt(ss_res / dof / denom) if dof > 0 and denom > 0 else 0.0
    return FitResult(slope, stderr, r2, len(pts))


# ---------------------------------------------------------------------------
# Lemma measurement harnesses (shared by the CLI and the acceptance suite)
# ---------------------------------------------------------------------------

@dataclass
class LemmaResult:
    name: str
    config: dict
    rows: list
    fits: list
    passed: bool
    notes: str = ""


def _fit_series(series: dict, names, claimed=None, two_sided: bool = False):
    """(fits, all passed): one fit per series in sorted key order, a dict of the
    key's fields (named by names), slope, claimed (if claimed(key) gives it),
    stderr and ok.  A slope passes at most 0.3 above the claimed one (within 0.3
    of it if two_sided), or at most 0.3 without one."""
    fits = []
    for key, samples in sorted(series.items()):
        fit = fit_error_exponent(samples)
        entry = {**dict(zip(names, key)), "slope": fit.slope}
        if claimed is None:
            ok = fit.slope <= 0.3
        else:
            want = entry["claimed"] = claimed(key)
            ok = abs(fit.slope - want) <= 0.3 if two_sided else fit.slope <= want + 0.3
        fits.append({**entry, "stderr": fit.stderr, "ok": ok})
    return fits, all(f["ok"] for f in fits)


def _require_least_n(name: str, n_grid, least: int):
    """ValueError unless every n of the grid is at least `least`, the smallest n at
    which the harness's formulas neither divide by zero nor take the log of zero."""
    low = min(n_grid)
    if low < least:
        raise ValueError(f"lemma {name} needs n >= {least}, got n = {low}")


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


def log_grid(lo: int, hi: int):
    """Deterministic log-spaced integer grid from lo to hi inclusive, two points a decade."""
    if lo <= 0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    count = max(2, int(round(2 * math.log10(hi / lo))) + 1)
    vals = sorted({int(round(lo * (hi / lo) ** (i / (count - 1)))) for i in range(count)})
    return vals


# One representative (s, t) per branch, small enough that max(|s|,|t|) <= n^(1/4)
# holds on grids starting at n = 1000.
BRANCH_REPRESENTATIVES_12 = {
    Branch.WIDE_ABOVE: (2, 1),
    Branch.EDGE_ABOVE: (1, 1),
    Branch.DOUBLED_ODD: (1, 2),
    Branch.DOUBLED_EVEN: (2, 4),
    Branch.EDGE_BELOW: (1, 3),
    Branch.WIDE_BELOW: (1, 4),
}
BRANCH_REPRESENTATIVES_13 = {
    Branch.WIDE_ABOVE: (4, 1),
    Branch.EDGE_ABOVE: (3, 1),
    Branch.DOUBLED_ODD: (2, 1),
    Branch.DOUBLED_EVEN: (4, 2),
    Branch.EDGE_BELOW: (3, 2),
    Branch.WIDE_BELOW: (1, 2),
}


def st_box(bound: int):
    """All (s, t) with 0 < max(|s|, |t|) <= bound and s*t != 0, in fixed order."""
    return [
        (s, t)
        for s in range(-bound, bound + 1)
        for t in range(-bound, bound + 1)
        if s * t != 0
    ]


def run_lapprox(n_grid=None, precision_bits: int = 192) -> LemmaResult:
    """Root and log expansions: residual slopes vs the claimed orders."""
    n_grid = n_grid or log_grid(100, 10**6)
    rows = []
    series = {(which, kind): [] for which in (0, 1, 2) for kind in ("value", "log")}
    for n in n_grid:
        rs = compute_roots(n, precision_bits)
        with workprec(precision_bits + 16):
            for which in (0, 1, 2):
                val_p, log_p = predict_root_expansion(n, which)
                lam = rs.lambdas[which]
                rv = float(lam - val_p.value)
                rl = float(rs.log_abs_lambda[which] - log_p.value)
                series[(which, "value")].append((n, rv))
                series[(which, "log")].append((n, rl))
                rows.append({
                    "n": n, "root": which,
                    "value_residual": rv, "log_residual": rl,
                    "value_order": val_p.error_order, "log_order": log_p.error_order,
                    "precision_bits": precision_bits,
                })
    claimed = {(0, "value"): -2.0, (1, "value"): -3.0, (2, "value"): -3.0,
               (0, "log"): -3.0, (1, "log"): -3.0, (2, "log"): -3.0}
    fits, ok = _fit_series(series, ("root", "kind"), claimed.__getitem__)
    return LemmaResult("lapprox", {"n_grid": n_grid, "precision_bits": precision_bits},
                       rows, fits, ok)


LPOWERS_EXPONENTS = (1, 2, 3, -1, -2)


def run_lpowers(n_grid=None, precision_bits: int = 192) -> LemmaResult:
    """Two-term power expansions: relative residual slopes."""
    n_grid = n_grid or log_grid(100, 10**6)
    _require_least_n("lpowers", n_grid, 1)
    rows = []
    series = {}
    for n in n_grid:
        rs = compute_roots(n, precision_bits + 64)
        with workprec(precision_bits + 64):
            for a in LPOWERS_EXPONENTS:
                for which in (0, 1, 2):
                    pred = predict_power(n, a, which)
                    true = rs.lambdas[which] ** a
                    rel = float((true - pred.value) / abs(true))
                    series.setdefault((a, which), []).append((n, rel))
                    rows.append({"n": n, "a": a, "root": which,
                                 "relative_residual": rel,
                                 "precision_bits": precision_bits})
    claimed_rel = {0: -2.5, 1: -1.5, 2: -1.5}  # claimed orders relative to the leading term
    fits, ok = _fit_series(series, ("a", "root"), lambda key: claimed_rel[key[1]])
    return LemmaResult("lpowers", {"n_grid": n_grid, "exponents": list(LPOWERS_EXPONENTS),
                                   "precision_bits": precision_bits}, rows, fits, ok)


def run_regulator(n_grid=None, precision_bits: int = 192) -> LemmaResult:
    """Regulator expansion: slope of (R - (log n)^2 - log(n)/n) / log n is -2 +- 0.3."""
    n_grid = n_grid or log_grid(100, 10**6)
    _require_least_n("regulator", n_grid, 2)
    rows, samples = [], []
    for n in n_grid:
        rs = compute_roots(n, precision_bits)
        with workprec(precision_bits + 16):
            L = mp.log(n)
            resid = float((rs.regulator - L * L - L / n) / L)
        samples.append((n, resid))
        rows.append({"n": n, "regulator": float(rs.regulator),
                     "scaled_residual": resid, "precision_bits": precision_bits})
    fits, ok = _fit_series({("regulator",): samples}, ("kind",), lambda key: -2.0,
                           two_sided=True)
    return LemmaResult("regulator", {"n_grid": n_grid, "precision_bits": precision_bits},
                       rows, fits, ok)


def logdiff_representatives():
    """Deterministic (s, t) list exercising all 12 branches."""
    pairs = []
    for rep in list(BRANCH_REPRESENTATIVES_12.values()) + list(BRANCH_REPRESENTATIVES_13.values()):
        if rep not in pairs:
            pairs.append(rep)
    return pairs


def run_logdiff(n_grid=None, pairs=None, epsilon: float = DEFAULT_EPSILON,
                precision_bits: int = 192) -> LemmaResult:
    """12-branch table: residual * n^(1+2eps) must not grow (slope <= 0.3)."""
    n_grid = n_grid or log_grid(1000, 10**6)
    pairs = pairs or logdiff_representatives()
    _require_least_n("logdiff", n_grid, 1)
    if float_power(max(n_grid), 1 + 2 * epsilon) == math.inf:
        raise ValueError(f"lemma logdiff scales residuals by n^(1+2 epsilon), "
                         f"which is beyond float range at n ~ 10^{len(str(max(n_grid))) - 1}")
    rows = []
    series = {}
    seen = set()
    for n in n_grid:
        bound = float_power(n, 0.5 - epsilon)
        cells = [(s, t) for s, t in pairs if max(abs(s), abs(t)) <= bound]
        with workprec(precision_bits + 16):
            nn = mpf(n)
            L = mp.log(nn)
        for s, t, tri, shift, logs in orbit_triples(n, cells, precision_bits):
            lab12, lab13 = classify_case(s, t)
            seen.add(lab12)
            seen.add(lab13)
            l12, l13, _, _ = _logdiffs(tri, shift, logs)
            with workprec(precision_bits + 16):
                p12, p13 = _predict_logdiff(nn, L, s, t, epsilon)
                r12 = float(l12 - p12.value)
                r13 = float(l13 - p13.value)
            scale = float(n ** (1 + 2 * epsilon))
            series.setdefault((s, t, 2), []).append((n, r12 * scale))
            series.setdefault((s, t, 3), []).append((n, r13 * scale))
            rows.append({"n": n, "s": s, "t": t,
                         "branch12": lab12.condition(), "branch13": lab13.condition(),
                         "residual12": r12, "residual13": r13,
                         "scaled12": r12 * scale, "scaled13": r13 * scale,
                         "precision_bits": precision_bits})
    covered = len(seen) == 12
    fits, ok = _fit_series(series, ("s", "t", "difference"))
    ok = covered and ok
    notes = "all 12 branches exercised" if covered else "branch coverage incomplete"
    return LemmaResult("logdiff", {"n_grid": n_grid, "pairs": pairs, "epsilon": epsilon,
                                   "precision_bits": precision_bits}, rows, fits, ok, notes)


def run_errorbound(n_grid=None, st_bound: int = 5, precision_bits: int = 192) -> LemmaResult:
    """Gap-product bounds with margins; first bound exempts (1,1) and (-1,-1)."""
    n_grid = n_grid or [10**3, 10**4, 10**5, 10**6]
    _require_least_n("errorbound", n_grid, 1)
    rows, failures = [], []
    for n in n_grid:
        for s, t, tri, shift, _ in orbit_triples(n, st_box(st_bound), precision_bits):
            rep = _error_products(tri, shift, s, t)
            rows.append({"n": n, "s": s, "t": t,
                         "margin_product": rep.margin_product,
                         "margin_min": rep.margin_min,
                         "margin_max": rep.margin_max,
                         "exempt_first": rep.exempt_first,
                         "passed": rep.passed,
                         "precision_bits": precision_bits})
            if not rep.passed:
                failures.append((n, s, t))
    ok = not failures
    notes = "" if ok else f"{len(failures)} grid points violate the bounds, e.g. {failures[:4]}"
    return LemmaResult("errorbound", {"n_grid": n_grid, "st_bound": st_bound,
                                      "precision_bits": precision_bits}, rows, [], ok, notes)


def run_vbar(n_grid=None, st_bound: int = 5, precision_bits: int = 192) -> LemmaResult:
    """Window and growth of v_bar = b0*R - v1 - v2: for n >= 10^4,
    v_bar n / log n >= 0.5 and (R - v_bar) / log n >= 0.05."""
    n_grid = n_grid or [10**4, 10**5, 10**6]
    _require_least_n("vbar", n_grid, 2)
    rows = []
    window_ok = True
    ratio_ok = True
    growth_ok = True
    for n in n_grid:
        ln = math.log(n)
        for s, t, tri, shift, logs in orbit_triples(n, st_box(st_bound), precision_bits):
            q = cell_quantities(tri, shift, logs, s, t, precision_bits)
            v_bar, reg = q.v_bar, q.regulator
            in_window = 0 < q.v_bar_num < q.regulator_num
            ratio = float(v_bar * n / ln)
            growth = float((reg - v_bar) / ln)
            window_ok = window_ok and in_window
            if n >= 10**4:
                ratio_ok = ratio_ok and ratio >= 0.5
                growth_ok = growth_ok and growth >= 0.05
            rows.append({"n": n, "s": s, "t": t, "b0": q.b0,
                         "v_bar": float(v_bar), "regulator": float(reg),
                         "v_bar_n_over_logn": ratio, "growth_over_logn": growth,
                         "in_window": in_window, "precision_bits": precision_bits})
    ok = window_ok and ratio_ok and growth_ok
    notes = (f"window {'100%' if window_ok else 'violated'}, "
             f"ratio>=0.5 {'ok' if ratio_ok else 'violated'}, "
             f"growth>=0.05 {'ok' if growth_ok else 'violated'}")
    return LemmaResult("vbar", {"n_grid": n_grid, "st_bound": st_bound,
                                "precision_bits": precision_bits}, rows, [], ok, notes)


def run_ubar(n_grid=None, precision_bits: int = 192) -> LemmaResult:
    """u_bar * n approaches 3 at (s, t) = (2, 1); require within 0.1 at the largest
    grid point."""
    n_grid = n_grid or log_grid(100, 10**6)
    s, t = 2, 1
    rows = []
    for n in n_grid:
        q = compute_proof_quantities(n, s, t, precision_bits)
        rows.append({"n": n, "s": s, "t": t, "u_bar_times_n": float(q.u_bar * n),
                     "precision_bits": precision_bits})
    final = rows[-1]["u_bar_times_n"]
    ok = abs(final - 3.0) <= 0.1
    return LemmaResult("ubar", {"n_grid": n_grid, "st": [s, t],
                                "precision_bits": precision_bits},
                       rows, [], ok, f"u_bar*n at n={n_grid[-1]}: {final:.6f}")


def run_wbar(n_grid=None, st_bound: int = 3, precision_bits: int = 192) -> LemmaResult:
    """Absorption check: |w_bar| / (2 |d12| |d13|) must stay below (3/4) log(n)/n."""
    n_grid = n_grid or [10**4, 10**5, 10**6]
    _require_least_n("wbar", n_grid, 1)
    rows, failures = [], []
    for n in n_grid:
        rhs = _absorb_rhs(n, precision_bits + 16)
        for s, t, tri, shift, logs in orbit_triples(n, st_box(st_bound), precision_bits):
            num, den = cell_quantities(tri, shift, logs, s, t, precision_bits).absorb_ratio()
            with workprec(precision_bits + 16):
                lhs = mpf(num) / den
                margin = float(rhs / lhs) if lhs > 0 else math.inf
            ok_pt = margin >= 1.0
            if not ok_pt:
                failures.append((n, s, t))
            rows.append({"n": n, "s": s, "t": t, "lhs": float(lhs), "rhs": float(rhs),
                         "margin": margin, "ok": ok_pt, "precision_bits": precision_bits})
    ok = not failures
    notes = "" if ok else f"{len(failures)} grid points fail absorption, e.g. {failures[:4]}"
    return LemmaResult("wbar", {"n_grid": n_grid, "st_bound": st_bound,
                                "precision_bits": precision_bits}, rows, [], ok, notes)
