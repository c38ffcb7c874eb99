"""Asymptotic predictors and their measurement harnesses, in the fixed point of roots.py.

Each predictor returns a Prediction (leading term, correction term) of
(numerator, radius) pairs over the caller's 2^K: rational terms
floored, with radius 1 where inexact, and logs from roots.fixed_log.  A residual,
an integer over 2^K with a radius, prints as the float both ends of its radius
round to, the correctly rounded float of the value it certifies (Ziv, ACM TOMS
17, 1991), or is retried at doubled bits.  The harnesses fit its decay exponent.

The twelve-branch table for log|alpha1 - alpha2| and log|alpha1 - alpha3|
is the delicate part.  It is one table, _BRANCHES, with a row per branch:
its condition, its diff12 terms and a representative (s, t) for each
difference.  The terms are derived from the two-term power expansions of the
roots and cross-checked against 400-bit numerics, each with residual O(n^-2)
for fixed (s, t), measured as a clean -2 slope on log-log grids.  The diff13
half is derived from them.  phi(s, t) = (t - s, -s) rotates the conjugates
(see proof.py), so |alpha1 - alpha3| at (s, t) is |alpha1 - alpha2| at
phi(s, t), and the diff13 branch of (s, t) is the mirror of the diff12 branch
of phi(s, t): WIDE_ABOVE <-> WIDE_BELOW, EDGE_ABOVE <-> EDGE_BELOW, and each
DOUBLED branch is its own mirror.  A sign or parity slip in one half
therefore shows in the other; tests/test_asymptotics.py keeps the six diff13
formulas written out as the check.

The certified proof quantities, on which the lower-bound chain rests, are in
proof.py; this module measures them.  The harnesses logdiff, errorbound, vbar
and wbar take the cells of an n by phi-orbit (roots.orbit_triples), and
true_logdiffs and check_error_products are the one-cell case (proof._one_cell).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .bounds import _absorb_threshold, _absorbed, _level, _log_int, float_power, ratio_float
from .errors import DegenerateTwist, ExactMatch, InsufficientSamples
from .forms import st_box
from .proof import (_cell_logs, _one_cell, _ordered_diffs, _quantities, cell_quantities,
                    compute_proof_quantities)
from .roots import (attempts, compute_roots, doublings, escalate, fixed_mul, orbit_triples,
                    working_bits)

DEFAULT_EPSILON = 0.25


class Branch(enum.Enum):
    """The six cases per difference, keyed by how 2s compares to t (or s to 2t);
    _BRANCHES holds each one's row."""

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
        u, v, parity = ("2s", "t", "s") if self.difference == 2 else ("s", "2t", "t")
        return _BRANCHES[self.branch][0].format(u=u, v=v, parity=parity)


# One row per branch: its condition on (u, v) = (2s, t) or (s, 2t), the diff12 terms
# (k, m, p, q) of log|alpha1 - alpha2| = k log n + log m + p / (q n) at (s, t), and its
# representative (s, t) for each difference, with max(|s|, |t|) <= n^(1/4) from n = 1000.
_BRANCHES = {
    Branch.WIDE_ABOVE: ("{u} > {v}+1", lambda s, t: (s - t, 1, -t, 1), (2, 1), (4, 1)),
    Branch.EDGE_ABOVE: ("{u} = {v}+1", lambda s, t: (s - t, 1, -(t + _sgn_pow(s)), 1),
                        (1, 1), (3, 1)),
    # |a1 - a2| = 2 n^(s-t) (1 + (s-t)/(2n) + ...)
    Branch.DOUBLED_ODD: ("{u} = {v}, {parity} odd", lambda s, t: (s - t, 2, s - t, 2),
                         (1, 2), (2, 1)),
    # leading coefficient |s + t| = 3|s|; next order -(s+1)/(2n)
    Branch.DOUBLED_EVEN: ("{u} = {v}, {parity} even",
                          lambda s, t: (s - t - 1, abs(s + t), -(s + 1), 2), (2, 4), (4, 2)),
    Branch.EDGE_BELOW: ("{u} = {v}-1", lambda s, t: (-s, 1, t - s - _sgn_pow(s), 1),
                        (1, 3), (3, 2)),
    Branch.WIDE_BELOW: ("{u} < {v}-1", lambda s, t: (-s, 1, t - s, 1), (1, 4), (1, 2)),
}


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
    """leading + correction, pairs over 2^K."""

    leading: tuple
    correction: tuple

    @property
    def value(self):
        return self.leading[0] + self.correction[0], self.leading[1] + self.correction[1]


def _minus(a, b):
    return a[0] - b[0], a[1] + b[1]


def _ratio(p: int, q: int, frac_bits: int):
    """p / q over 2^frac_bits for integers p and q > 0: its floor, radius 1 if inexact."""
    num, rem = divmod(p << frac_bits, q)
    return num, int(rem != 0)


def _term(c: int, n: int, e: int, frac_bits: int):
    """c n^e over 2^frac_bits, for an integer e of either sign."""
    return _ratio(c * n ** max(e, 0), n ** max(-e, 0), frac_bits)


def _sgn_pow(k: int) -> int:
    """(-1)**k for any integer sign of k."""
    return 1 if k % 2 == 0 else -1


def predict_root_expansion(n: int, which: int, frac_bits: int):
    """Two-term value and log expansions of root `which` (0, 1 or 2), over 2^frac_bits."""
    if n < 4 or which not in (0, 1, 2):
        raise ValueError("expansions are for n >= 4 and the roots 0, 1 and 2")
    # the value c n^e + c' n^e', and the log k log n + p / (2 n^2)
    c, e, c2, e2 = ((1, 1, 2, -1), (-1, -1, 1, -2), (-1, 0, -1, -1))[which]
    k, p = ((1, 4), (-1, -2 * n - 3), (0, 2 * n - 1))[which]
    K, (L, r) = frac_bits, _log_int(n, frac_bits)
    return (Prediction(_term(c, n, e, K), _term(c2, n, e2, K)),
            Prediction((k * L, abs(k) * r), _ratio(p, 2 * n * n, K)))


def predict_power(n: int, a: int, which: int, frac_bits: int) -> Prediction:
    """Two-term prediction of lam_which^a, signs folded in, over 2^frac_bits."""
    if which not in (0, 1, 2):
        raise ValueError("root index must be 0, 1 or 2")
    sg = _sgn_pow(a)
    # the leading term c n^e and the correction c' n^e'
    c, e, c2, e2 = ((1, a, 2 * a, a - 2), (sg, -a, -sg * a, -a - 1), (sg, 0, sg * a, -1))[which]
    return Prediction(_term(c, n, e, frac_bits), _term(c2, n, e2, frac_bits))


def predict_logdiff(n: int, s: int, t: int, frac_bits: int, log_n=None):
    """Branch predictions for log|alpha1 - alpha2| and log|alpha1 - alpha3|, over
    2^frac_bits, from log_n = log n over 2^frac_bits where the caller has it.

    The claimed error order is -(1 + 2*epsilon) for exponents up to n^(1/2-epsilon),
    which run_logdiff checks; for fixed (s, t) the measured residuals decay like n^-2.
    """
    if s * t == 0:
        raise DegenerateTwist("log-difference expansions need s*t != 0")
    L = log_n or _log_int(n, frac_bits)
    # |alpha1 - alpha3| at (s, t) is |alpha1 - alpha2| at phi(s, t) (module docstring)
    return _predict12(n, L, frac_bits, s, t), _predict12(n, L, frac_bits, t - s, -s)


def _predict12(n: int, log_n, K: int, s: int, t: int) -> Prediction:
    """The diff12 prediction of predict_logdiff at (s, t) from its row of _BRANCHES: the
    leading term k log n + log m and the correction p / (q n), from log n over 2^K."""
    k, m, p, q = _BRANCHES[_classify_one(2 * s, t, s)][1](s, t)
    (L, r), (g, rg) = log_n, _log_int(m, K) if m > 1 else (0, 0)
    return Prediction((k * L + g, abs(k) * r + rg), _ratio(p, q * n, K))


def _rounded(pair, den: int):
    """The float both ends of the radius of pair / den round to (den > 0), the
    correctly rounded float of the value it certifies; None where they round apart."""
    low = ratio_float(pair[0] - pair[1], den)
    return low if low == ratio_float(pair[0] + pair[1], den) else None


def _relative(d, v, frac_bits: int):
    """d / |v| over 2^K, for pairs d = (D, r_d) and v = (V, r_v) with |V| > r_v; its radius
    is 2^K (r_d |V| + |D| r_v) / (|V| (|V| - r_v)), rounded up, plus one for the floor."""
    (D, rd), (V, rv) = d, (abs(v[0]), v[1])
    bound = (rd * V + abs(D) * rv) << frac_bits
    return (D << frac_bits) // V, -(-bound // (V * (V - rv))) + 1


def _expansion_point(what: str, n: int, precision_bits: int, point, extra: int = 0):
    """(bits, point(rs)), bits the bits residuals down to order n^-3 need, at least
    precision_bits, and rs the first root set of n over doublings(bits + extra) whose
    rounded values point(rs) hold no None: a decision that escalates over root sets."""
    bits = max(precision_bits, working_bits(n, 3, 64))
    tries = (compute_roots(n, b) for b in doublings(bits + extra))
    return bits, escalate(lambda: f"the {what} at n={n}", tries,
                          lambda rs: None if None in (out := point(rs)) else out)


def true_logdiffs(n: int, s: int, t: int, precision_bits: int = 192):
    """Certified log|alpha1 - alpha2|, log|alpha1 - alpha3| and the signed differences as
    (K, (l12, l13, d12, d13)), pairs over 2^K of the first triple that decides them."""
    tri = _one_cell(n, s, t, precision_bits)
    return escalate(lambda: f"the conjugate differences of (n,s,t)={(n, s, t)}", attempts(tri),
                    lambda cur: (got := _cell_logs(cur, 0)) and (cur.frac_bits, got))


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
    return _error_products(_one_cell(n, s, t, precision_bits), 0, s, t)


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


def _require_grid(name: str, n_grid, least: int, exponent: float = 0, what: str = ""):
    """ValueError unless every n of the grid is at least `least`, the least n the
    harness's formulas hold at (none divides by zero or takes the log of zero), and
    n^exponent at the largest n is a normal float: the harness `what`, as floats."""
    low, top = min(n_grid), max(n_grid)
    if low < least:
        raise ValueError(f"lemma {name} needs n >= {least}, got n = {low}")
    if not sys.float_info.min <= float_power(top, exponent) < math.inf:
        raise ValueError(f"lemma {name} {what}, which is beyond float range "
                         f"at n ~ 10^{len(str(top)) - 1}")


def log_grid(lo: int, hi: int):
    """Deterministic log-spaced integer grid from lo to hi inclusive, two points a decade."""
    if lo <= 0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    count = max(2, int(round(2 * math.log10(hi / lo))) + 1)
    vals = sorted({int(round(lo * (hi / lo) ** (i / (count - 1)))) for i in range(count)})
    return vals


# the n grid of each runner when it is given none; the CLI counts its points
_WIDE_GRID = tuple(log_grid(100, 10**6))
DEFAULT_N_GRIDS = {"lapprox": _WIDE_GRID, "lpowers": _WIDE_GRID, "regulator": _WIDE_GRID,
                   "ubar": _WIDE_GRID, "logdiff": tuple(log_grid(1000, 10**6)),
                   "errorbound": (10**3, 10**4, 10**5, 10**6),
                   "vbar": (10**4, 10**5, 10**6), "wbar": (10**4, 10**5, 10**6)}
# the st_bound of each box runner when it is given none, st_box(st_bound) its
# box; None is logdiff's branch representatives
DEFAULT_BOXES = {"logdiff": None, "errorbound": 5, "vbar": 5, "wbar": 3}


def run_lapprox(n_grid=None, precision_bits: int = 192) -> LemmaResult:
    """Root and log expansions: residual slopes vs the claimed orders."""
    n_grid = n_grid or DEFAULT_N_GRIDS["lapprox"]
    _require_grid("lapprox", n_grid, 4, -3, "fits residuals down to order n^-3")
    # claimed orders of predict_root_expansion's neglected errors, by kind and root
    claimed = {"value": (-2.0, -3.0, -3.0), "log": (-3.0, -3.0, -3.0)}
    rows, series = [], {}
    for n in n_grid:
        bits, values = _expansion_point("lapprox residuals", n, precision_bits, _lapprox_point)
        for which in (0, 1, 2):
            rv, rl = values[2 * which: 2 * which + 2]
            for kind, residual in (("value", rv), ("log", rl)):
                series.setdefault((which, kind), []).append((n, residual))
            rows.append({"n": n, "root": which, "value_residual": rv, "log_residual": rl,
                         "value_order": claimed["value"][which],
                         "log_order": claimed["log"][which], "precision_bits": bits})
    fits, ok = _fit_series(series, ("root", "kind"), lambda key: claimed[key[1]][key[0]])
    return LemmaResult("lapprox", {"n_grid": n_grid, "precision_bits": precision_bits},
                       rows, fits, ok)


def _lapprox_point(rs):
    """The value and log residuals of each root of rs, rounded."""
    K, out = rs.frac_bits, []
    for which in (0, 1, 2):
        val_p, log_p = predict_root_expansion(rs.n, which, K)
        out += [_rounded(_minus(rs.lam_fixed[which], val_p.value), 1 << K),
                _rounded(_minus(rs.log_fixed[which], log_p.value), 1 << K)]
    return out


LPOWERS_EXPONENTS = (1, 2, 3, -1, -2)
_LPOWERS_CELLS = [(a, which) for a in LPOWERS_EXPONENTS for which in (0, 1, 2)]


def run_lpowers(n_grid=None, precision_bits: int = 192) -> LemmaResult:
    """Two-term power expansions: relative residual slopes."""
    n_grid = n_grid or DEFAULT_N_GRIDS["lpowers"]
    _require_grid("lpowers", n_grid, 1, -3, "fits relative residuals down to order n^-3")
    rows, series = [], {}
    for n in n_grid:
        bits, rels = _expansion_point("lpowers residuals", n, precision_bits, _lpowers_point, 64)
        for (a, which), rel in zip(_LPOWERS_CELLS, rels):
            series.setdefault((a, which), []).append((n, rel))
            rows.append({"n": n, "a": a, "root": which,
                         "relative_residual": rel, "precision_bits": bits})
    claimed_rel = {0: -2.5, 1: -1.5, 2: -1.5}  # claimed orders relative to the leading term
    fits, ok = _fit_series(series, ("a", "root"), lambda key: claimed_rel[key[1]])
    return LemmaResult("lpowers", {"n_grid": n_grid, "exponents": list(LPOWERS_EXPONENTS),
                                   "precision_bits": precision_bits}, rows, fits, ok)


def _lpowers_point(rs):
    """The relative residuals (lam^a - prediction) / |lam^a| of rs, rounded, by row."""
    K, out = rs.frac_bits, []
    for a, which in _LPOWERS_CELLS:
        true, pred = rs.power(which, a), predict_power(rs.n, a, which, K)
        out.append(_rounded(_relative(_minus(true, pred.value), true, K), 1 << K))
    return out


def run_regulator(n_grid=None, precision_bits: int = 192) -> LemmaResult:
    """Regulator expansion: slope of (R - (log n)^2 - log(n)/n) / log n is -2 +- 0.3."""
    n_grid = n_grid or DEFAULT_N_GRIDS["regulator"]
    _require_grid("regulator", n_grid, 2, -2, "fits residuals of order n^-2")
    rows, samples = [], []
    for n in n_grid:
        bits, (reg, resid) = _expansion_point("regulator", n, precision_bits, _regulator_point)
        samples.append((n, resid))
        rows.append({"n": n, "regulator": reg,
                     "scaled_residual": resid, "precision_bits": bits})
    fits, ok = _fit_series({("regulator",): samples}, ("kind",), lambda key: -2.0,
                           two_sided=True)
    return LemmaResult("regulator", {"n_grid": n_grid, "precision_bits": precision_bits},
                       rows, fits, ok)


def _regulator_point(rs):
    """R and (R - (log n)^2 - log(n)/n) / log n of the root set rs, rounded."""
    n, K, L = rs.n, rs.frac_bits, _log_int(rs.n, rs.frac_bits)
    resid = _minus(_minus(rs.reg_fixed, fixed_mul(L, L, K)), (L[0] // n, -(-L[1] // n) + 1))
    return [_rounded(rs.reg_fixed, 1 << K), _rounded(_relative(resid, L, K), 1 << K)]


def logdiff_representatives():
    """Deterministic (s, t) list exercising all 12 branches: the diff12 representatives
    of _BRANCHES in row order, then the diff13 ones not already listed."""
    rows = _BRANCHES.values()
    return list(dict.fromkeys([r12 for _, _, r12, _ in rows] + [r13 for *_, r13 in rows]))


def run_logdiff(n_grid=None, st_bound=None, epsilon: float = DEFAULT_EPSILON,
                precision_bits: int = 192) -> LemmaResult:
    """12-branch table: residual * n^(1+2eps) must not grow (slope <= 0.3), on
    st_box(st_bound) or the branch representatives."""
    n_grid = n_grid or DEFAULT_N_GRIDS["logdiff"]
    st_bound = st_bound or DEFAULT_BOXES["logdiff"]
    pairs = st_box(st_bound) if st_bound else logdiff_representatives()
    _require_grid("logdiff", n_grid, 1, 1 + 2 * epsilon, "scales residuals by n^(1+2 epsilon)")
    rows, series, seen = [], {}, set()
    for n in n_grid:
        bound = float_power(n, 0.5 - epsilon)
        cells = [(s, t) for s, t in pairs if max(abs(s), abs(t)) <= bound]
        log_n = lru_cache(maxsize=None)(lambda K, n=n: _log_int(n, K))   # once per n and K
        for s, t, tri, shift in orbit_triples(n, cells, precision_bits):
            lab12, lab13 = classify_case(s, t)
            seen.add(lab12)
            seen.add(lab13)
            r12, r13 = _logdiff_residuals(tri, shift, s, t, log_n)
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


def _logdiff_residuals(tri, shift: int, s: int, t: int, log_n):
    """The rounded residuals of log|alpha1 - alpha2| and log|alpha1 - alpha3| of the cell
    (s, t) of tri at shift, with log_n(K) = log n over 2^K, escalating from tri."""
    def decide(cur):
        K = cur.frac_bits
        got, preds = _cell_logs(cur, shift), predict_logdiff(cur.n, s, t, K, log_n(K))
        out = got and [_rounded(_minus(l, p.value), 1 << K) for l, p in zip(got, preds)]
        return out if out and None not in out else None

    return escalate(lambda: f"the log-difference residuals of (n,s,t)={(tri.n, s, t)}",
                    attempts(tri), decide)


def run_errorbound(n_grid=None, st_bound=None, precision_bits: int = 192) -> LemmaResult:
    """Gap-product bounds with margins; first bound exempts (1,1) and (-1,-1)."""
    n_grid = n_grid or DEFAULT_N_GRIDS["errorbound"]
    st_bound = st_bound or DEFAULT_BOXES["errorbound"]
    _require_grid("errorbound", n_grid, 1)
    rows, failures = [], []
    for n in n_grid:
        for s, t, tri, shift in orbit_triples(n, st_box(st_bound), precision_bits):
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


def run_vbar(n_grid=None, st_bound=None, precision_bits: int = 192) -> LemmaResult:
    """Window and growth of v_bar = b0*R - v1 - v2: for n >= 10^4,
    v_bar n / log n >= 0.5 and (R - v_bar) / log n >= 0.05."""
    n_grid = n_grid or DEFAULT_N_GRIDS["vbar"]
    st_bound = st_bound or DEFAULT_BOXES["vbar"]
    _require_grid("vbar", n_grid, 2)
    rows = []
    window_ok = True
    ratio_ok = True
    growth_ok = True
    for n in n_grid:
        ln = math.log(n)
        for s, t, tri, shift in orbit_triples(n, st_box(st_bound), precision_bits):
            q = cell_quantities(tri, shift, s, t)
            v_bar, reg, one = q.v_bar_num, q.regulator_num, 1 << q.frac_bits
            in_window = 0 < v_bar < reg
            ratio = ratio_float(v_bar * n, one) / ln
            growth = ratio_float(reg - v_bar, one) / ln
            window_ok = window_ok and in_window
            if n >= 10**4:
                ratio_ok = ratio_ok and ratio >= 0.5
                growth_ok = growth_ok and growth >= 0.05
            rows.append({"n": n, "s": s, "t": t, "b0": q.b0,
                         "v_bar": ratio_float(v_bar, one), "regulator": ratio_float(reg, one),
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
    n_grid = n_grid or DEFAULT_N_GRIDS["ubar"]
    s, t = 2, 1
    rows = []
    for n in n_grid:
        q = compute_proof_quantities(n, s, t, precision_bits)
        u_bar_n = ratio_float(q.u_bar_num * n, 1 << q.frac_bits)
        rows.append({"n": n, "s": s, "t": t, "u_bar_times_n": u_bar_n,
                     "precision_bits": precision_bits})
    final = rows[-1]["u_bar_times_n"]
    ok = abs(final - 3.0) <= 0.1
    return LemmaResult("ubar", {"n_grid": n_grid, "st": [s, t],
                                "precision_bits": precision_bits},
                       rows, [], ok, f"u_bar*n at n={n_grid[-1]}: {final:.6f}")


def run_wbar(n_grid=None, st_bound=None, precision_bits: int = 192) -> LemmaResult:
    """Absorption check: |w_bar| / (2 |d12| |d13|) must stay below (3/4) log(n)/n.  A
    cell's b0 and the threshold and absorption test of bounds._chain are one decision on
    each attempt in turn, at the constants of n of its level (bounds._decided)."""
    n_grid = n_grid or DEFAULT_N_GRIDS["wbar"]
    st_bound = st_bound or DEFAULT_BOXES["wbar"]
    _require_grid("wbar", n_grid, 1)
    rows, failures = [], []
    for n in n_grid:
        consts = {}
        for s, t, tri, shift in orbit_triples(n, st_box(st_bound), precision_bits):
            def decide(cur):
                nonlocal open_test
                q = _quantities(cur, shift, s, t)
                if q is None:
                    return None
                const = _level(consts, cur, tri, 1, precision_bits)
                (num, den), K = q.absorb_ratio(), q.frac_bits
                a, r = _absorb_threshold(const.log_n, const.frac_bits, n, K)
                rhs = _rounded((a, r), 1 << K)
                margin = _rounded((a * den, r * den), num << K) if num else math.inf
                ok, open_test = _absorbed(q, a, r), "the w_bar margin"
                return None if None in (rhs, margin, ok) else (ratio_float(num, den), rhs,
                                                                margin, ok)

            open_test = "b0"
            lhs, rhs, margin, ok_pt = escalate(lambda: f"{open_test} of (n,s,t)={(n, s, t)}",
                                               attempts(tri), decide)
            if not ok_pt:
                failures.append((n, s, t))
            rows.append({"n": n, "s": s, "t": t, "lhs": lhs, "rhs": rhs,
                         "margin": margin, "ok": ok_pt, "precision_bits": precision_bits})
    ok = not failures
    notes = "" if ok else f"{len(failures)} grid points fail absorption, e.g. {failures[:4]}"
    return LemmaResult("wbar", {"n_grid": n_grid, "st_bound": st_bound,
                                "precision_bits": precision_bits}, rows, [], ok, notes)
