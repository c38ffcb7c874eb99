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
from it.  phi(s, t) = (t - s, -s) rotates the conjugates (see proof.py), so
|alpha1 - alpha3| at (s, t) is |alpha1 - alpha2| at phi(s, t), and the
diff13 branch of (s, t) is the mirror of the diff12 branch of phi(s, t):
WIDE_ABOVE <-> WIDE_BELOW, EDGE_ABOVE <-> EDGE_BELOW, and each DOUBLED
branch is its own mirror.  A sign or parity slip in one half therefore shows
in the other; tests/test_asymptotics.py keeps the six diff13 formulas
written out as the check.

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

from mpmath import mp, mpf, workprec
from mpmath.libmp import fone, from_man_exp, mpf_div, round_nearest

from .bounds import float_power, ratio_float
from .errors import DegenerateTwist, ExactMatch, InsufficientSamples
from .forms import st_box
from .proof import _cell_logs, _one_cell, _ordered_diffs, cell_quantities, compute_proof_quantities
from .roots import compute_roots, escalate, orbit_triples, working_bits

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


def fixed_view(num: int, frac_bits: int):
    """num / 2^frac_bits as an mpf, exactly, whatever the working precision."""
    return mp.make_mpf(from_man_exp(num, -frac_bits))


def _logdiffs(tri, shift: int):
    """_cell_logs as exact mpf views of their numerators over 2^K, escalating
    from tri where a difference is not known to be nonzero."""
    def decide(cur):
        got = _cell_logs(cur, shift)
        return got and tuple(fixed_view(num, cur.frac_bits) for num, _ in got)

    return escalate(lambda: f"the conjugate differences in the phi-orbit of (n,s,t)="
                            f"{(tri.n, tri.s, tri.t)}", tri, decide)


def true_logdiffs(n: int, s: int, t: int, precision_bits: int = 192):
    """Certified log|alpha1 - alpha2|, log|alpha1 - alpha3| and the signed differences."""
    return _logdiffs(_one_cell(n, s, t, precision_bits, "conjugate differences"), 0)


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


def _expansion_bits(n: int, precision_bits: int) -> int:
    """precision_bits, or more where residuals down to order n^-3 would fall below them."""
    return max(precision_bits, working_bits(n, 3, 64))


def root_values(rs):
    """lam0, lam1, lam2 of the root set rs as mpf values: lam0 = N / 2^K exactly, lam1
    and lam2 1/x of the exact values of their inverses (of size at least 1), rounded to
    nearest at rs.precision_bits + 32 bits, so that lam1 ~ -1/n keeps its relative
    accuracy where it is below one unit of 2^-K."""
    K, prec = rs.frac_bits, rs.precision_bits + 32
    return (fixed_view(rs.lam_fixed[0][0], K),
            *(mp.make_mpf(mpf_div(fone, from_man_exp(num, -K), prec, round_nearest))
              for num, _ in rs.inv_fixed[1:]))


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


def run_lapprox(n_grid=None, precision_bits: int = 192) -> LemmaResult:
    """Root and log expansions: residual slopes vs the claimed orders."""
    n_grid = n_grid or DEFAULT_N_GRIDS["lapprox"]
    _require_grid("lapprox", n_grid, 4, -3, "fits residuals down to order n^-3")
    rows = []
    series = {(which, kind): [] for which in (0, 1, 2) for kind in ("value", "log")}
    for n in n_grid:
        bits = _expansion_bits(n, precision_bits)
        rs = compute_roots(n, bits)
        lams = root_values(rs)
        with workprec(bits + 16):
            for which in (0, 1, 2):
                val_p, log_p = predict_root_expansion(n, which)
                rv = float(lams[which] - val_p.value)
                rl = float(fixed_view(rs.log_fixed[which][0], rs.frac_bits) - log_p.value)
                series[(which, "value")].append((n, rv))
                series[(which, "log")].append((n, rl))
                rows.append({
                    "n": n, "root": which,
                    "value_residual": rv, "log_residual": rl,
                    "value_order": val_p.error_order, "log_order": log_p.error_order,
                    "precision_bits": bits,
                })
    claimed = {(0, "value"): -2.0, (1, "value"): -3.0, (2, "value"): -3.0,
               (0, "log"): -3.0, (1, "log"): -3.0, (2, "log"): -3.0}
    fits, ok = _fit_series(series, ("root", "kind"), claimed.__getitem__)
    return LemmaResult("lapprox", {"n_grid": n_grid, "precision_bits": precision_bits},
                       rows, fits, ok)


LPOWERS_EXPONENTS = (1, 2, 3, -1, -2)


def run_lpowers(n_grid=None, precision_bits: int = 192) -> LemmaResult:
    """Two-term power expansions: relative residual slopes."""
    n_grid = n_grid or DEFAULT_N_GRIDS["lpowers"]
    _require_grid("lpowers", n_grid, 1, -3, "fits relative residuals down to order n^-3")
    rows = []
    series = {}
    for n in n_grid:
        bits = _expansion_bits(n, precision_bits)
        lams = root_values(compute_roots(n, bits + 64))
        with workprec(bits + 64):
            for a in LPOWERS_EXPONENTS:
                for which in (0, 1, 2):
                    pred = predict_power(n, a, which)
                    true = lams[which] ** a
                    rel = float((true - pred.value) / abs(true))
                    series.setdefault((a, which), []).append((n, rel))
                    rows.append({"n": n, "a": a, "root": which,
                                 "relative_residual": rel,
                                 "precision_bits": bits})
    claimed_rel = {0: -2.5, 1: -1.5, 2: -1.5}  # claimed orders relative to the leading term
    fits, ok = _fit_series(series, ("a", "root"), lambda key: claimed_rel[key[1]])
    return LemmaResult("lpowers", {"n_grid": n_grid, "exponents": list(LPOWERS_EXPONENTS),
                                   "precision_bits": precision_bits}, rows, fits, ok)


def run_regulator(n_grid=None, precision_bits: int = 192) -> LemmaResult:
    """Regulator expansion: slope of (R - (log n)^2 - log(n)/n) / log n is -2 +- 0.3."""
    n_grid = n_grid or DEFAULT_N_GRIDS["regulator"]
    _require_grid("regulator", n_grid, 2, -2, "fits residuals of order n^-2")
    rows, samples = [], []
    for n in n_grid:
        bits = _expansion_bits(n, precision_bits)
        rs = compute_roots(n, bits)
        reg = fixed_view(rs.reg_fixed[0], rs.frac_bits)
        with workprec(bits + 16):
            L = mp.log(n)
            resid = float((reg - L * L - L / n) / L)
        samples.append((n, resid))
        rows.append({"n": n, "regulator": float(reg),
                     "scaled_residual": resid, "precision_bits": bits})
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
    n_grid = n_grid or DEFAULT_N_GRIDS["logdiff"]
    pairs = pairs or logdiff_representatives()
    _require_grid("logdiff", n_grid, 1, 1 + 2 * epsilon, "scales residuals by n^(1+2 epsilon)")
    rows = []
    series = {}
    seen = set()
    for n in n_grid:
        bound = float_power(n, 0.5 - epsilon)
        cells = [(s, t) for s, t in pairs if max(abs(s), abs(t)) <= bound]
        with workprec(precision_bits + 16):
            nn = mpf(n)
            L = mp.log(nn)
        for s, t, tri, shift in orbit_triples(n, cells, precision_bits):
            lab12, lab13 = classify_case(s, t)
            seen.add(lab12)
            seen.add(lab13)
            l12, l13, _, _ = _logdiffs(tri, shift)
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
    n_grid = n_grid or DEFAULT_N_GRIDS["errorbound"]
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


def run_vbar(n_grid=None, st_bound: int = 5, precision_bits: int = 192) -> LemmaResult:
    """Window and growth of v_bar = b0*R - v1 - v2: for n >= 10^4,
    v_bar n / log n >= 0.5 and (R - v_bar) / log n >= 0.05."""
    n_grid = n_grid or DEFAULT_N_GRIDS["vbar"]
    _require_grid("vbar", n_grid, 2)
    rows = []
    window_ok = True
    ratio_ok = True
    growth_ok = True
    for n in n_grid:
        ln = math.log(n)
        for s, t, tri, shift in orbit_triples(n, st_box(st_bound), precision_bits):
            q = cell_quantities(tri, shift, s, t, precision_bits)
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


def _absorb_rhs(n: int, wp: int):
    """The absorption threshold (3/4) log(n) / n at wp bits, the value run_wbar
    prints (bounds decides the absorption in the fixed point)."""
    with workprec(wp):
        return mpf(3) / 4 * mp.log(n) / n


def run_wbar(n_grid=None, st_bound: int = 3, precision_bits: int = 192) -> LemmaResult:
    """Absorption check: |w_bar| / (2 |d12| |d13|) must stay below (3/4) log(n)/n."""
    n_grid = n_grid or DEFAULT_N_GRIDS["wbar"]
    _require_grid("wbar", n_grid, 1)
    rows, failures = [], []
    for n in n_grid:
        rhs = _absorb_rhs(n, precision_bits + 16)
        for s, t, tri, shift in orbit_triples(n, st_box(st_bound), precision_bits):
            q = cell_quantities(tri, shift, s, t, precision_bits)
            (num, den), k = q.absorb_ratio(), 2 * q.frac_bits
            with workprec(precision_bits + 16):
                lhs = mpf((num >> k, k)) / den   # num = w 2^k; from (w, k), no zeros to strip
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
