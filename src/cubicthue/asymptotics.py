"""Asymptotic predictors and their measurement harnesses.

Each predictor returns a structured Prediction (leading term, correction
term, claimed error order) so the harness can compare any of the pieces
against certified numeric values and fit the actual decay exponent of the
residual over a parameter grid.

The twelve-branch table for log|alpha1 - alpha2| and log|alpha1 - alpha3|
is the delicate part.  The branch formulas below were derived from the
two-term power expansions of the roots and cross-checked against 400-bit
numerics: every branch has residual O(n^-2) for fixed (s, t), measured as a
clean -2 slope on log-log grids.  Several printed forms of this table in
circulation contain sign/parity slips; the versions here are the measured
ones (see the per-branch comments).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from mpmath import mp, mpf, workprec

from .errors import DegenerateTwist, ExactMatch, InsufficientSamples
from .roots import compute_alphas, compute_roots

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

    def __str__(self):
        return f"diff1{self.difference}:{self.condition()}"


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
    if s * t == 0:
        raise DegenerateTwist("log-difference expansions need s*t != 0")
    lab12, lab13 = classify_case(s, t)
    nn = mpf(n)
    L = mp.log(nn)
    err = -(1 + 2 * epsilon)

    b = lab12.branch
    if b is Branch.WIDE_ABOVE:
        p12 = Prediction((s - t) * L, mpf(-t) / nn, err)
    elif b is Branch.EDGE_ABOVE:
        p12 = Prediction((s - t) * L, mpf(-(t + _sgn_pow(s))) / nn, err)
    elif b is Branch.DOUBLED_ODD:
        # |a1 - a2| = 2 n^(s-t) (1 + (s-t)/(2n) + ...)
        p12 = Prediction((s - t) * L + mp.log(2), mpf(s - t) / (2 * nn), err)
    elif b is Branch.DOUBLED_EVEN:
        # leading coefficient |s + t| = 3|s|; next order -(s+1)/(2n)
        p12 = Prediction((s - t - 1) * L + mp.log(abs(s + t)), mpf(-(s + 1)) / (2 * nn), err)
    elif b is Branch.EDGE_BELOW:
        p12 = Prediction((-s) * L, mpf(t - s - _sgn_pow(s)) / nn, err)
    else:
        p12 = Prediction((-s) * L, mpf(t - s) / nn, err)

    b = lab13.branch
    if b is Branch.WIDE_ABOVE:
        p13 = Prediction((s - t) * L, mpf(-t) / nn, err)
    elif b is Branch.EDGE_ABOVE:
        p13 = Prediction((s - t) * L, mpf(-(t - _sgn_pow(t))) / nn, err)
    elif b is Branch.DOUBLED_ODD:
        p13 = Prediction(t * L + mp.log(2), mpf(s - t) / (2 * nn), err)
    elif b is Branch.DOUBLED_EVEN:
        # leading coefficient |s + t| = 3|t|; next order +(t-1)/(2n)
        p13 = Prediction((t - 1) * L + mp.log(abs(s + t)), mpf(t - 1) / (2 * nn), err)
    elif b is Branch.EDGE_BELOW:
        p13 = Prediction(t * L, mpf(s + _sgn_pow(t)) / nn, err)
    else:
        p13 = Prediction(t * L, mpf(s) / nn, err)

    return p12, p13


def _diff_precision(n: int, s: int, t: int, precision_bits: int) -> int:
    """Bits needed so the conjugate differences survive catastrophic cancellation."""
    extra = int(math.ceil((abs(s) + abs(t) + 2) * math.log2(n + 2))) + 32
    return precision_bits + extra


def _signed_diffs(n: int, s: int, t: int, precision_bits: int):
    """alpha1 - alpha2, alpha1 - alpha3 and the AlphaTriple they come from.

    The triple's precision_bits is _diff_precision(n, s, t, precision_bits).
    """
    if s * t == 0:
        raise DegenerateTwist("conjugate differences need s*t != 0")
    tri = compute_alphas(n, s, t, _diff_precision(n, s, t, precision_bits))
    with workprec(tri.roots.precision_bits):
        return tri.alpha1 - tri.alpha2, tri.alpha1 - tri.alpha3, tri


def true_logdiffs(n: int, s: int, t: int, precision_bits: int = 192):
    """Certified log|alpha1 - alpha2|, log|alpha1 - alpha3| and the signed differences."""
    d12, d13, tri = _signed_diffs(n, s, t, precision_bits)
    with workprec(tri.roots.precision_bits):
        return mp.log(abs(d12)), mp.log(abs(d13)), d12, d13


@dataclass(frozen=True)
class ErrorProductReport:
    """The three gap-product bounds with their multiplicative margins."""

    n: int
    s: int
    t: int
    product: float
    min_mixed: float
    max_mixed: float
    margin_product: float  # product / ((2/3) n^2)
    margin_min: float      # min_mixed / ((2/3) n)
    margin_max: float      # max_mixed / ((2/3) n^2)
    exempt_first: bool     # (s,t) in {(1,1), (-1,-1)} skips the first bound

    @property
    def passed(self) -> bool:
        ok_first = self.exempt_first or self.margin_product >= 1.0
        return ok_first and self.margin_min >= 1.0 and self.margin_max >= 1.0


def check_error_products(n: int, s: int, t: int, precision_bits: int = 192) -> ErrorProductReport:
    if s * t == 0:
        raise DegenerateTwist("error products need s*t != 0")
    d12, d13, _ = _signed_diffs(n, s, t, precision_bits)
    with workprec(precision_bits + 16):
        a12, a13 = abs(d12), abs(d13)
        product = a12 * a13
        mixed1 = a12 * a12 * a13
        mixed2 = a12 * a13 * a13
        mn, mx = min(mixed1, mixed2), max(mixed1, mixed2)
        two_thirds = mpf(2) / 3
        return ErrorProductReport(
            n, s, t,
            float(product), float(mn), float(mx),
            float(product / (two_thirds * n * n)),
            float(mn / (two_thirds * n)),
            float(mx / (two_thirds * n * n)),
            (s, t) in ((1, 1), (-1, -1)),
        )


@dataclass(frozen=True)
class ProofQuantities:
    """The six 2x2 determinants of the unit-exponent system plus derived scalars.

    u_bar = -u1 - u2, w_bar = -w1 - w2, and b0 is the unique integer placing
    v_bar = b0*R - v1 - v2 inside the window (0, R).
    """

    n: int
    s: int
    t: int
    precision_bits: int
    u1: object
    u2: object
    v1: object
    v2: object
    w1: object
    w2: object
    u_bar: object
    v_bar: object
    w_bar: object
    b0: int
    regulator: object
    logdiff12: object
    logdiff13: object
    diff12_abs: object
    diff13_abs: object


def compute_proof_quantities(n: int, s: int, t: int, precision_bits: int = 192) -> ProofQuantities:
    if s * t == 0:
        raise DegenerateTwist("proof quantities need s*t != 0")
    d12, d13, tri = _signed_diffs(n, s, t, precision_bits)
    with workprec(tri.roots.precision_bits):
        a12, a13 = abs(d12), abs(d13)
        l12, l13 = mp.log(a12), mp.log(a13)
    # the logs of the roots the differences were taken from, so one root set serves both
    la0, la1, la2 = tri.roots.log_abs_lambda
    with workprec(tri.precision_bits):
        reg = tri.roots.regulator
        u1 = la0 - la2
        u2 = la1 - la2
        v1 = l12 * la0 - la2 * l13
        v2 = la1 * l13 - l12 * la2
        w1 = la0 / d12 - la2 / d13
        w2 = la1 / d13 - la2 / d12
        u_bar = -u1 - u2
        w_bar = -w1 - w2
        b0 = int(mp.floor((v1 + v2) / reg)) + 1
        v_bar = b0 * reg - v1 - v2
    return ProofQuantities(
        n, s, t, precision_bits,
        u1, u2, v1, v2, w1, w2,
        u_bar, v_bar, w_bar, b0, reg,
        l12, l13, a12, a13,
    )


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
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
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    ss_tot = math.fsum(b * b for b in dy)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    dof = len(pts) - 2
    stderr = math.sqrt(ss_res / dof / denom) if dof > 0 and denom > 0 else 0.0
    return FitResult(slope, intercept, stderr, r2, len(pts))


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


def log_grid(lo: int, hi: int, per_decade: int = 2):
    """Deterministic log-spaced integer grid from lo to hi inclusive."""
    if lo <= 0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    count = max(2, int(round(per_decade * math.log10(hi / lo))) + 1)
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
    fits, ok = [], True
    claimed = {(0, "value"): -2.0, (1, "value"): -3.0, (2, "value"): -3.0,
               (0, "log"): -3.0, (1, "log"): -3.0, (2, "log"): -3.0}
    for key, samples in sorted(series.items()):
        fit = fit_error_exponent(samples)
        tol_ok = fit.slope <= claimed[key] + 0.3
        ok = ok and tol_ok
        fits.append({"root": key[0], "kind": key[1], "slope": fit.slope,
                     "claimed": claimed[key], "stderr": fit.stderr, "ok": tol_ok})
    return LemmaResult("lapprox", {"n_grid": n_grid, "precision_bits": precision_bits},
                       rows, fits, ok)


def run_lpowers(n_grid=None, exponents=(1, 2, 3, -1, -2), precision_bits: int = 192) -> LemmaResult:
    """Two-term power expansions: relative residual slopes."""
    n_grid = n_grid or log_grid(100, 10**6)
    _require_least_n("lpowers", n_grid, 1)
    rows = []
    series = {}
    for n in n_grid:
        rs = compute_roots(n, precision_bits + 64)
        with workprec(precision_bits + 64):
            for a in exponents:
                for which in (0, 1, 2):
                    pred = predict_power(n, a, which)
                    true = rs.lambdas[which] ** a
                    rel = float((true - pred.value) / abs(true))
                    series.setdefault((a, which), []).append((n, rel))
                    rows.append({"n": n, "a": a, "root": which,
                                 "relative_residual": rel,
                                 "precision_bits": precision_bits})
    claimed_rel = {0: -2.5, 1: -1.5, 2: -1.5}  # claimed orders relative to the leading term
    fits, ok = [], True
    for key, samples in sorted(series.items()):
        fit = fit_error_exponent(samples)
        tol_ok = fit.slope <= claimed_rel[key[1]] + 0.3
        ok = ok and tol_ok
        fits.append({"a": key[0], "root": key[1], "slope": fit.slope,
                     "claimed": claimed_rel[key[1]], "stderr": fit.stderr, "ok": tol_ok})
    return LemmaResult("lpowers", {"n_grid": n_grid, "exponents": list(exponents),
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
    fit = fit_error_exponent(samples)
    ok = abs(fit.slope + 2.0) <= 0.3
    fits = [{"kind": "regulator", "slope": fit.slope, "claimed": -2.0,
             "stderr": fit.stderr, "ok": ok}]
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
        for (s, t) in pairs:
            if max(abs(s), abs(t)) > bound:
                continue
            lab12, lab13 = classify_case(s, t)
            seen.add(lab12)
            seen.add(lab13)
            l12, l13, _, _ = true_logdiffs(n, s, t, precision_bits)
            with workprec(precision_bits + 16):
                p12, p13 = predict_logdiff(n, s, t, epsilon)
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
    fits, ok = [], covered
    for key, samples in sorted(series.items()):
        fit = fit_error_exponent(samples)
        tol_ok = fit.slope <= 0.3
        ok = ok and tol_ok
        fits.append({"s": key[0], "t": key[1], "difference": key[2],
                     "slope": fit.slope, "stderr": fit.stderr, "ok": tol_ok})
    notes = "all 12 branches exercised" if covered else "branch coverage incomplete"
    return LemmaResult("logdiff", {"n_grid": n_grid, "pairs": pairs, "epsilon": epsilon,
                                   "precision_bits": precision_bits}, rows, fits, ok, notes)


def run_errorbound(n_grid=None, st_bound: int = 5, precision_bits: int = 192) -> LemmaResult:
    """Gap-product bounds with margins; first bound exempts (1,1) and (-1,-1)."""
    n_grid = n_grid or [10**3, 10**4, 10**5, 10**6]
    _require_least_n("errorbound", n_grid, 1)
    rows, failures = [], []
    for n in n_grid:
        for (s, t) in st_box(st_bound):
            rep = check_error_products(n, s, t, precision_bits)
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


def run_vbar(n_grid=None, st_bound: int = 5, precision_bits: int = 192,
             growth_floor: float = 0.05) -> LemmaResult:
    """Window and growth of v_bar = b0*R - v1 - v2."""
    n_grid = n_grid or [10**4, 10**5, 10**6]
    _require_least_n("vbar", n_grid, 2)
    rows = []
    window_ok = True
    ratio_ok = True
    growth_ok = True
    for n in n_grid:
        ln = math.log(n)
        for (s, t) in st_box(st_bound):
            q = compute_proof_quantities(n, s, t, precision_bits)
            in_window = 0 < q.v_bar < q.regulator
            ratio = float(q.v_bar * n / ln)
            growth = float((q.regulator - q.v_bar) / ln)
            window_ok = window_ok and in_window
            if n >= 10**4:
                ratio_ok = ratio_ok and ratio >= 0.5
                growth_ok = growth_ok and growth >= growth_floor
            rows.append({"n": n, "s": s, "t": t, "b0": q.b0,
                         "v_bar": float(q.v_bar), "regulator": float(q.regulator),
                         "v_bar_n_over_logn": ratio, "growth_over_logn": growth,
                         "in_window": in_window, "precision_bits": precision_bits})
    ok = window_ok and ratio_ok and growth_ok
    notes = (f"window {'100%' if window_ok else 'violated'}, "
             f"ratio>=0.5 {'ok' if ratio_ok else 'violated'}, "
             f"growth>={growth_floor} {'ok' if growth_ok else 'violated'}")
    return LemmaResult("vbar", {"n_grid": n_grid, "st_bound": st_bound,
                                "precision_bits": precision_bits}, rows, [], ok, notes)


def run_ubar(n_grid=None, st=(2, 1), precision_bits: int = 192) -> LemmaResult:
    """u_bar * n approaches 3; require within 0.1 at the largest grid point."""
    n_grid = n_grid or log_grid(100, 10**6)
    s, t = st
    rows = []
    for n in n_grid:
        q = compute_proof_quantities(n, s, t, precision_bits)
        rows.append({"n": n, "s": s, "t": t, "u_bar_times_n": float(q.u_bar * n),
                     "precision_bits": precision_bits})
    final = rows[-1]["u_bar_times_n"]
    ok = abs(final - 3.0) <= 0.1
    return LemmaResult("ubar", {"n_grid": n_grid, "st": list(st),
                                "precision_bits": precision_bits},
                       rows, [], ok, f"u_bar*n at n={n_grid[-1]}: {final:.6f}")


def run_wbar(n_grid=None, st_bound: int = 3, precision_bits: int = 192) -> LemmaResult:
    """Absorption check: |w_bar| / (2 |d12| |d13|) must stay below (3/4) log(n)/n."""
    n_grid = n_grid or [10**4, 10**5, 10**6]
    _require_least_n("wbar", n_grid, 1)
    rows, failures = [], []
    for n in n_grid:
        for (s, t) in st_box(st_bound):
            q = compute_proof_quantities(n, s, t, precision_bits)
            with workprec(precision_bits + 16):
                lhs = abs(q.w_bar) / (2 * q.diff12_abs * q.diff13_abs)
                rhs = mpf(3) / 4 * mp.log(n) / n
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
