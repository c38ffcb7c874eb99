"""The benchmark's workloads: input pools, one operation each, exact output checks.

Every operation models one fresh ``cubicthue`` call: it starts with cold root
caches, and no two operations of a run share an input, so a cache only helps
within an operation, as it does for a user.

The inputs of a run are drawn by seed from a fixed pool stored in
``reference/<workload>.json`` together with the outputs the program gave at
the commit that defined the benchmark (``make_reference.py`` rebuilds it).
Every seed therefore gets an exact check.  Each pool entry belongs to a
stratum: a class of inputs of similar cost.  A run takes the strata in
smooth weighted round-robin order, each weighted by its share of the pool,
and the entries of a stratum in seeded random order.  Any prefix of a run
then holds every stratum at its pool share, give or take one entry, so runs
that stop after the same time on different seeds do comparable work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from collections import defaultdict

from cubicthue import asymptotics, bounds, cli, roots, solver

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
SLOPE_RTOL = 1e-9   # fitted slopes may move in the last bits if the fit is rewritten


def clear_caches():
    roots.compute_roots.cache_clear()
    roots.compute_alphas.cache_clear()


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _log_uniform_int(rng, lo_exp, hi_exp):
    return int(round(10 ** rng.uniform(lo_exp, hi_exp)))


class Workload:
    name = ""
    y_bound = None        # y_bound of the solver calls, when an op makes exactly one

    def make_inputs(self, rng):
        """The pool's inputs."""
        raise NotImplementedError

    def stratum(self, inp, profile):
        """The cost class of an input, given its profile at the reference commit."""
        raise NotImplementedError

    def execute(self, inp):
        """One operation; its raw output.  This is the timed part."""
        raise NotImplementedError

    def summarize(self, raw):
        """The JSON-able part of the output that the reference records."""
        return raw

    def check(self, expect, summary) -> bool:
        return summary == expect

    def describe(self, entries) -> str:
        """The input report of a run over ``entries``."""
        misses = sum(e["profile"]["roots_misses"] for e in entries)
        distinct = sum(e["profile"]["distinct_n"] for e in entries)
        return (f"roots.roots_per_n at the reference commit: {misses}/{distinct}"
                f" = {misses / max(distinct, 1):.2f}")


class ScanDesk(Workload):
    """`cubicthue --format csv scan --n N --smax 3 --ybound 10000` for one n.

    The README's headline use.  The 36 (s, t) cells of one n share their
    roots, which stresses the roots precision policy, build_form, bounds and
    CSV rendering.  The solver runs at y_bound 10^4 only, yet the cells whose
    float screen saturates make it most of an operation's time.
    """

    name = "scan-desk"
    lo, hi, strata, per_stratum = 50, 5000, 10, 80

    def make_inputs(self, rng):
        width = (self.hi - self.lo) // self.strata
        out = []
        for i in range(self.strata):
            lo = self.lo + i * width
            hi = self.hi + 1 if i == self.strata - 1 else lo + width
            out.extend(sorted(rng.sample(range(lo, hi), self.per_stratum)))
        return out

    def stratum(self, n, profile):
        # cost grows with n: ten equal-width bands of n
        return min((n - self.lo) * self.strata // (self.hi - self.lo), self.strata - 1)

    def execute(self, n):
        clear_caches()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["--jobs", "1", "--precision-bits", "192", "--format", "csv",
                             "scan", "--n", str(n), "--smax", "3", "--ybound", "10000"])
        return code, buf.getvalue()

    def summarize(self, raw):
        code, text = raw
        return {"exit": code, "csv_sha256": hashlib.sha256(text.encode()).hexdigest()}

    def describe(self, entries):
        ns = [e["input"] for e in entries]
        return f"n in {min(ns)}..{max(ns)}; " + super().describe(entries)


class SolveDeep(Workload):
    """solve_box(n, s, t, 10**5), then reduce_to_type1 and decompose_unit per record.

    n is log-uniform in 10..10^6 and (s, t) ranges over st_box(3).  The
    solver's candidate generation does almost all of the work; triples with a
    twisted conjugate within float64 resolution of an integer saturate the
    float screen and form the tail.  The only workload that reaches
    decompose_unit.
    """

    name = "solve-deep"
    y_bound = 10**5
    bins, per_bin = 8, 10    # per (s, t) pair: log10 n from 1 to 6 in 8 bands

    def make_inputs(self, rng):
        out = []
        width = 5 / self.bins
        for s, t in asymptotics.st_box(3):
            seen = set()
            for b in range(self.bins):
                drawn = 0
                while drawn < self.per_bin:
                    n = _log_uniform_int(rng, 1 + b * width, 1 + (b + 1) * width)
                    if n not in seen:
                        seen.add(n)
                        drawn += 1
                        out.append([n, s, t])
        return out

    def stratum(self, inp, profile):
        # about 3 * y_bound candidates per conjugate that saturates the float screen
        return min(profile["candidates"] // self.y_bound, 4)

    def execute(self, inp):
        n, s, t = inp
        clear_caches()
        rows = []
        for r in solver.solve_box(n, s, t, self.y_bound):
            reduced = None
            if r.type_j in (2, 3):
                new_st, ok = solver.reduce_to_type1(n, s, t, r)
                reduced = [new_st[0], new_st[1], ok]
            d = solver.decompose_unit(n, s, t, r, with_b_bar=False)
            rows.append([r.x, r.y, r.value, r.type_j, r.trivial, d.b1, d.b2, d.sign, reduced])
        return rows

    def check(self, expect, rows):
        # each (x, y) must solve the reference form, by our own integer evaluation
        a, b = expect["A"], expect["B"]
        for x, y, value, *_ in rows:
            if value not in (1, -1) or x**3 + a * x * x * y + b * x * y * y - y**3 != value:
                return False
        return rows == expect["solutions"]

    def describe(self, entries):
        sat = sum(1 for e in entries if e["profile"]["candidates"] > self.y_bound)
        return (f"screen-saturated ops (solver.candidates > {self.y_bound}) at the reference "
                f"commit: {sat}/{len(entries)} = {sat / max(len(entries), 1):.1%}")


# kind -> (log10 lo, log10 hi, fewest points, most points); every grid holds both
# ends of the documented range plus distinct points drawn between them
LEMMA_GRIDS = {
    "lapprox": (2, 6, 5, 9),
    "lpowers": (2, 6, 5, 9),
    "regulator": (2, 6, 5, 9),
    "ubar": (2, 6, 5, 9),
    "logdiff": (3, 6, 5, 8),
    "errorbound": (3, 6, 2, 4),
    "vbar": (4, 6, 2, 3),
    "wbar": (4, 6, 2, 3),
    "n0_scan": (4, 64, 10, 14),
}


class VerifyLemmas(Workload):
    """One verification check on a seed-drawn n grid: a run_* harness or n0_scan.

    It never calls the solver, so a solver change should leave it unchanged.
    It uses roots the other way round from scan-desk: cold roots over wide n
    ranges (up to 10^64) at the higher precisions of _diff_precision.
    """

    name = "verify-lemmas"
    per_kind = 200

    def make_inputs(self, rng):
        out = []
        for kind, (lo, hi, fewest, most) in LEMMA_GRIDS.items():
            seen = set()
            while len(seen) < self.per_kind:
                points = {10**lo, 10**hi}
                want = rng.randint(fewest, most)
                while len(points) < want:
                    points.add(_log_uniform_int(rng, lo, hi))
                grid = tuple(sorted(points))
                if grid not in seen:
                    seen.add(grid)
                    out.append([kind, list(grid)])
        return out

    def stratum(self, inp, profile):
        return inp[0]

    def execute(self, inp):
        kind, grid = inp
        clear_caches()
        if kind == "n0_scan":
            return kind, bounds.n0_scan(0.25, grid, st_policy=2)
        return kind, getattr(asymptotics, "run_" + kind)(n_grid=list(grid))

    def summarize(self, raw):
        kind, res = raw
        if kind == "n0_scan":
            return {"threshold": res.threshold,
                    "inapplicable": [list(p) for p in res.inapplicable_pairs],
                    "rows_sha256": _digest([[r["n"], r["s"], r["t"], r["chain_failure"],
                                             r["crossover"]] for r in res.rows])}
        out = {"passed": res.passed, "rows": len(res.rows),
               "slopes": [f["slope"] for f in res.fits]}
        if kind == "vbar":
            out["b0_sha256"] = _digest([r["b0"] for r in res.rows])
            out["in_window"] = sum(1 for r in res.rows if r["in_window"])
        elif kind in ("errorbound", "wbar"):
            key = "passed" if kind == "errorbound" else "ok"
            out["failing"] = [[r["n"], r["s"], r["t"]] for r in res.rows if not r[key]]
        return out

    def check(self, expect, summary):
        if "slopes" not in expect:
            return summary == expect
        got, want = dict(summary), dict(expect)
        slopes, ref = got.pop("slopes"), want.pop("slopes")
        return got == want and len(slopes) == len(ref) and all(
            math.isclose(a, b, rel_tol=SLOPE_RTOL) for a, b in zip(slopes, ref))

    def describe(self, entries):
        kinds = defaultdict(int)
        for e in entries:
            kinds[e["input"][0]] += 1
        mix = ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))
        return f"checks: {mix}; " + super().describe(entries)


WORKLOADS = {w.name: w for w in (ScanDesk(), SolveDeep(), VerifyLemmas())}


def reference_path(name):
    return os.path.join(REFERENCE_DIR, name + ".json")


def load_pool(name):
    with open(reference_path(name), encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def op_sequence(entries, seed):
    """Yield pool entries in the order a run with ``seed`` uses them, each at most once.

    Smooth weighted round-robin over the strata: every step credits each
    stratum with its size and takes from the one with the most credit.  The
    seed shuffles the entries of each stratum and breaks ties.
    """
    rng = random.Random(seed)
    strata = defaultdict(list)
    for e in entries:
        strata[e["stratum"]].append(e)
    keys = sorted(strata, key=str)
    rng.shuffle(keys)
    for key in keys:
        rng.shuffle(strata[key])
    weight = {k: len(strata[k]) for k in keys}
    total = sum(weight.values())
    credit = dict.fromkeys(keys, 0)
    while True:
        for k in keys:
            credit[k] += weight[k]
        key = max(keys, key=credit.__getitem__)
        credit[key] -= total
        if not strata[key]:
            return
        yield strata[key].pop()
