"""Command-line front end.

Subcommands
    form N S T            exact form coefficients
    solve N S T           bounded solution search
    lemma NAME            run one verification harness, exit 1 on failure
    bound N S T           upper bound vs lower-bound chain at one point
    scan                  solver + bounds over an (n, s, t) grid, CSV-friendly

Grids are written start:stop[:step] where step is an integer stride or the
word log10 (multiply by 10 each step).  Inputs whose work has no bound are
refused with exit code 2 before any work starts: a grid value of more than
MAX_VALUE_DIGITS digits, a grid of more than MAX_GRID_POINTS points, a scan or
a lemma box of more than MAX_GRID_POINTS (n, s, t) cells, and a precision
above MAX_PRECISION_BITS.  Formats: human (default), json, csv.
Exit codes: 0 ok, 1 a verification check failed, 2 usage error, 3 precision
exhausted.  Environment overrides: CUBICTHUE_PRECISION_BITS, CUBICTHUE_JOBS.

The scan works one n at a time, and --jobs hands whole n values to the
workers, so each worker computes the roots of its n once.  Within an n, the
cells (s, t) and phi(s, t) = (-s + t, -s) have the same form, so each distinct
form (A, B) is solved once and its upper bound computed once; the
lower-bound chain depends on the order of the conjugates and runs per cell.

Reports are deterministic: the same configuration yields byte-identical
output regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal, InvalidOperation

from . import asymptotics, bounds, solver
from .errors import DegenerateTwist, EmptyGrid, PrecisionExhausted
from .forms import build_form

LEMMA_RUNNERS = {
    "lapprox": asymptotics.run_lapprox,
    "lpowers": asymptotics.run_lpowers,
    "regulator": asymptotics.run_regulator,
    "logdiff": asymptotics.run_logdiff,
    "errorbound": asymptotics.run_errorbound,
    "vbar": asymptotics.run_vbar,
    "ubar": asymptotics.run_ubar,
    "wbar": asymptotics.run_wbar,
}

# fixed column orders for the csv format
SOLUTION_COLUMNS = ["n", "s", "t", "x", "y", "value", "type", "trivial"]
SCAN_COLUMNS = ["n", "s", "t", "A", "B", "solutions", "nontrivial", "upper",
                "lower", "margin", "chain_failure", "crossover", "precision_bits"]

# most points a grid, and most (n, s, t) cells a scan or a lemma box, may have
MAX_GRID_POINTS = 10**6
# most digits of a grid value: the limit Python applies to int() of a string,
# so to the positional N arguments
MAX_VALUE_DIGITS = 4300
MAX_PRECISION_BITS = 2**16


def _env_int(name, fallback):
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return fallback


def _grid_value(text: str) -> int:
    """int(Decimal(text)); ValueError, before any conversion to int, unless text is
    a finite number of at most MAX_VALUE_DIGITS digits."""
    shown = repr(text) if len(text) <= 40 else repr(text[:20]) + "..."
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"bad grid value {shown}") from None
    if not d.is_finite() or d.adjusted() >= MAX_VALUE_DIGITS:
        raise ValueError(f"grid value {shown} is not finite or has more than "
                         f"{MAX_VALUE_DIGITS} digits")
    return int(d)


def parse_grid(spec: str):
    """start:stop[:step] with integer stride or log10; a single value is allowed."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [_grid_value(parts[0])]
    if len(parts) not in (2, 3):
        raise ValueError(f"bad grid {spec!r}")
    lo, hi = _grid_value(parts[0]), _grid_value(parts[1])
    if lo > hi:
        raise ValueError(f"bad grid {spec!r}: start > stop")
    rule = parts[2] if len(parts) == 3 else "1"
    if rule == "log10":
        if lo < 1:
            raise ValueError(f"bad grid {spec!r}: a log10 grid must start at >= 1")
        vals, v = [], lo
        while v <= hi:
            vals.append(v)
            v *= 10
        if vals[-1] != hi:
            vals.append(hi)
        return vals
    step = int(rule)
    if step < 1:
        raise ValueError(f"bad grid step in {spec!r}")
    points = -(-(hi - lo) // step) + 1  # the stride points, and hi if off the stride
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid {spec!r} has {points} points, more than {MAX_GRID_POINTS}")
    vals = list(range(lo, hi + 1, step))
    if vals[-1] != hi:
        vals.append(hi)
    return vals


def _check_cells(what: str, n_points: int, smax: int) -> int:
    """The (n, s, t) cells of n_points n values times st_box(smax), which has
    4 smax^2 pairs; ValueError if more than MAX_GRID_POINTS."""
    cells = n_points * 4 * max(smax, 0) ** 2
    if cells > MAX_GRID_POINTS:
        raise ValueError(f"{what} has {cells} cells ({n_points} n values, smax {smax}), "
                         f"more than {MAX_GRID_POINTS}")
    return cells


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(out, columns, rows):
    w = csv.writer(out, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow([_fmt(r.get(c)) for c in columns])


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=1, default=_fmt) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_form(args) -> int:
    f = build_form(args.n, args.s, args.t)
    rec = f.as_record()
    rec["degenerate"] = f.degenerate
    if args.format == "json":
        _emit(args, _json_dump(rec))
    elif args.format == "csv":
        buf = io.StringIO()
        _write_csv(buf, ["n", "s", "t", "A", "B", "degenerate"], [rec])
        _emit(args, buf.getvalue())
    else:
        warn = "  [degenerate: (s,t)=(0,0)]" if f.degenerate else ""
        _emit(args, f"f(x,y) = x^3 + ({f.A})x^2y + ({f.B})xy^2 - y^3   "
                    f"n={f.n} s={f.s} t={f.t}{warn}\n")
    return 0


def cmd_solve(args) -> int:
    records = solver.solve_box(args.n, args.s, args.t, args.ybound,
                               precision_bits=args.precision_bits)
    rows = [r.as_record() for r in records]
    if args.format == "json":
        _emit(args, _json_dump({"config": {"n": args.n, "s": args.s, "t": args.t,
                                           "y_bound": args.ybound,
                                           "precision_bits": args.precision_bits},
                                "solutions": rows}))
    elif args.format == "csv":
        buf = io.StringIO()
        _write_csv(buf, SOLUTION_COLUMNS, rows)
        _emit(args, buf.getvalue())
    else:
        lines = [f"solutions of f_({args.n},{args.s},{args.t})(x,y) = +-1 with |y| <= {args.ybound}:"]
        for r in rows:
            tag = " (trivial)" if r["trivial"] else "  <-- NONTRIVIAL"
            lines.append(f"  ({r['x']}, {r['y']})  value {r['value']:+d}  type {r['type']}{tag}")
        nontrivial = sum(1 for r in rows if not r["trivial"])
        lines.append(f"total {len(rows)}, nontrivial {nontrivial}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_lemma(args) -> int:
    runner = LEMMA_RUNNERS[args.name]
    if args.smax is not None and args.smax < 1:
        raise ValueError(f"--smax must be >= 1, got {args.smax}")
    kwargs = {"precision_bits": args.precision_bits}
    if args.n_grid:
        kwargs["n_grid"] = parse_grid(args.n_grid)
    if args.smax and args.name in ("logdiff", "errorbound", "vbar", "wbar"):
        # a runner's own default grid has a handful of points; it counts as one
        n_points = len(kwargs["n_grid"]) if "n_grid" in kwargs else 1
        _check_cells("lemma box", n_points, args.smax)
    if args.name == "logdiff":
        kwargs["epsilon"] = args.epsilon
        if args.smax:
            kwargs["pairs"] = asymptotics.st_box(args.smax)
    elif args.name in ("errorbound", "vbar", "wbar") and args.smax:
        kwargs["st_bound"] = args.smax
    result = runner(**kwargs)

    if args.format == "json":
        _emit(args, _json_dump({"lemma": result.name, "config": result.config,
                                "rows": result.rows, "fits": result.fits,
                                "passed": result.passed, "notes": result.notes}))
    elif args.format == "csv":
        buf = io.StringIO()
        cols = sorted({k for r in result.rows for k in r})
        _write_csv(buf, cols, result.rows)
        _emit(args, buf.getvalue())
    else:
        lines = [f"check: {result.name}   points: {len(result.rows)}"]
        for f in result.fits:
            desc = " ".join(f"{k}={_fmt(v)}" for k, v in f.items())
            lines.append(f"  fit: {desc}")
        if result.notes:
            lines.append(f"  note: {result.notes}")
        lines.append(f"  result: {'PASS' if result.passed else 'FAIL'}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if result.passed else 1


def cmd_bound(args) -> int:
    rep = bounds.bound_report(args.n, args.s, args.t, b_abs=args.babs,
                              precision_bits=args.precision_bits)
    rec = rep.as_record()
    if args.format == "json":
        _emit(args, _json_dump(rec))
    elif args.format == "csv":
        buf = io.StringIO()
        _write_csv(buf, list(rec), [rec])
        _emit(args, buf.getvalue())
    else:
        lines = [f"bounds at n={rep.n} s={rep.s} t={rep.t}  (c3 = 3^94, H = {rep.H})",
                 f"  upper bound exponent: {rep.B_rhs:.6g}"]
        if rep.lower_chain is not None:
            lines.append(f"  lower-bound chain:    {rep.lower_chain:.6g}")
            lines.append(f"  crossover: {'yes' if rep.crossover else 'no'}")
        else:
            lines.append(f"  lower-bound chain inapplicable: {rep.chain_failure}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _scan_n(job):
    """The scan rows of one n, in the order of pairs.

    The constants of the two bounds that depend on n alone are computed once.
    Cells with the same form (A, B) share one solution map and one upper
    bound.  (s, t) -> (-s, -t) is not used: it swaps x and y, so it does not
    keep the box |y| <= y_bound.
    """
    n, pairs, y_bound, precision_bits = job
    const = bounds._n_constants(n, 1, precision_bits)
    shared = {}
    rows = []
    for s, t in pairs:
        form = build_form(n, s, t)
        key = (form.A, form.B)
        if key not in shared:
            found, _ = solver._solve_form(form, y_bound, max(160, precision_bits))
            shared[key] = (len(found), sum(1 for _, y in found if abs(y) > 1),
                           bounds._upper_bound(form, const))
        solutions, nontrivial, upper = shared[key]
        rep = bounds._bound_report(form, const, upper)
        margin = (rep.lower_chain / rep.B_rhs) if rep.lower_chain else None
        rows.append({"n": n, "s": s, "t": t, "A": form.A, "B": form.B,
                     "solutions": solutions, "nontrivial": nontrivial,
                     "upper": rep.B_rhs, "lower": rep.lower_chain, "margin": margin,
                     "chain_failure": rep.chain_failure, "crossover": rep.crossover,
                     "precision_bits": precision_bits})
    return rows


def cmd_scan(args) -> int:
    n_grid = parse_grid(args.n_grid)
    if not _check_cells("scan", len(n_grid), args.smax):
        raise EmptyGrid("scan grid is empty")
    pairs = asymptotics.st_box(args.smax)
    jobs = [(n, pairs, args.ybound, args.precision_bits) for n in n_grid]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            per_n = list(pool.map(_scan_n, jobs))
    else:
        per_n = [_scan_n(job) for job in jobs]
    # n_grid and st_box are both ascending, so the rows come out in (n, s, t) order
    rows = [r for rows_n in per_n for r in rows_n]

    if args.format == "json":
        _emit(args, _json_dump({"config": {"n_grid": n_grid, "smax": args.smax,
                                           "y_bound": args.ybound, "jobs": args.jobs,
                                           "precision_bits": args.precision_bits},
                                "rows": rows}))
    elif args.format == "csv":
        buf = io.StringIO()
        _write_csv(buf, SCAN_COLUMNS, rows)
        _emit(args, buf.getvalue())
    else:
        lines = []
        total_nontrivial = 0
        for r in rows:
            total_nontrivial += r["nontrivial"]
            cross = "X" if r["crossover"] else ("-" if not r["chain_failure"] else "!")
            lines.append(f"  n={r['n']:<8} (s,t)=({r['s']},{r['t']})  "
                         f"solutions={r['solutions']} nontrivial={r['nontrivial']}  "
                         f"margin={_fmt(r['margin'])} {cross}")
        lines.append(f"scan done: {len(rows)} cells, nontrivial solutions: {total_nontrivial}"
                     f" (crossover marks: X yes, - no, ! chain inapplicable)")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cubicthue",
        description="Twisted cubic Thue equations: exact forms, bounded solving, "
                    "asymptotic verification, bound comparison.")
    p.add_argument("--precision-bits", type=int,
                   default=_env_int("CUBICTHUE_PRECISION_BITS", 192),
                   dest="precision_bits")
    p.add_argument("--jobs", type=int, default=_env_int("CUBICTHUE_JOBS", 1))
    p.add_argument("--format", choices=("human", "json", "csv"), default="human")
    p.add_argument("--output", default=None, help="write the report to this path")
    p.add_argument("--epsilon", type=float, default=0.25)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("form", help="construct a form exactly")
    sp.add_argument("n", type=int)
    sp.add_argument("s", type=int)
    sp.add_argument("t", type=int)
    sp.set_defaults(func=cmd_form)

    sp = sub.add_parser("solve", help="bounded solution search")
    sp.add_argument("n", type=int)
    sp.add_argument("s", type=int)
    sp.add_argument("t", type=int)
    sp.add_argument("--ybound", type=int, default=10**4)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("lemma", help="run a verification harness")
    sp.add_argument("name", choices=sorted(LEMMA_RUNNERS))
    sp.add_argument("--n", dest="n_grid", default=None,
                    help="grid start:stop[:step|log10]")
    sp.add_argument("--smax", type=int, default=None)
    sp.set_defaults(func=cmd_lemma)

    sp = sub.add_parser("bound", help="upper bound vs lower-bound chain")
    sp.add_argument("n", type=int)
    sp.add_argument("s", type=int)
    sp.add_argument("t", type=int)
    sp.add_argument("--babs", type=int, default=1)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("scan", help="solver + bounds over a grid")
    sp.add_argument("--n", dest="n_grid", required=True,
                    help="grid start:stop[:step|log10]")
    sp.add_argument("--smax", type=int, default=3)
    sp.add_argument("--ybound", type=int, default=10**4)
    sp.set_defaults(func=cmd_scan)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0 < args.epsilon < 0.5:
        parser.exit(2, "epsilon must lie in (0, 1/2)\n")
    if not 64 <= args.precision_bits <= MAX_PRECISION_BITS:
        parser.exit(2, f"precision-bits must lie in [64, {MAX_PRECISION_BITS}]\n")
    if args.jobs < 1:
        parser.exit(2, "jobs must be >= 1\n")
    try:
        return args.func(args)
    except (DegenerateTwist, EmptyGrid, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
