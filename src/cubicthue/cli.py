"""Command-line front end.

Subcommands
    form N S T            exact form coefficients
    solve N S T           bounded solution search
    lemma NAME            run one verification harness, exit 1 on failure
    bound N S T           upper bound vs lower-bound chain at one point
    scan                  solver + bounds over an (n, s, t) grid, CSV-friendly

Grids are written start:stop[:step] where step is an integer stride or the
word log10 (multiply by 10 each step); N, S, T, --ybound, --babs, --smax,
--precision-bits, --jobs and the environment overrides below are read as grid
values are (1e4 is 10000).  Inputs whose work has no bound
are refused with exit code 2 before any work starts: a grid value, stride or
numeric argument that is not an integer or has more than MAX_VALUE_DIGITS
digits, a grid of more than MAX_GRID_POINTS points, a scan or a lemma of more
than MAX_GRID_POINTS (n, s, t) cells (a lemma's box and n grid are --smax and
--n, or else the runner's own), a precision above MAX_PRECISION_BITS, and a
form, solve, bound or scan whose forms may have a coefficient of more than
MAX_VALUE_DIGITS digits (_check_form_digits), which could not be printed.
Only lemma logdiff reads --epsilon.  Formats: human (default), json, csv.
Exit codes: 0 ok, 1 a verification check failed, 2 usage error (an --output
path that is a directory or in no existing directory is refused before any
work, and a failed write ends there too), 3 precision exhausted.
Environment overrides: CUBICTHUE_PRECISION_BITS, CUBICTHUE_JOBS; an empty
value counts as unset, and one that is not an integer exits 2.

The scan works one n at a time, and --jobs hands whole n values to the
workers.  Within an n, the cells (s, t) and phi(s, t) = (-s + t, -s) have the
same form, with the conjugates in a cyclic order, so the scan goes by
phi-orbit (bounds.cell_reports): the roots of n are computed once, and each
distinct form (A, B) is built once, powered into one conjugate triple (a
floor shift of that root set) and solved once; the form of (-s, -t),
(-B, -A), shares its upper bound.  The lower-bound chain runs per cell, on
the triple in the cell's order, which takes each of its three difference
logs once, for one orbit of a mirrored pair (roots.AlphaTriple.diff_log).

Reports are deterministic: the same configuration yields byte-identical
output regardless of worker count.  bounds hands out floats and, beyond float
range, exact Fractions, which _sci prints from integers, at no working precision.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import asymptotics, bounds, solver
from .errors import PrecisionExhausted
from .forms import build_form, st_box

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
# most digits of a grid value or numeric argument: the limit Python applies to
# int() of a string
MAX_VALUE_DIGITS = 4300
MAX_PRECISION_BITS = 2**16


def _env_int(parser, name: str, fallback: int) -> int:
    """The environment variable name read as a grid value is, fallback where it is
    unset or empty; exit 2 naming it where it is set to anything else."""
    text = os.environ.get(name, "")
    try:
        return _grid_value(text) if text else fallback
    except ValueError:
        parser.exit(2, f"{name} must be an integer, got {_shown(text)}\n")


def _shown(text: str) -> str:
    """text quoted for a message, cut short if it is long."""
    return repr(text) if len(text) <= 40 else repr(text[:20]) + "..."


def _grid_value(text: str) -> int:
    """int(Decimal(text)); ValueError, before any conversion to int, unless text is
    an integer (1e3 and 1000.0 are) of at most MAX_VALUE_DIGITS digits."""
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"bad grid value {_shown(text)}") from None
    if not d.is_finite() or d.adjusted() >= MAX_VALUE_DIGITS:
        raise ValueError(f"grid value {_shown(text)} is not finite or has more than "
                         f"{MAX_VALUE_DIGITS} digits")
    if d != d.to_integral_value():
        raise ValueError(f"grid value {_shown(text)} is not an integer")
    return int(d)


def _number(text: str) -> int:
    """A numeric argument, read as a grid value is (an argparse type)."""
    try:
        return _grid_value(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_grid(spec: str, check=lambda points: None):
    """start:stop[:step] with integer stride or log10; a single value is allowed.

    check(points) is called with the number of points before their list is built.
    """
    parts = spec.split(":")
    if len(parts) == 1:
        value = _grid_value(parts[0])
        check(1)
        return [value]
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
        check(len(vals))   # at most MAX_VALUE_DIGITS + 1 of them
        return vals
    step = _grid_value(rule)
    if step < 1:
        raise ValueError(f"bad grid step in {spec!r}")
    points = -(-(hi - lo) // step) + 1  # the stride points, and hi if off the stride
    if points > MAX_GRID_POINTS:   # a count of any size, so it is not printed
        raise ValueError(f"grid {_shown(spec)} has more than {MAX_GRID_POINTS} points")
    check(points)
    vals = list(range(lo, hi + 1, step))
    if vals[-1] != hi:
        vals.append(hi)
    return vals


def _check_cells(what: str, n_points: int, pairs: int, box: str) -> int:
    """The (n, s, t) cells of n_points n values times a box of that many (s, t)
    pairs, which box describes; ValueError if more than MAX_GRID_POINTS."""
    cells = n_points * pairs
    if cells > MAX_GRID_POINTS:   # a count of any size, so it is not printed
        raise ValueError(f"{what} has more than {MAX_GRID_POINTS} cells "
                         f"({n_points} n values, {box})")
    return cells


def _check_form_digits(n: int, s: int, t: int):
    """ValueError where 3 (n + 3)^D, D = max(|s|, |t|, |s - t|), may have more than
    MAX_VALUE_DIGITS digits, the most Python prints: it bounds |A| and |B| of
    every form of n whose D is at most that of (s, t).

    A = -(alpha1 + alpha2 + alpha3), and B is the sum of their inverses, as the
    alphas multiply to 1.  With a = log lam0 and b = log(lam0 + 1), 0 < a < b <
    log(n + 3) (as 1 < lam0 < n + 2), log|lam1| = -b and log|lam2| = b - a, so
    log|alpha_j| is s a - t b, (t - s) b - t a or s b + (t - s) a: linear on
    the triangle 0 <= a <= b <= log(n + 3), so largest in size at a corner,
    0 or log(n + 3) times one of +-s, +-t, +-(s - t), at most D log(n + 3).
    Floats decide it, so a form within their rounding of the limit may be
    refused too; a D past 3 MAX_VALUE_DIGITS is past it, and refused before
    any float product.
    """
    d = max(abs(s), abs(t), abs(s - t))
    if d > 3 * MAX_VALUE_DIGITS or (
            math.log10(3) + d * math.log10(max(n, 0) + 3) >= MAX_VALUE_DIGITS):
        raise ValueError(f"3 (n + 3)^D, D = max(|s|, |t|, |s - t|), may have more than "
                         f"{MAX_VALUE_DIGITS} digits: a form's coefficient may not print")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        # a value beyond float range, with the 17 digits a float's repr has at most
        return _sci(v, 17)
    return str(v)


def _sig(v, digits: int) -> str:
    """v to `digits` significant digits, a float or a Fraction beyond float range."""
    return f"{v:.{digits}g}" if isinstance(v, float) else _sci(v, digits)


def _sci(v: Fraction, digits: int) -> str:
    """A value v >= 10^digits as d.ddde+E, by the digit rule of mpmath's nstr: the first
    digits + 1 digits of floor(v), rounded up on a last digit of 5 to 9, cut to
    digits, trailing zeros stripped.  floor(v) is cut by integer division, never
    printed whole: str() refuses an int of more than 4300 digits."""
    whole = v.numerator // v.denominator
    cut = max(int(whole.bit_length() * math.log10(2)) - digits - 3, 0)
    text = str(whole // 10 ** cut)   # digits + 1 to digits + 4 leading digits
    lead, exponent = int(text[:digits]) + (text[digits] >= "5"), cut + len(text) - 1
    if lead == 10 ** digits:   # rounded up to the next power of ten
        lead, exponent = lead // 10, exponent + 1
    text = str(lead)
    return f"{text[0]}.{text[1:].rstrip('0') or '0'}e+{exponent}"


def _write_csv(out, columns, rows):
    w = csv.writer(out, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow([_fmt(r.get(c)) for c in columns])


def _render(args, doc, columns, rows, human):
    """Write one report in args.format to args.output, or to stdout: doc as
    JSON, rows under columns as CSV, or the lines human() returns."""
    if args.format == "json":
        text = json.dumps(doc, indent=1, default=_fmt) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        _write_csv(buf, columns, rows)
        text = buf.getvalue()
    else:
        text = "\n".join(human()) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --output {_shown(args.output)}: "
                             f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _check_output(path):
    """ValueError, before any work, where the report could not be written to path."""
    if path and os.path.isdir(path):
        raise ValueError(f"--output {_shown(path)} is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"--output {_shown(path)} is in no existing directory")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_form(args) -> int:
    _check_form_digits(args.n, args.s, args.t)
    f = build_form(args.n, args.s, args.t)
    rec = f.as_record()
    rec["degenerate"] = f.degenerate
    warn = "  [degenerate: (s,t)=(0,0)]" if f.degenerate else ""
    _render(args, rec, ["n", "s", "t", "A", "B", "degenerate"], [rec],
            lambda: [f"f(x,y) = x^3 + ({f.A})x^2y + ({f.B})xy^2 - y^3   "
                     f"n={f.n} s={f.s} t={f.t}{warn}"])
    return 0


def cmd_solve(args) -> int:
    _check_form_digits(args.n, args.s, args.t)
    records = solver.solve_box(args.n, args.s, args.t, args.ybound,
                               precision_bits=args.precision_bits)
    rows = [r.as_record() for r in records]

    def human():
        lines = [f"solutions of f_({args.n},{args.s},{args.t})(x,y) = +-1 with |y| <= {args.ybound}:"]
        for r in rows:
            tag = " (trivial)" if r["trivial"] else "  <-- NONTRIVIAL"
            lines.append(f"  ({r['x']}, {r['y']})  value {r['value']:+d}  type {r['type']}{tag}")
        nontrivial = sum(1 for r in rows if not r["trivial"])
        return lines + [f"total {len(rows)}, nontrivial {nontrivial}"]

    _render(args, {"config": {"n": args.n, "s": args.s, "t": args.t, "y_bound": args.ybound,
                              "precision_bits": args.precision_bits},
                   "solutions": rows}, SOLUTION_COLUMNS, rows, human)
    return 0


def cmd_lemma(args) -> int:
    runner = LEMMA_RUNNERS[args.name]
    box = args.name in asymptotics.DEFAULT_BOXES
    if args.smax is not None and args.smax < 1:
        raise ValueError(f"--smax must be >= 1, got {args.smax}")
    if args.smax is not None and not box:
        raise ValueError(f"lemma {args.name} takes no --smax: it checks no box of (s, t) pairs")
    kwargs = {"precision_bits": args.precision_bits}
    if box:
        # without --smax, the box the runner defaults to
        smax = args.smax or asymptotics.DEFAULT_BOXES[args.name]
        if smax is None:   # run_logdiff's default pairs: its branch representatives
            pairs = len(asymptotics.logdiff_representatives())
            described = f"{pairs} branch representatives"
        else:
            pairs, described = 4 * smax**2, f"smax {smax}"

    def check(points):
        if box:
            _check_cells("lemma box", points, pairs, described)

    if args.n_grid:
        kwargs["n_grid"] = parse_grid(args.n_grid, check)
    else:
        check(len(asymptotics.DEFAULT_N_GRIDS[args.name]))
    if args.name == "logdiff":
        kwargs["epsilon"] = args.epsilon
    if box:
        kwargs["st_bound"] = args.smax   # None: the runner's DEFAULT_BOXES entry
    result = runner(**kwargs)

    def human():
        lines = [f"check: {result.name}   points: {len(result.rows)}"]
        lines += [f"  fit: {' '.join(f'{k}={_fmt(v)}' for k, v in f.items())}"
                  for f in result.fits]
        if result.notes:
            lines.append(f"  note: {result.notes}")
        return lines + [f"  result: {'PASS' if result.passed else 'FAIL'}"]

    _render(args, {"lemma": result.name, "config": result.config, "rows": result.rows,
                   "fits": result.fits, "passed": result.passed, "notes": result.notes},
            sorted({k for r in result.rows for k in r}), result.rows, human)
    return 0 if result.passed else 1


def cmd_bound(args) -> int:
    _check_form_digits(args.n, args.s, args.t)
    rep = bounds.bound_report(args.n, args.s, args.t, b_abs=args.babs,
                              precision_bits=args.precision_bits)
    rec = rep.as_record()

    def human():
        lines = [f"bounds at n={rep.n} s={rep.s} t={rep.t}  (c3 = 3^94, H = {rep.H})",
                 f"  upper bound exponent: {rep.B_rhs:.6g}"]
        if rep.lower_chain is None:
            return lines + [f"  lower-bound chain inapplicable: {rep.chain_failure}"]
        return lines + [f"  lower-bound chain:    {_sig(rep.lower_chain, 6)}",
                        f"  crossover: {'yes' if rep.crossover else 'no'}"]

    _render(args, rec, list(rec), [rec], human)
    return 0


def _scan_n(job):
    """The scan rows of one n, in the order of pairs.

    The cells and their bounds come from bounds.cell_reports.  The cells of
    one phi-orbit share one form and one conjugate triple, so one solution
    map; the triple is also the solver's first attempt.  (s, t) -> (-s, -t)
    is not used: it swaps x and y, so it does not keep the box |y| <= y_bound.
    """
    n, pairs, y_bound, precision_bits = job
    solved = {}
    rows = []
    for form, tri, rep in bounds.cell_reports(n, pairs, precision_bits, y_bound):
        key = (form.A, form.B)
        if key not in solved:
            found, _ = solver._solve_form(form, y_bound, tri)
            solved[key] = (len(found), sum(1 for _, y in found if abs(y) > 1))
        solutions, nontrivial = solved[key]
        rows.append({"n": n, "s": rep.s, "t": rep.t, "A": form.A, "B": form.B,
                     "solutions": solutions, "nontrivial": nontrivial, **rep.row()})
    return rows


def cmd_scan(args) -> int:
    if args.smax < 1:
        raise ValueError(f"--smax must be >= 1, got {args.smax}")
    n_grid = parse_grid(args.n_grid, lambda points: _check_cells(
        "scan", points, 4 * args.smax ** 2, f"smax {args.smax}"))
    # the largest D of st_box(smax) is |s - t| = 2 smax, at s = smax, t = -smax
    _check_form_digits(n_grid[-1], args.smax, -args.smax)
    if args.ybound < 1:
        raise ValueError("y_bound must be >= 1")
    pairs = st_box(args.smax)
    jobs = [(n, pairs, args.ybound, args.precision_bits) for n in n_grid]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only scans with workers load it
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            per_n = list(pool.map(_scan_n, jobs))
    else:
        per_n = [_scan_n(job) for job in jobs]
    # n_grid and st_box are both ascending, so the rows come out in (n, s, t) order
    rows = [r for rows_n in per_n for r in rows_n]

    def human():
        lines = []
        for r in rows:
            cross = "X" if r["crossover"] else ("-" if not r["chain_failure"] else "!")
            lines.append(f"  n={r['n']:<8} (s,t)=({r['s']},{r['t']})  "
                         f"solutions={r['solutions']} nontrivial={r['nontrivial']}  "
                         f"margin={_fmt(r['margin'])} {cross}")
        total_nontrivial = sum(r["nontrivial"] for r in rows)
        return lines + [f"scan done: {len(rows)} cells, nontrivial solutions: {total_nontrivial}"
                        f" (crossover marks: X yes, - no, ! chain inapplicable)"]

    _render(args, {"config": {"n_grid": n_grid, "smax": args.smax, "y_bound": args.ybound,
                              "precision_bits": args.precision_bits},
                   "rows": rows}, SCAN_COLUMNS, rows, human)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cubicthue",
        description="Twisted cubic Thue equations: exact forms, bounded solving, "
                    "asymptotic verification, bound comparison.")
    p.add_argument("--precision-bits", type=_number, dest="precision_bits")
    p.add_argument("--jobs", type=_number)
    p.add_argument("--format", choices=("human", "json", "csv"), default="human")
    p.add_argument("--output", default=None, help="write the report to this path")
    p.add_argument("--epsilon", type=float, default=0.25,
                   help="the epsilon of lemma logdiff; no other command reads it")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *positional):
        sp = sub.add_parser(name, help=help_text)
        for arg in positional:
            sp.add_argument(arg, type=_number)
        sp.set_defaults(func=func)
        return sp

    command("form", cmd_form, "construct a form exactly", "n", "s", "t")
    sp = command("solve", cmd_solve, "bounded solution search", "n", "s", "t")
    sp.add_argument("--ybound", type=_number, default=10**4)
    sp = command("lemma", cmd_lemma, "run a verification harness")
    sp.add_argument("name", choices=sorted(LEMMA_RUNNERS))
    sp.add_argument("--n", dest="n_grid", default=None, help="grid start:stop[:step|log10]")
    sp.add_argument("--smax", type=_number, default=None)
    sp = command("bound", cmd_bound, "upper bound vs lower-bound chain", "n", "s", "t")
    sp.add_argument("--babs", type=_number, default=1)
    sp = command("scan", cmd_scan, "solver + bounds over a grid")
    sp.add_argument("--n", dest="n_grid", required=True, help="grid start:stop[:step|log10]")
    sp.add_argument("--smax", type=_number, default=3)
    sp.add_argument("--ybound", type=_number, default=10**4)
    return p


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built by the first main call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    # the parser outlives this call, so the environment is read on every call
    parser.set_defaults(precision_bits=_env_int(parser, "CUBICTHUE_PRECISION_BITS", 192),
                        jobs=_env_int(parser, "CUBICTHUE_JOBS", 1))
    args = parser.parse_args(argv)
    if not 0 < args.epsilon < 0.5:
        parser.exit(2, "epsilon must lie in (0, 1/2)\n")
    if not 64 <= args.precision_bits <= MAX_PRECISION_BITS:
        parser.exit(2, f"precision-bits must lie in [64, {MAX_PRECISION_BITS}]\n")
    if args.jobs < 1:
        parser.exit(2, "jobs must be >= 1\n")
    try:
        _check_output(args.output)
        return args.func(args)
    except ValueError as exc:   # DegenerateTwist and EmptyGrid among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
