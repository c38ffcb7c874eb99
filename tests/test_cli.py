"""CLI behaviour: formats, exit codes, grids, determinism."""

import ast
import csv
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import from_int, mpf_div, round_nearest

from cubicthue.cli import (
    MAX_GRID_POINTS, MAX_PRECISION_BITS, MAX_VALUE_DIGITS, _sci, main, parse_grid,
)
from conftest import patch_everywhere


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_form_human(capsys):
    code, out, _ = run(capsys, ["form", "5", "1", "0"])
    assert code == 0
    assert "(-4)x^2y" in out and "(-7)xy^2" in out


def test_form_json(capsys):
    code, out, _ = run(capsys, ["--format", "json", "form", "5", "1", "1"])
    assert code == 0
    rec = json.loads(out)
    assert rec == {"n": 5, "s": 1, "t": 1, "A": 7, "B": 4, "degenerate": False}


def test_form_degenerate_flagged(capsys):
    code, out, _ = run(capsys, ["form", "5", "0", "0"])
    assert code == 0
    assert "degenerate" in out


def test_solve_json_contains_ground_truth(capsys):
    code, out, _ = run(capsys, ["--format", "json", "solve", "0", "1", "0",
                                "--ybound", "10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["precision_bits"] == 192
    assert {"n": 0, "s": 1, "t": 0, "x": -1, "y": 2, "value": 1,
            "type": 2, "trivial": False} in doc["solutions"]


def test_solve_refuses_degenerate(capsys):
    code, _, err = run(capsys, ["solve", "100", "0", "0"])
    assert code == 2
    assert "error" in err


def test_unknown_lemma_lists_names(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lemma", "unknown"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "regulator" in err and "logdiff" in err


def test_lemma_pass_exit_zero(capsys):
    code, out, _ = run(capsys, ["lemma", "regulator", "--n", "100:1000000:log10"])
    assert code == 0
    assert "PASS" in out


def test_lemma_fail_exit_one(capsys):
    # the box with smax=2 contains pairs violating the gap-product bounds
    code, out, _ = run(capsys, ["lemma", "errorbound", "--n", "1000", "--smax", "2"])
    assert code == 1
    assert "FAIL" in out


def test_lemma_csv_output(capsys, tmp_path):
    path = tmp_path / "reg.csv"
    code, _, _ = run(capsys, ["--format", "csv", "--output", str(path),
                              "lemma", "regulator", "--n", "100:1000000:log10"])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[0] == "n"
    assert len(lines) >= 4


def test_bound_human(capsys):
    code, out, _ = run(capsys, ["bound", "100", "2", "1"])
    assert code == 0
    assert "3^94" in out and "crossover: no" in out


def test_scan_deterministic_across_jobs(capsys, tmp_path):
    # st_box(3) holds phi-orbits, whose cells share one solve; st_box(1) holds none
    for grid, smax in (("50:52", 1), ("50:55", 3)):
        args = ["--format", "csv", "scan", "--n", grid, "--smax", str(smax), "--ybound", "200"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--output", str(p1), "--jobs", "1"] + args) == 0
        assert main(["--output", str(p2), "--jobs", "2"] + args) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0].startswith("n,s,t,A,B,solutions,nontrivial")
        assert len(lines) == 1 + len(parse_grid(grid)) * 4 * smax * smax


def test_scan_json_deterministic_across_jobs(capsys):
    # the JSON config records no worker count, so its bytes are those of one worker
    args = ["--format", "json", "scan", "--n", "50:53", "--smax", "2", "--ybound", "1000"]
    outs = [run(capsys, ["--jobs", jobs, *args]) for jobs in ("1", "2")]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert "jobs" not in json.loads(outs[0][1])["config"]


def test_scan_rerun_byte_identical(capsys, tmp_path):
    argv = ["--format", "json", "--output", None, "scan", "--n", "60:61",
            "--smax", "1", "--ybound", "100"]
    outs = []
    for name in ("x.json", "y.json"):
        path = tmp_path / name
        argv[3] = str(path)
        assert main(argv) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_parse_grid():
    assert parse_grid("100") == [100]
    assert parse_grid("50:55") == [50, 51, 52, 53, 54, 55]
    assert parse_grid("50:200:50") == [50, 100, 150, 200]
    assert parse_grid("100:1000000:log10") == [100, 1000, 10000, 100000, 1000000]
    assert parse_grid("100:5000:log10") == [100, 1000, 5000]
    assert parse_grid("1:50:log10") == [1, 10, 50]
    assert parse_grid("1:10:4") == [1, 5, 9, 10]     # a stop off the stride ends the grid
    with pytest.raises(ValueError):
        parse_grid("200:100")
    with pytest.raises(ValueError):
        parse_grid("1:2:3:4")
    for spec in ("0:100:log10", "-5:100:log10"):
        with pytest.raises(ValueError):
            parse_grid(spec)


def test_log10_grid_from_zero_exits_two(capsys):
    code, _, err = run(capsys, ["lemma", "regulator", "--n", "0:1000:log10"])
    assert code == 2
    assert "log10" in err


def test_solve_huge_ybound(capsys):
    code, huge, _ = run(capsys, ["solve", "0", "1", "0", "--ybound", str(10**100)])
    assert code == 0
    _, small, _ = run(capsys, ["solve", "0", "1", "0", "--ybound", "10000"])
    # the first line names the bound; the solution lines must agree
    assert huge.splitlines()[1:] == small.splitlines()[1:]


def test_solve_huge_n(capsys):
    n = 10**400
    code, out, _ = run(capsys, ["--format", "csv", "solve", str(n), "1", "1",
                                "--ybound", "10000"])
    assert code == 0
    pairs = {tuple(map(int, line.split(",")[3:5])) for line in out.splitlines()[1:]}
    assert pairs == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}


def test_scan_builds_one_form_per_cell(capsys, monkeypatch):
    from cubicthue import forms

    calls = []
    real = forms.build_form

    def counting(n, s, t):
        calls.append((n, s, t))
        return real(n, s, t)

    patch_everywhere(monkeypatch, real, counting)
    code, _, _ = run(capsys, ["--format", "csv", "scan", "--n", "20:21", "--smax", "1",
                              "--ybound", "100"])
    assert code == 0
    # per n, one form per mirrored pair of phi-orbits: the orbit of (-s, -t) takes the
    # reversed form of that of (s, t)
    assert len(calls) == 4 == len(set(calls))


def test_scan_rows_equal_cell_by_cell_public_calls(capsys):
    # a phi-orbit shares its solution map and upper bound; that must change no byte
    from cubicthue import bounds, cli, solver
    from cubicthue.asymptotics import st_box
    from cubicthue.forms import build_form

    code, out, _ = run(capsys, ["--format", "csv", "scan", "--n", "50:53", "--smax", "3",
                                "--ybound", "2000"])
    assert code == 0
    rows = []
    for n in range(50, 54):
        for s, t in st_box(3):
            form = build_form(n, s, t)
            records = solver.solve_box(n, s, t, 2000, precision_bits=192)
            rep = bounds.bound_report(n, s, t)
            rows.append({"n": n, "s": s, "t": t, "A": form.A, "B": form.B,
                         "solutions": len(records),
                         "nontrivial": sum(1 for r in records if abs(r.y) > 1),
                         "upper": rep.B_rhs, "lower": rep.lower_chain,
                         "margin": rep.lower_chain / rep.B_rhs if rep.lower_chain else None,
                         "chain_failure": rep.chain_failure, "crossover": rep.crossover,
                         "precision_bits": 192})
    buf = io.StringIO()
    cli._write_csv(buf, cli.SCAN_COLUMNS, rows)
    assert out == buf.getvalue()


def test_scan_solves_and_bounds_each_distinct_form_once(capsys, monkeypatch):
    from cubicthue import bounds, solver

    calls = {"solve": 0, "upper": 0}
    real_solve, real_upper = solver.solve_form, bounds._upper_bound

    def solve(*args):
        calls["solve"] += 1
        return real_solve(*args)

    def upper(*args):
        calls["upper"] += 1
        return real_upper(*args)

    def no_records(*args):
        raise AssertionError("the scan built a solution record")

    monkeypatch.setattr(solver, "solve_form", solve)
    monkeypatch.setattr(bounds, "_upper_bound", upper)
    monkeypatch.setattr(solver, "classify_type", no_records)
    code, out, _ = run(capsys, ["--format", "csv", "scan", "--n", "100", "--smax", "3",
                                "--ybound", "1000"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 36
    assert len({(r[3], r[4]) for r in rows}) == 24
    # the forms of (s, t) and (-s, -t), (A, B) and (-B, -A), share one upper bound
    assert calls == {"solve": 24, "upper": 12}


def test_scan_goes_by_phi_orbit_on_one_root_set_per_n(capsys, monkeypatch):
    # st_box(3) holds 24 phi-orbits: 6 with all three cells in the box, 18 with one
    from cubicthue import forms, roots

    counts = {"triples": 0, "logs": 0, "forms": 0}

    def counting(key, real):
        def wrapper(*args):
            counts[key] += 1
            return real(*args)
        patch_everywhere(monkeypatch, real, wrapper)

    counting("triples", roots.power_alphas)
    counting("logs", roots.fixed_log)
    counting("forms", forms.build_form)
    roots.compute_roots.cache_clear()
    roots.compute_alphas.cache_clear()
    code, _, _ = run(capsys, ["--format", "csv", "scan", "--n", "100:101", "--smax", "3"])
    assert code == 0
    # two n values: per n, one triple per orbit and one form per mirrored pair of
    # orbits (s, t), (-s, -t), and three difference logs per orbit with two or three
    # cells in the box and two for the others, taken for one orbit of each mirrored
    # pair and derived for the other; besides them, each root set takes its two root logs,
    # and the bound constants take log R, log n and, per upper bound, log H (the last
    # two by roots.log_int)
    assert counts == {"triples": 2 * 24, "logs": 2 * 27 + 2 * 2 + 2 * (1 + 1 + 12),
                      "forms": 2 * 12}
    # per n, one root set: the orbits' triples and the bound constants share it
    assert roots.compute_roots.cache_info().misses == 2


def test_scan_builds_each_triple_once(capsys, monkeypatch):
    # a triple is made with its mirror link as it is powered, never built again to
    # add the link: as many AlphaTriple constructions as power_alphas calls
    from cubicthue import roots

    counts = {"built": 0, "powered": 0}
    real_init, real_power = roots.AlphaTriple.__init__, roots.power_alphas

    def init(self, *args, **kwargs):
        counts["built"] += 1
        real_init(self, *args, **kwargs)

    def power(*args):
        counts["powered"] += 1
        return real_power(*args)

    monkeypatch.setattr(roots.AlphaTriple, "__init__", init)
    monkeypatch.setattr(roots, "power_alphas", power)
    roots.compute_roots.cache_clear()
    roots.compute_alphas.cache_clear()
    code, _, _ = run(capsys, ["--format", "csv", "scan", "--n", "100:101", "--smax", "3"])
    roots.compute_alphas.cache_clear()
    assert code == 0
    assert counts == {"built": 2 * 24, "powered": 2 * 24}


# scan --n 100 --smax 3: (s, t, precision_bits, frac_bits) of each triple powered,
# one per phi-orbit, and the precision of each root set computed
SCAN_100_TRIPLES = [
    (-3, -3, 238, 352), (-3, -2, 238, 352), (-3, -1, 238, 352), (-3, 1, 238, 352),
    (-3, 2, 238, 352), (-3, 3, 238, 352), (-2, -3, 238, 352), (-2, -2, 238, 352),
    (-2, -1, 238, 352), (-2, 1, 238, 352), (-2, 2, 238, 352), (-2, 3, 238, 352),
    (-1, -2, 238, 352), (-1, -1, 238, 352), (-1, 3, 238, 352), (1, -3, 238, 352),
    (1, 1, 238, 352), (2, -3, 238, 352), (2, -2, 238, 352), (2, 2, 238, 352),
    (3, -3, 238, 352), (3, -2, 238, 352), (3, -1, 238, 352), (3, 3, 238, 352),
]
SCAN_100_ROOT_BITS = [320]


def test_scan_root_and_triple_precisions_are_pinned(capsys, monkeypatch):
    from cubicthue import roots

    powered, computed = [], []
    real_power, raw_roots = roots.power_alphas, roots.compute_roots.__wrapped__

    def power(rs, s, t, precision_bits, mirror=None):
        powered.append((rs.n, s, t, precision_bits, rs.frac_bits))
        return real_power(rs, s, t, precision_bits, mirror)

    @functools.lru_cache(maxsize=None)
    def compute(n, precision_bits=192):
        computed.append((n, precision_bits))
        return raw_roots(n, precision_bits)

    monkeypatch.setattr(roots, "power_alphas", power)
    patch_everywhere(monkeypatch, roots.compute_roots, compute)
    roots.compute_alphas.cache_clear()
    code, _, _ = run(capsys, ["--format", "csv", "scan", "--n", "100", "--smax", "3"])
    roots.compute_alphas.cache_clear()
    assert code == 0
    assert sorted(powered) == [(100, *p) for p in SCAN_100_TRIPLES]
    assert sorted(computed) == [(100, bits) for bits in SCAN_100_ROOT_BITS]


def test_scan_powers_each_root_once_per_exponent_and_bits(capsys, monkeypatch):
    # the 24 triples of scan --n 100 --smax 3 lie at frac_bits 352, and their root
    # set powers lam_j^e once per (j, e), e = +-1, +-2, +-3, for all of them
    from cubicthue import roots

    calls = []
    real = roots._fixed_power

    def power(base, inverse, e, frac_bits):
        calls.append((frac_bits, base, e))
        return real(base, inverse, e, frac_bits)

    monkeypatch.setattr(roots, "_fixed_power", power)
    roots.compute_roots.cache_clear()
    roots.compute_alphas.cache_clear()
    code, _, _ = run(capsys, ["--format", "csv", "scan", "--n", "100", "--smax", "3"])
    assert code == 0
    assert len(calls) == len(set(calls)) == 3 * 6


def _described_cells(err):
    """The (n, s, t) cells of a refused box, from the n values and the box its
    message names (the message gives no count, which may be too long to print)."""
    n_values, smax, reps = re.search(
        r"more than \d+ cells \((\d+) n values, (?:smax (\d+)|(\d+) branch representatives)\)",
        err).groups()
    return int(n_values) * (4 * int(smax) ** 2 if smax else int(reps))


def test_grid_size_is_bounded_before_any_work(capsys):
    assert len(parse_grid(f"1:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
    for spec in (f"0:{MAX_GRID_POINTS}", f"0:{2 * MAX_GRID_POINTS - 1}:2"):
        with pytest.raises(ValueError, match="points"):
            parse_grid(spec)
    code, _, err = run(capsys, ["scan", "--n", "0:1000000000000"])
    assert code == 2
    assert f"grid '0:1000000000000' has more than {MAX_GRID_POINTS} points" in err
    code, _, err = run(capsys, ["scan", "--n", "100", "--smax", "100000"])
    assert code == 2
    assert _described_cells(err) == 40000000000
    code, _, err = run(capsys, ["scan", "--n", f"1:{MAX_GRID_POINTS // 4 + 1}", "--smax", "1"])
    assert code == 2
    assert "cells" in err


def test_huge_grid_values_exit_two_before_conversion(capsys):
    # 10^(10^9) as an int would take about 400 MB and minutes to build
    code, _, err = run(capsys, ["scan", "--n", "1e1000000000"])
    assert code == 2
    assert f"more than {MAX_VALUE_DIGITS} digits" in err
    code, _, err = run(capsys, ["lemma", "regulator", "--n", f"1:1e{MAX_VALUE_DIGITS}"])
    assert code == 2
    assert parse_grid("9" * MAX_VALUE_DIGITS) == [int("9" * MAX_VALUE_DIGITS)]
    for spec in ("abc", "inf", "nan:5", "1e99999999999999999999999"):
        code, _, err = run(capsys, ["lemma", "regulator", "--n", spec])
        assert code == 2 and "grid value" in err


def test_uncountable_grid_is_refused_without_printing_its_count(capsys):
    # the number of points of these grids has more digits than Python converts to text
    nines = "9" * MAX_VALUE_DIGITS
    for argv in (["scan", "--n", f"0:{nines}"], ["lemma", "vbar", "--n", "1:1e40"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.endswith(f" has more than {MAX_GRID_POINTS} points\n") and len(err) < 80
        assert "Exceeds the limit" not in err


@pytest.mark.parametrize("argv", [
    ["form", "10", "5000", "1"], ["bound", "10", "5000", "1"], ["solve", "10", "5000", "1"],
    ["form", "10", "10000000", "1"], ["form", "0", "1", "-20000"],
    ["--format", "csv", "scan", "--n", "1e3000", "--smax", "1", "--ybound", "2"],
    ["scan", "--n", "1:1e2200:log10", "--smax", "1"],
])
def test_forms_too_long_to_print_are_refused_before_any_work(capsys, monkeypatch, argv):
    # 3 (n + 3)^D, D = max(|s|, |t|, |s - t|) (2 smax for a scan, at its largest n),
    # bounds |A| and |B|; where it has more than MAX_VALUE_DIGITS digits, nothing is built
    from cubicthue import bounds, cli, exact_field, roots

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for mod, name in ((cli, "build_form"), (exact_field, "alpha_element"),
                      (roots, "compute_roots"), (bounds, "cell_reports"), (cli, "solver")):
        monkeypatch.setattr(mod, name, refuse)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"more than {MAX_VALUE_DIGITS} digits" in err and "Exceeds the limit" not in err


def test_forms_within_the_digit_bound_are_printed(capsys):
    # D log10(n + 3) = 3000 log10(13), about 3342 digits: below the limit, so printed
    code, out, _ = run(capsys, ["--format", "csv", "form", "10", "3000", "1"])
    assert code == 0
    a = out.splitlines()[1].split(",")[3]
    assert 3000 < len(a.lstrip("-")) <= MAX_VALUE_DIGITS


def test_lemma_box_is_bounded_before_any_work(capsys, monkeypatch):
    from cubicthue import asymptotics

    def no_box(smax):
        raise AssertionError("st_box was built")

    monkeypatch.setattr(asymptotics, "st_box", no_box)
    code, _, err = run(capsys, ["lemma", "vbar", "--smax", "100000"])
    assert code == 2
    assert _described_cells(err) == 3 * 40000000000   # vbar's own grid has 3 n values
    code, _, err = run(capsys, ["lemma", "logdiff", "--n", "1:1000", "--smax", "20"])
    assert code == 2
    assert _described_cells(err) == 1600000


@pytest.mark.parametrize("argv,cells", [
    # the runners' default boxes: st_box(5) for errorbound and vbar, st_box(3) for
    # wbar, and the 10 distinct branch representatives for logdiff
    (["lemma", "errorbound", "--n", "1:20000"], 2000000),
    (["lemma", "vbar", "--n", "2:1000000"], 99999900),
    (["lemma", "wbar", "--n", "1:30000"], 1080000),
    (["lemma", "logdiff", "--n", "1:100001"], 1000010),
])
def test_lemma_default_box_is_bounded_before_any_work(capsys, monkeypatch, argv, cells):
    from cubicthue import asymptotics, roots

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    patch_everywhere(monkeypatch, roots.compute_roots, refuse)
    monkeypatch.setattr(asymptotics, "st_box", refuse)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "lemma box has more than" in err and _described_cells(err) == cells


@pytest.mark.parametrize("argv,n_values", [
    # without --n, the runners' own n grids
    (["lemma", "errorbound", "--smax", "500"], 4),
    (["lemma", "vbar", "--smax", "289"], 3),
    (["lemma", "wbar", "--smax", "289"], 3),
    (["lemma", "logdiff", "--smax", "189"], 7),
])
def test_lemma_default_grid_counts_its_points(capsys, monkeypatch, argv, n_values):
    from cubicthue import asymptotics, roots

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    patch_everywhere(monkeypatch, roots.compute_roots, refuse)
    monkeypatch.setattr(asymptotics, "st_box", refuse)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"({n_values} n values, smax {argv[-1]})" in err
    assert n_values == len(asymptotics.DEFAULT_N_GRIDS[argv[1]])


def test_lemma_smax_is_the_st_bound_of_every_box_runner(capsys):
    # --smax k runs the box st_box(k) through the runner's st_bound, logdiff too, whose
    # config prints the resolved pairs
    from cubicthue import asymptotics

    grid = [10**4, 10**5, 10**6, 10**7, 10**8]
    code, out, _ = run(capsys, ["--format", "json", "lemma", "logdiff", "--n", "1e4:1e8:log10",
                                "--smax", "1"])
    assert code == 1
    assert json.loads(out)["config"]["pairs"] == [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    res = asymptotics.run_logdiff(n_grid=grid, st_bound=1)
    assert json.loads(out)["rows"] == json.loads(json.dumps(res.rows))
    assert set(asymptotics.DEFAULT_BOXES) == {"logdiff", "errorbound", "vbar", "wbar"}


def test_fractional_grid_values_exit_two_before_any_work(capsys, monkeypatch):
    # a grid value is an integer, however written: none is truncated to one
    from cubicthue import bounds, roots

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for fn in (roots.compute_roots, bounds.cell_reports):
        patch_everywhere(monkeypatch, fn, refuse)
    for argv, value in ((["--format", "csv", "scan", "--n", "50.9", "--smax", "1",
                          "--ybound", "2"], "'50.9'"),
                        (["lemma", "regulator", "--n", "99.99:1e6:log10"], "'99.99'"),
                        (["scan", "--n", "1e-3:2", "--smax", "1"], "'1e-3'")):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: grid value {value} is not an integer\n")
    assert parse_grid("1e3:1000.0") == [1000]


def test_grid_stride_is_read_as_a_grid_value(capsys):
    # 1e0 is a stride of 1, as it is a start or stop of 1; a fraction or a stride of
    # too many digits is refused as a grid value is, not with Python's message
    code, out, _ = run(capsys, ["--format", "csv", "scan", "--n", "1:10:1e0", "--smax", "1",
                                "--ybound", "2"])
    assert code == 0
    assert sorted({int(row.split(",")[0]) for row in out.splitlines()[1:]}) == list(range(1, 11))
    for stride, message in (("2.5", "error: grid value '2.5' is not an integer\n"),
                            ("9" * 5000, f"more than {MAX_VALUE_DIGITS} digits"),
                            ("0", "bad grid step"), ("-1", "bad grid step")):
        code, out, err = run(capsys, ["scan", "--n", f"1:10:{stride}", "--smax", "1"])
        assert code == 2 and out == ""
        assert message in err and "Exceeds the limit" not in err and "invalid literal" not in err


@pytest.mark.parametrize("argv,plain", [
    ("solve 1e3 1 1", "solve 1000 1 1"),
    ("scan --n 100 --ybound 1e4", "scan --n 100 --ybound 10000"),
    ("scan --n 100 --smax 2.0 --ybound 100", "scan --n 100 --smax 2 --ybound 100"),
    ("bound 1e2 2 1.0 --babs 1e1", "bound 100 2 1 --babs 10"),
    ("lemma errorbound --n 1000 --smax 1e0", "lemma errorbound --n 1000 --smax 1"),
    ("form 5 -1.0 1", "form 5 -1 1"),
])
def test_numeric_arguments_are_read_as_grid_values(capsys, argv, plain):
    spelled = run(capsys, ["--format", "json", *argv.split()])
    assert spelled[0] == 0 and spelled == run(capsys, ["--format", "json", *plain.split()])


@pytest.mark.parametrize("argv,message", [
    (["solve", "1.5", "1", "1"], "argument n: grid value '1.5' is not an integer"),
    (["scan", "--n", "100", "--smax", "2.5"], "argument --smax: grid value '2.5' is not an integer"),
    (["solve", "9" * 5000, "1", "1"], f"more than {MAX_VALUE_DIGITS} digits"),
    (["bound", "100", "2", "1", "--babs", "1e5000"], f"more than {MAX_VALUE_DIGITS} digits"),
])
def test_numeric_argument_that_is_no_grid_value_exits_two(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert message in err and len(err) < 300


@pytest.mark.parametrize("argv", [
    "lemma regulator --n 1e30:1e36:log10", "lemma lapprox --n 1e20:1e26:log10",
    "lemma lapprox --n 1e30:1e36:log10", "lemma lpowers --n 1e30:1e36:log10",
])
def test_root_expansion_harnesses_pass_at_large_n(capsys, argv):
    # the residuals fall below the default bits here, so each n takes at least
    # working_bits(n, 3, 64)
    from cubicthue.roots import working_bits

    code, out, _ = run(capsys, ["--format", "json", *argv.split()])
    doc = json.loads(out)
    assert code == 0 and doc["passed"]
    assert {r["precision_bits"] for r in doc["rows"]} == {
        max(192, working_bits(n, 3, 64)) for n in doc["config"]["n_grid"]}


@pytest.mark.parametrize("argv,order", [
    ("lemma regulator --n 1e300:1e306:log10", "residuals of order n^-2"),
    ("lemma lapprox --n 1e200:1e206:log10", "residuals down to order n^-3"),
    ("lemma lpowers --n 1e200:1e206:log10", "relative residuals down to order n^-3"),
])
def test_root_expansion_harness_beyond_float_range_exits_two(capsys, monkeypatch, argv, order):
    from cubicthue import asymptotics

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(asymptotics, "compute_roots", refuse)
    code, out, err = run(capsys, argv.split())
    assert code == 2 and out == ""
    assert f"fits {order}, which is beyond float range at n ~ 10^" in err


@pytest.mark.parametrize("argv,message", [
    (["scan", "--n", "1:999999"], "scan has more than 1000000 cells (999999 n values, smax 3)"),
    (["lemma", "vbar", "--n", "2:1000000"],
     "lemma box has more than 1000000 cells (999999 n values, smax 5)"),
])
def test_refused_grid_is_counted_before_it_is_built(capsys, argv, message):
    # the cell limit is checked on the number of points: no list of them is built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and message in err
    assert peak < 5 * 2**20


@pytest.mark.parametrize("argv,message", [
    (["scan", "--n", "50", "--ybound", "-3"], "y_bound must be >= 1"),
    (["scan", "--n", "50", "--ybound", "0"], "y_bound must be >= 1"),
    (["solve", "50", "1", "1", "--ybound", "-3"], "y_bound must be >= 1"),
    (["solve", "50", "1", "1", "--ybound", "0"], "y_bound must be >= 1"),
    (["bound", "50", "1", "1", "--babs", "0"], "b_abs must be >= 1"),
])
def test_bad_bounds_are_refused_before_any_root_set(capsys, argv, message):
    from cubicthue import roots

    roots.compute_roots.cache_clear()
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and message in err
    assert roots.compute_roots.cache_info().misses == 0


@pytest.mark.parametrize("argv", [
    ["solve", "-2", "1", "1"], ["bound", "-5", "1", "1"], ["scan", "--n=-3:-1", "--smax", "1"],
    ["lemma", "ubar", "--n=-5:-3"],
])
def test_negative_n_is_refused_before_any_precision_formula(capsys, argv):
    # the precision policy takes log2(n + 2), which has no value below n = -1; a lemma
    # refuses its grid below its least n first
    from cubicthue import roots

    roots.compute_roots.cache_clear()
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    want = "lemma ubar needs n >= 1, got n = -5" if argv[0] == "lemma" else "n must be nonnegative"
    assert err == f"error: {want}\n"
    assert roots.compute_roots.cache_info().misses == 0


@pytest.mark.parametrize("n", ["0", "1000000", "1" + "0" * 400])
def test_bound_computes_one_root_set(capsys, n):
    # bound_report is the one-cell batch of cell_reports: one root set serves its
    # upper bound and its proof quantities
    from cubicthue import roots

    roots.compute_roots.cache_clear()
    code, out, _ = run(capsys, ["bound", n, "2", "1"])
    assert code == 0 and "upper bound exponent" in out
    assert roots.compute_roots.cache_info().misses == 1


def test_scan_asks_the_solver_for_the_precision_of_the_command_line(capsys, monkeypatch):
    # solve and scan pass the same --precision-bits to roots.candidate_precision
    from cubicthue import roots

    asked = []
    real = roots.candidate_precision

    def spy(n, s, t, y_bound, precision_bits):
        asked.append(precision_bits)
        return real(n, s, t, y_bound, precision_bits)

    patch_everywhere(monkeypatch, real, spy)
    for command in (["solve", "100", "2", "1"], ["scan", "--n", "100", "--smax", "1"]):
        asked.clear()
        code, _, _ = run(capsys, ["--precision-bits", "64", *command])
        assert code == 0 and asked and set(asked) == {64}


@pytest.mark.parametrize("name,n,least", [
    ("lpowers", 0, 1), ("errorbound", 0, 1), ("wbar", 0, 1), ("logdiff", 0, 1),
    ("regulator", 0, 2), ("regulator", 1, 2), ("vbar", 0, 2), ("vbar", 1, 2),
    ("lapprox", 0, 4), ("lapprox", 3, 4), ("ubar", 0, 1),
])
def test_lemma_at_tiny_n_names_the_least_n(capsys, name, n, least):
    from cubicthue import roots

    roots.compute_roots.cache_clear()
    code, _, err = run(capsys, ["lemma", name, "--n", str(n)])
    assert code == 2
    assert f"lemma {name} needs n >= {least}, got n = {n}" in err
    assert roots.compute_roots.cache_info().misses == 0


def test_lemma_ubar_names_a_huge_n_by_its_magnitude(capsys):
    # past the 17 digits of a float the note gives n as ~10^k, not its 301 digits
    code, out, _ = run(capsys, ["lemma", "ubar", "--n", "1e300"])
    note, = [line for line in out.splitlines() if "note:" in line]
    assert code == 0 and "n=~10^300:" in note and len(note) < 80


@pytest.mark.parametrize("bits", ["64", "1024"])
def test_lemma_wbar_decides_n_one(capsys, bits):
    # (3/4) log(1)/1 is exactly 0, so rhs and the margin print 0.0 and every cell
    # fails the absorption, the chain failure scan --n 1 names on the same cells
    code, out, _ = run(capsys, ["--format", "json", "--precision-bits", bits,
                                "lemma", "wbar", "--n", "1", "--smax", "1"])
    assert code == 1
    rows = json.loads(out)["rows"]
    assert [(r["s"], r["t"], r["rhs"], r["margin"], r["ok"]) for r in rows] == [
        (s, t, 0.0, 0.0, False) for s in (-1, 1) for t in (-1, 1)]
    code, out, _ = run(capsys, ["--format", "json", "scan", "--n", "1", "--smax", "1",
                                "--ybound", "10"])
    assert code == 0
    assert [(r["s"], r["t"], r["chain_failure"]) for r in json.loads(out)["rows"]] == [
        (r["s"], r["t"], "w_bar absorption") for r in rows]


@pytest.mark.parametrize("smax", ["0", "-2"])
def test_scan_smax_below_one_exits_two_before_reading_the_grid(capsys, monkeypatch, smax):
    from cubicthue import cli

    def refuse(*args, **kwargs):
        raise AssertionError("the grid was read")

    monkeypatch.setattr(cli, "parse_grid", refuse)
    code, out, err = run(capsys, ["scan", "--n", "1:10", "--smax", smax])
    assert (code, out, err) == (2, "", f"error: --smax must be >= 1, got {smax}\n")


@pytest.mark.parametrize("smax", ["0", "-2"])
def test_lemma_smax_below_one_exits_two(capsys, smax):
    code, out, err = run(capsys, ["lemma", "errorbound", "--n", "1000", "--smax", smax])
    assert code == 2 and out == ""
    assert "--smax must be >= 1" in err


def test_lemma_logdiff_beyond_float_range_exits_two(capsys):
    code, _, err = run(capsys, ["lemma", "logdiff", "--n", "1e400"])
    assert code == 2
    assert "beyond float range at n ~ 10^400" in err


def test_precision_bits_upper_limit(capsys):
    for bits in (MAX_PRECISION_BITS + 1, 10**9):
        assert run(capsys, ["--precision-bits", str(bits), "form", "5", "1", "0"]) == (
            2, "", f"error: precision-bits must lie in [64, {MAX_PRECISION_BITS}]\n")
    assert main(["--precision-bits", str(MAX_PRECISION_BITS), "form", "5", "1", "0"]) == 0
    for bits in ("1024", "2048"):
        code, out, _ = run(capsys, ["--precision-bits", bits, "bound", "100", "2", "1"])
        assert code == 0 and "crossover: no" in out


def test_scan_computes_the_bound_constants_once_per_n(capsys, monkeypatch):
    from cubicthue import bounds

    calls = []
    real = bounds._n_constants

    def counting(rs, b_abs, precision_bits):
        calls.append(rs.n)
        return real(rs, b_abs, precision_bits)

    monkeypatch.setattr(bounds, "_n_constants", counting)
    code, _, _ = run(capsys, ["--format", "csv", "scan", "--n", "100:101", "--smax", "3",
                              "--ybound", "100"])
    assert code == 0
    assert calls == [100, 101]


def test_env_override_precision(capsys, monkeypatch):
    monkeypatch.setenv("CUBICTHUE_PRECISION_BITS", "128")
    code, out, _ = run(capsys, ["--format", "json", "solve", "3", "1", "0",
                                "--ybound", "1"])
    assert code == 0
    assert json.loads(out)["config"]["precision_bits"] == 128


@pytest.mark.parametrize("name,value", [("CUBICTHUE_PRECISION_BITS", "abc"),
                                        ("CUBICTHUE_JOBS", "two"),
                                        ("CUBICTHUE_JOBS", "1.5")])
def test_env_override_that_is_not_an_integer_exits_two(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert run(capsys, ["form", "5", "1", "0"]) == (
        2, "", f"error: {name} must be an integer, got {value!r}\n")


@pytest.mark.parametrize("flag", ["--precision-bits", "CUBICTHUE_PRECISION_BITS"])
def test_precision_bits_take_the_grid_value_grammar(capsys, monkeypatch, flag):
    # 2.56e2 is the integer 256, as --ybound 1e4 is 10000
    argv = ["--format", "json", "solve", "3", "1", "0", "--ybound", "1"]
    if flag.startswith("--"):
        argv = [flag, "2.56e2", *argv]
    else:
        monkeypatch.setenv(flag, "2.56e2")
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["config"]["precision_bits"] == 256


@pytest.mark.parametrize("flag", ["--jobs", "CUBICTHUE_JOBS"])
def test_jobs_take_the_grid_value_grammar(capsys, monkeypatch, flag):
    # 2e0 is read as 2 workers: the scan's process pool is asked for two
    import concurrent.futures

    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return map(func, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    argv = ["--format", "json", "scan", "--n", "5", "--smax", "1", "--ybound", "1"]
    if flag.startswith("--"):
        argv = [flag, "2e0", *argv]
    else:
        monkeypatch.setenv(flag, "2e0")
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert asked == [2]


def test_jobs_that_are_not_an_integer_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "1.5", "form", "5", "1", "0"])
    assert exc.value.code == 2
    assert "argument --jobs: grid value '1.5' is not an integer" in capsys.readouterr().err


def test_empty_env_override_counts_as_unset(capsys, monkeypatch):
    monkeypatch.setenv("CUBICTHUE_PRECISION_BITS", "")
    monkeypatch.setenv("CUBICTHUE_JOBS", "")
    code, out, _ = run(capsys, ["--format", "json", "solve", "3", "1", "0", "--ybound", "1"])
    assert code == 0
    assert json.loads(out)["config"]["precision_bits"] == 192


@pytest.mark.parametrize("argv", [
    ["form", "5", "1", "0"],
    ["lemma", "errorbound", "--n", "1000", "--smax", "1"],
    ["scan", "--n", "100", "--smax", "1"],
])
def test_output_that_cannot_be_written_is_refused_before_any_work(capsys, monkeypatch,
                                                                  tmp_path, argv):
    from cubicthue import cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("cmd_form", "cmd_lemma", "cmd_scan"):
        monkeypatch.setattr(cli, name, refuse)
    cli._parser.cache_clear()   # its subparsers hold the commands
    try:
        for path, why in ((tmp_path / "missing" / "x.csv", "is in no existing directory"),
                          (tmp_path, "is a directory")):
            code, out, err = run(capsys, ["--output", str(path), *argv])
            assert code == 2 and out == ""
            assert err.startswith("error: --output") and why in err
    finally:
        cli._parser.cache_clear()


def test_output_write_error_exits_two(capsys, tmp_path):
    # the directory exists, but no file of that name can be made in it
    path = tmp_path / ("x" * 300)
    code, out, err = run(capsys, ["--output", str(path), "lemma", "errorbound",
                                  "--n", "1000", "--smax", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --output") and "File name too long" in err


def test_parser_is_built_once_and_reads_the_env_on_every_call(capsys, monkeypatch):
    from cubicthue import cli

    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        seen = []
        for bits in ("128", "256"):
            monkeypatch.setenv("CUBICTHUE_PRECISION_BITS", bits)
            code, out, _ = run(capsys, ["--format", "json", "solve", "3", "1", "0",
                                        "--ybound", "1"])
            assert code == 0
            seen.append(json.loads(out)["config"]["precision_bits"])
        monkeypatch.delenv("CUBICTHUE_PRECISION_BITS")
        code, out, _ = run(capsys, ["--format", "json", "solve", "3", "1", "0", "--ybound", "1"])
        seen.append(json.loads(out)["config"]["precision_bits"])
        assert seen == [128, 256, 192]
        monkeypatch.setenv("CUBICTHUE_JOBS", "0")
        assert run(capsys, ["form", "5", "1", "0"]) == (2, "", "error: jobs must be >= 1\n")
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_epsilon_validation(capsys):
    assert run(capsys, ["--epsilon", "0.9", "form", "5", "1", "0"]) == (
        2, "", "error: epsilon must lie in (0, 1/2)\n")


_FORM_DIGITS = (f"3 (n + 3)^D, D = max(|s|, |t|, |s - t|), may have more than "
                f"{MAX_VALUE_DIGITS} digits: a form's coefficient may not print")

# every kind of refusal main decides: (environment, argv, message); each is one
# "error: <message>" line and exit code 2, with no root set computed
REFUSALS = [
    ({}, ["scan", "--n", "50.9", "--smax", "1"], "grid value '50.9' is not an integer"),
    ({}, ["lemma", "regulator", "--n", "1e4300"],
     f"grid value '1e4300' is not finite or has more than {MAX_VALUE_DIGITS} digits"),
    ({}, ["lemma", "regulator", "--n", "1:1000001"],
     f"grid '1:1000001' has more than {MAX_GRID_POINTS} points"),
    ({}, ["scan", "--n", "1:30000", "--smax", "3"],
     f"scan has more than {MAX_GRID_POINTS} cells (30000 n values, smax 3)"),
    ({}, ["lemma", "wbar", "--n", "1:30000"],
     f"lemma box has more than {MAX_GRID_POINTS} cells (30000 n values, smax 3)"),
    ({}, ["form", "10", "5000", "1"], _FORM_DIGITS),
    ({}, ["scan", "--n", "1e3000", "--smax", "1"], _FORM_DIGITS),
    ({}, ["scan", "--n", "1:10", "--smax", "0"], "--smax must be >= 1, got 0"),
    ({}, ["lemma", "errorbound", "--n", "1000", "--smax", "-2"], "--smax must be >= 1, got -2"),
    ({}, ["lemma", "ubar", "--smax", "3"],
     "lemma ubar takes no --smax: it checks no box of (s, t) pairs"),
    ({}, ["solve", "5", "1", "1", "--ybound", "0"], "y_bound must be >= 1"),
    ({}, ["scan", "--n", "5", "--smax", "1", "--ybound", "0"], "y_bound must be >= 1"),
    ({}, ["bound", "5", "1", "1", "--babs", "0"], "b_abs must be >= 1"),
    ({}, ["bound", "5", "0", "0"], "(s, t) = (0, 0) gives the reducible form (x - y)^3"),
    ({}, ["solve", "5", "0", "0"], "(s, t) = (0, 0) gives the reducible form (x - y)^3"),
    ({}, ["form", "-2", "1", "1"], "n must be nonnegative"),
    ({}, ["solve", "-2", "1", "1"], "n must be nonnegative"),
    ({}, ["bound", "-2", "1", "1"], "n must be nonnegative"),
    ({}, ["scan", "--n", "-2", "--smax", "1"], "n must be nonnegative"),
    ({}, ["lemma", "ubar", "--n", "0"], "lemma ubar needs n >= 1, got n = 0"),
    ({}, ["lemma", "vbar", "--n", "1"], "lemma vbar needs n >= 2, got n = 1"),
    ({}, ["lemma", "lapprox", "--n", "1e100"], "need >= 5 samples, got 1"),
    ({}, ["lemma", "logdiff", "--n", "1e400"], "lemma logdiff scales residuals by "
     "n^(1+2 epsilon), which is beyond float range at n ~ 10^400"),
    ({}, ["lemma", "vbar", "--n", "2:9999:log10"],
     "lemma vbar tests its growth bounds at n >= 10000, got largest n = 9999"),
    ({}, ["--output", ".", "form", "5", "1", "0"], "--output '.' is a directory"),
    ({}, ["--output", "missing/x.csv", "form", "5", "1", "0"],
     "--output 'missing/x.csv' is in no existing directory"),
    ({}, ["--epsilon", "0.9", "lemma", "logdiff"], "epsilon must lie in (0, 1/2)"),
    ({}, ["--epsilon", "0", "form", "5", "1", "0"], "epsilon must lie in (0, 1/2)"),
    ({}, ["--precision-bits", "63", "form", "5", "1", "0"],
     f"precision-bits must lie in [64, {MAX_PRECISION_BITS}]"),
    ({}, ["--precision-bits", "65537", "form", "5", "1", "0"],
     f"precision-bits must lie in [64, {MAX_PRECISION_BITS}]"),
    ({}, ["--jobs", "0", "form", "5", "1", "0"], "jobs must be >= 1"),
    ({"CUBICTHUE_PRECISION_BITS": "abc"}, ["form", "5", "1", "0"],
     "CUBICTHUE_PRECISION_BITS must be an integer, got 'abc'"),
    ({"CUBICTHUE_JOBS": "two"}, ["form", "5", "1", "0"],
     "CUBICTHUE_JOBS must be an integer, got 'two'"),
]


@pytest.mark.parametrize("env,argv,message", REFUSALS,
                         ids=[" ".join([*(f"{k}={v}" for k, v in env.items()), *argv])
                              for env, argv, _ in REFUSALS])
def test_every_refusal_is_one_error_line_before_any_root_work(capsys, monkeypatch, tmp_path,
                                                              env, argv, message):
    from cubicthue import roots

    monkeypatch.chdir(tmp_path)   # where the --output paths are read
    for name in ("CUBICTHUE_PRECISION_BITS", "CUBICTHUE_JOBS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    roots.compute_roots.cache_clear()
    roots.compute_alphas.cache_clear()
    assert run(capsys, argv) == (2, "", f"error: {message}\n")
    assert roots.compute_roots.cache_info().misses == 0


def test_precision_exhausted_exit_three(capsys, monkeypatch):
    from cubicthue import cli
    from cubicthue.errors import PrecisionExhausted

    def boom(**kwargs):
        raise PrecisionExhausted("forced")

    monkeypatch.setitem(cli.LEMMA_RUNNERS, "regulator", boom)
    code = cli.main(["lemma", "regulator"])
    assert code == 3
    assert "precision exhausted" in capsys.readouterr().err


# command -> its exit code, and the sha256 of its stdout in each format
OUTPUT_PINS = {
    "form 5 1 1": (0, {
        "human": "e241862fd7793c5ee3e5d5ee9b82cdbaf4352d03e3ac14a92694c56dbc29f5fe",
        "json": "750c7118fcb5477f8d18a17f457de75a502e78a2cca5c6704fdc4370c03b8db2",
        "csv": "c2c1914b76f97871a4826a3b22e51808af7c18bc54dc80a96889d7fd831f64b3",
    }),
    "form 5 0 0": (0, {
        "human": "00ea86b55b498e824d9e5b13308113b7284ce1eae8fdf75c846db0e7a0b16e38",
        "json": "ce30f8d2924445e01309fe53a1b3bb6adf5a798b90a6e68ad03f68ffbb5bfcb3",
        "csv": "f78a8567b3f545589e7518d4ffa77a239b5a8f525e09d368e78a39dd318197a9",
    }),
    "solve 1000 -1 3 --ybound 100000": (0, {
        "human": "8e1fc51d39e2da7da805a858b6973d36bf8ea2feaae6b73ef0f1fb10e42416ce",
        "json": "0de2e6ae5e89a533d36c6a173c41c76cd439cbc072472df89fa2ead7e0c09e20",
        "csv": "009d7ca58608b524f2ffa9e9fdc0787ed9215528da89158b8dfa8c7cfe9406e9",
    }),
    "lemma regulator --n 100:1000000:log10": (0, {
        "human": "759ec525051973ba207e3b213a01f2b1c13b5cb8ecff8f7c991d0c02dae7c27d",
        "json": "cde0e91f5837b8480951b3167e2364c17d6d054e613c491eb1f5d7605112e977",
        "csv": "9a887a39f314df6dbb8cde95a25ffcae220c3f3fe57e1a1be6cf3ed5afc6fada",
    }),
    "lemma lapprox": (0, {
        "human": "2a5124a8fa38bc8e21716084552472731de34239657369de82eac5333fd1ba0b",
        "json": "05d0f638be83a25c2987acea5e951617998e56c1fe5cf1166e248cec6de52057",
        "csv": "92da4424b61bd435a5464829389c07f4a25675123dd68ee3460230d7fb431d17",
    }),
    "lemma lpowers": (0, {
        "human": "3d037777597630ad94cbeb8749fdd36dc55555c041157be3c2b772672a1812a3",
        "json": "98fa8cac10772e3f5a41fdf066b164c291788143ea7b755ebf87e2e22fe79de6",
        "csv": "d32ea28c67f7e7ea1b56d4f114bbd9e39de8ac0cb066a60482faf830cd79925d",
    }),
    "lemma errorbound --n 1000 --smax 2": (1, {
        "human": "a144b45b727a06de653386cc71b3cc78485b87efbdc8d55f9e3c4e6a2c74ad1f",
        "json": "b4be2d37be2254f86645b873f4832863f212002d846ff92c5956054f667e9b87",
        "csv": "10535f4ba5343d0a7c096dc1f8dcb3d2dd5f41367ea67ccfc20b4e6d6abb006d",
    }),
    "bound 100 2 1": (0, {
        "human": "f9456ee7cda0552689327e33400e6fb43cbb9e1c2468c6c3698108d87297e0f5",
        "json": "4a525d0b6099f5d8c75165826311810f6aed3ac9602a4454bef4b46435a7dad4",
        "csv": "e2e4ef9f68272d09727e70be4cd43748cf181f329540bb834c30df6508af0622",
    }),
    "bound 100 1 2": (0, {
        "human": "52c985c9fdd4933bf2ded23695092b50048453b71e04175519d681991bc4eeae",
        "json": "768e0253b9e24e4d406b1297ad69664dcf7ef92b486781953e5ccd09d7ac8645",
        "csv": "46d0184bd21488eb3bf19a2e0a4d5dd3508c9fa17c8993bf2399461c0fd740fb",
    }),
    "lemma vbar --n 10000:1000000:log10 --smax 2": (1, {
        "human": "0dfcbd27069fc1d7eb81dcee07b2f800805bdb984a76e977ee4cc6cd02e93f14",
        "json": "5b3a2df4b05f00d856f2bf3915a7066dd22cf99c3ad7091cb71a6793eacf7a9f",
        "csv": "fd971cb8caf64c2595f0874fcd98956f6b6c76c542dfa2c399d46665bacaa192",
    }),
    "lemma wbar --n 10000:1000000:log10 --smax 2": (1, {
        "human": "b93f0990b5761840e6229ec720a8c3c8d614e99c501c9ca5d77bb963d09adf1a",
        "json": "e11e7bb8b7f73cfe24706c28faf367770b0ff727222b1c50bb5390bd40490125",
        "csv": "b94ec1d98214d71caf4b001d7cddc6fac1e3dcbbff7b7a9ba6c3dc9ffd5241b0",
    }),
    "scan --n 50:53 --smax 2 --ybound 1000": (0, {
        "human": "c6d23919591191db8b4c628b4281663626054ecc41dc2739c0ea845b57a17be9",
        "json": "5681db81f110a6980acc132158d690ca420e31c255afdc37357cd038d6726764",
        "csv": "4629af1b0f0cd5862ec1095efd99a56dbcd4b1572195df091619a8264da00bc5",
    }),
    # the lemma harnesses on their default grids
    "lemma logdiff": (0, {
        "human": "cd0c95458edac5ca4de2a39c6e377ea00b716793a0ba2cc655ec699059a03bbb",
        "json": "ec371b668459c56a7e91a988024a2162133b41101062808726e017189ce68e16",
        "csv": "1d4ec672a2c246194cafee9ee9dee9d4856bb1d8f21b43d56d4f9407e0536251",
    }),
    "lemma ubar": (0, {
        "human": "5ddd505c39eefbc9d3c46fb36c85f828571c302ac38a31b271f7368dace40430",
        "json": "0b8299625941e5b82dab02cfc13f81fac3330f38552f953afe0c01cc6f9c79d9",
        "csv": "010d96be3dd89f53d3eea592964c9114801d0e878aa0098cea6e184ae6bbb677",
    }),
    "lemma vbar": (1, {
        "human": "903a817707a34369af5f4188c698fe472a6c3b1f5b1ff77fa4142fb95eadd091",
        "json": "37b5f96435c4058f0a35efa15223322c3add8d4036b9e1dfbe49bfb747488cf9",
        "csv": "9ab24aa6ecfdff905689c60c9bcd6e0d6c67385b120db1a9e1e680407904c662",
    }),
    "lemma errorbound": (1, {
        "human": "953861708a4251d67d2a1c4366b215acfc21555abaf51e497ce872640ff4c73b",
        "json": "a36ede20e5f6a13897c0e0e4994af35e2c12643801377330ba80171e9f6c819e",
        "csv": "33a6e748154f711c1f2bbd1f2da80223b04366890013e074056d1444ad6b3d95",
    }),
    "lemma wbar": (1, {
        "human": "0a77e4aad8c619a7b49ec5a261387eb2be1905e39ba59233e7cae9db2adb2193",
        "json": "225b3b76341381287d69ace5718f8f2c3c9edc83b0ba454d2195d68b38fd92bf",
        "csv": "d014c9b8a8305c1daac26e04cdf4304d310e25d6d89c6fb7a19da8af0793f460",
    }),
    # huge n, where the difference logs are taken at K of about 2,400 bits
    "lemma vbar --n 1e16:1e64:log10 --smax 3": (1, {
        "human": "e54a01ae918a9de67d71d2a9220beb1def36af7f8d5e38fd7f639bfb265c7577",
        "json": "2fb43edfad24140f70e76cc53d6316548e6df09e2e1f57b3f1f2a6c968cf3c70",
        "csv": "1449ef7b6f29a9184d437aea52af957e4662f8d23ad3eaad4012a3291c0a2d75",
    }),
    # (its lhs at n = 1e44, (1, -1) is 1.5e-308, correctly rounded into the subnormals)
    "lemma wbar --n 1e16:1e64:log10 --smax 2": (1, {
        "human": "549ac0757673354c8b46f39c17eea4c2bb7d4adc99d944f621578c7f9cf36598",
        "json": "bfe9c033cd32b6cc63acfca41d2a7a8b3c307ccff669481eae28b529e397fc88",
        "csv": "bc1bc7b59baf7a8da87ed6404e2dd1a9c46d3a20efc52978b6e29d55ac639ea1",
    }),
    # a chain value beyond float range, printed to 17 digits from an exact Fraction
    "bound 1e320 2 1": (0, {
        "human": "d093314847cd9ccfa27fb32a9060a7de98df5bdc05565d7b18207bc974aedc5c",
        "json": "6b2dc49d3c0b5426a2e3f858914d5d36e33c0adb16cfb6499d2733ee30dc2326",
        "csv": "f9eb691ab899af9bbdc14c1b246485cd07b11b2128deeb4f6c05547fc761cf0a",
    }),
}


# scan command -> the sha256 of its stdout, the same at one and two workers: the
# README scan in two formats, the wide scan at huge n, where the bits of the
# forms of one n differ most, at the default precision and at 512 bits, and a
# scan whose chain values lie beyond float range (printed from exact Fractions)
SCAN_PINS = {
    "--format csv scan --n 50:200 --smax 3 --ybound 10000":
        "8b6d94f98fe86cf3c37d6ee75394481d0f722e7cc867323329e92214d188e24a",
    "--format human scan --n 50:200 --smax 3 --ybound 10000":
        "43f6752abd56588da1beeac174c6d79c968fd187096607c4123e84ecf4be21a4",
    "--format csv scan --n 1e16:1e64:log10 --smax 4 --ybound 100":
        "79e1ad87064d99522ee352eec46f01b900ddd32832aa0ef259165b8a52efe0d7",
    "--precision-bits 512 --format csv scan --n 1e16:1e64:log10 --smax 4 --ybound 100":
        "52fae4a39aab390f25771b26661a2a64142cfea02c898e839e59ff14ce7f273b",
    "--format csv scan --n 1e300:1e320:log10 --smax 1 --ybound 10":
        "0247fee4ee5171e86f3a7c478df0a5fdda6bf77e27eaeb74b52deb0952c1bedf",
    # margins beyond float range
    "--format csv scan --n 1e360:1e400:log10 --smax 1 --ybound 10":
        "977978363424cdc389766b93a4ec348315d6d01e3f338ffd7d9291fb8907a54f",
    # chain values above 2^3500
    "--format csv scan --n 1e1100:1e1102:log10 --smax 1 --ybound 10":
        "7104aec94e3fb46c85ad382cb7e18ace8affb4585193bb944cd1ea7f4ce1c0ca",
}

# solve N S T --ybound 100000 for records of types 1, 2 and 3, typed in integers on
# the solver's triple -> the sha256 of their CSV outputs, concatenated
SOLVE_PINS = (["0 1 0", "0 2 1", "5 1 1", "12 2 1", "1000 -1 3", "1000000 3 -2", "1000000 -3 -3"],
              "9c14588391d73c27917658da014003cb018c3cc0779a3c301ca345042f3469ec")


# solve 0 2 0, a once-twisted form (s*t = 0): its nontrivial solutions are (3, 2),
# (13, 4), (1, 5) and (14, 9), each with its negative
ONCE_TWISTED_SOLVE_PIN = (
    "n,s,t,x,y,value,type,trivial\n"
    "0,2,0,-1,0,-1,1,true\n"
    "0,2,0,1,0,1,1,true\n"
    "0,2,0,-3,-1,1,3,true\n"
    "0,2,0,-2,-1,1,1,true\n"
    "0,2,0,-1,-1,-1,1,true\n"
    "0,2,0,0,-1,1,2,true\n"
    "0,2,0,0,1,-1,2,true\n"
    "0,2,0,1,1,1,1,true\n"
    "0,2,0,2,1,-1,1,true\n"
    "0,2,0,3,1,-1,3,true\n"
    "0,2,0,-3,-2,-1,1,false\n"
    "0,2,0,3,2,1,1,false\n"
    "0,2,0,-13,-4,-1,3,false\n"
    "0,2,0,13,4,1,3,false\n"
    "0,2,0,-1,-5,-1,2,false\n"
    "0,2,0,1,5,1,2,false\n"
    "0,2,0,-14,-9,1,1,false\n"
    "0,2,0,14,9,-1,1,false\n"
)


def test_once_twisted_solve_output(capsys):
    code, out, _ = run(capsys, ["--format", "csv", "solve", "0", "2", "0"])
    assert code == 0 and out == ONCE_TWISTED_SOLVE_PIN


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", list(SCAN_PINS))
def test_scan_output_bytes(capsys, monkeypatch, command, jobs):
    monkeypatch.delenv("CUBICTHUE_PRECISION_BITS", raising=False)
    code, out, _ = run(capsys, ["--jobs", jobs, *command.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_PINS[command]


@pytest.mark.parametrize("prec", [30, 200])
def test_report_bytes_do_not_depend_on_mpmath_precision(capsys, monkeypatch, prec):
    # margins beyond float range were once mpf quotients at mpmath's global precision
    command = "--format csv scan --n 1e360:1e400:log10 --smax 1 --ybound 10"
    monkeypatch.delenv("CUBICTHUE_PRECISION_BITS", raising=False)
    monkeypatch.setattr(mp, "prec", prec)
    code, out, _ = run(capsys, command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_PINS[command]


@pytest.mark.parametrize("name", ["errorbound", "lapprox", "logdiff", "lpowers", "regulator",
                                  "ubar", "vbar", "wbar"])
def test_lemma_bytes_do_not_depend_on_precision(capsys, monkeypatch, name):
    # each residual is the correctly rounded float of a certified value, so the rows
    # differ only in their precision_bits column
    monkeypatch.delenv("CUBICTHUE_PRECISION_BITS", raising=False)
    outs = []
    for bits in ("64", "192", "1024"):
        code, out, _ = run(capsys, ["--precision-bits", bits, "--format", "csv", "lemma", name])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(row.pop("precision_bits") for row in rows)
        outs.append((code, rows))
    assert outs[0] == outs[1] == outs[2]


@st.composite
def beyond_float(draw):
    """An exact ratio num / den of 2^1024 to 2^3400, below mpmath's 3500 bits, above
    which nstr finds the digits of an mpf approximately."""
    den = draw(st.integers(1, 2**600))
    return Fraction(draw(st.integers(den << 1024, den << 3400)), den)


@settings(max_examples=300, deadline=None)
@given(value=beyond_float(), digits=st.sampled_from([6, 17]), bits=st.sampled_from([208, 528]))
def test_exact_values_print_as_mpmath_prints_them(value, digits, bits):
    # mp.nstr applies the rule _sci applies to the exact value to an mpf rounded from
    # it; the two differ only where a multiple of 10^(E - digits), E the decimal
    # exponent, lies between the mpf and the exact value (a decimal tie is one
    # such): the mpf's floor then has other leading digits
    view = mp.make_mpf(mpf_div(from_int(value.numerator), from_int(value.denominator),
                               bits, round_nearest))
    _, man, exp, _ = view._mpf_
    exact_view = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    unit = 10 ** (len(str(int(value))) - 1 - digits)
    assume(int(exact_view) // unit == int(value) // unit)
    assert _sci(value, digits) == mp.nstr(view, digits)


def test_exact_values_beyond_the_digits_str_prints():
    # floor(v) is cut to its leading digits by division: str() refuses an int of
    # more than 4300 digits, and this one has 5000
    value = Fraction(123456789012345678 * 10**4982 + 5, 1)
    assert _sci(value, 17) == "1.2345678901234568e+4999"
    assert _sci(value, 6) == "1.23457e+4999"
    assert _sci(Fraction(10**5000 - 1, 3), 6) == "3.33333e+4999"
    assert _sci(Fraction(10**5000 - 1, 1), 17) == "1.0e+5000"   # the carry into E + 1
    # a decimal tie rounds up, as nstr's rule does on the exact value
    assert _sci(Fraction(1234565 * 10**400), 6) == "1.23457e+406"


def test_solve_output_bytes(capsys, monkeypatch):
    monkeypatch.delenv("CUBICTHUE_PRECISION_BITS", raising=False)
    triples, sha256 = SOLVE_PINS
    out = ""
    for triple in triples:
        code, text, _ = run(capsys, ["--format", "csv", "solve", *triple.split(),
                                     "--ybound", "100000"])
        assert code == 0
        out += text
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("command", list(OUTPUT_PINS))
def test_subcommand_output_bytes(capsys, command, fmt):
    exit_code, sha256 = OUTPUT_PINS[command]
    code, out, _ = run(capsys, ["--format", fmt, *command.split()])
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256[fmt]


def test_python_dash_m_runs_the_command_line():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "cubicthue", "--format", "csv", "form", "5", "1", "1"],
                          capture_output=True, env=env, timeout=60)
    exit_code, sha256 = OUTPUT_PINS["form 5 1 1"]
    assert proc.returncode == exit_code
    assert hashlib.sha256(proc.stdout).hexdigest() == sha256["csv"]


def test_package_namespace_is_its_modules():
    # the API is the modules; import cubicthue loads the library, not the command line
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = ("import json, sys, cubicthue\n"
             "print(json.dumps([sorted(m for m in sys.modules if m.startswith('cubicthue')),\n"
             "                  sorted(k for k in vars(cubicthue) if not k.startswith('__')),\n"
             "                  cubicthue.__version__]))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    loaded, names, version = json.loads(proc.stdout)
    modules = ["asymptotics", "bounds", "errors", "exact_field", "forms", "proof", "roots",
               "solver"]
    assert loaded == ["cubicthue"] + [f"cubicthue.{m}" for m in modules]
    assert names == modules
    assert version == "0.1.0"


def test_command_line_loads_no_process_pool():
    # only a scan with --jobs > 1 imports the process pool, and with it multiprocessing
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = ("import json, sys, cubicthue.cli\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.startswith(('concurrent.futures.process',\n"
             "                                         'multiprocessing')))))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert json.loads(proc.stdout) == []


# the modules that decide a verdict; asymptotics (predictors, fits, lemma harnesses)
# and cli import them, never the other way round
TRUSTED_CORE = ["exact_field", "forms", "roots", "proof", "solver", "bounds"]
PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "cubicthue")


def imports_of(modules, banned):
    """The "name.py:line" of each import in the package's modules that names a
    banned module or name; parsed, not imported: __init__ imports every module,
    so sys.modules shows nothing."""
    found = []
    for name in modules:
        path = os.path.join(PACKAGE, name + ".py")
        if not os.path.exists(path):
            found.append(f"{name}.py is missing")
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                parts = [p for a in node.names for p in a.name.split(".")]
            else:
                continue
            found += [f"{name}.py:{node.lineno}" for p in parts if p in banned]
    return found


def test_trusted_core_imports_neither_the_harness_nor_the_command_line():
    assert imports_of(TRUSTED_CORE + ["errors"], ("asymptotics", "cli")) == []


def test_integer_core_imports_nothing_from_mpmath():
    # every module computes in integers, the harnesses too, and cli prints their
    # values from integers: mpmath is the tests' oracle, not a dependency
    every = sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert set(TRUSTED_CORE) | {"asymptotics", "cli"} <= set(every)
    assert imports_of(every, ("mpmath",)) == []
    src = os.path.dirname(PACKAGE)
    probe = "import sys, cubicthue, cubicthue.cli\nprint('mpmath' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert proc.stdout == b"False\n"


def private_reads():
    """The "name.py:line attr" of each underscore name a module of the package takes
    from a sibling: by `from .m import _x`, or as `m._x` on a sibling module m it
    imported.  Parsed, not imported; dunder names are exempt."""
    def private(attr):
        return attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__"))

    found = []
    for name in sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        siblings = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").split(".")[0] == "cubicthue"):
                continue
            if node.module in (None, "cubicthue"):   # from . import m [as alias]
                siblings |= {a.asname or a.name for a in node.names}
            else:
                found += [f"{name}.py:{node.lineno} {a.name}" for a in node.names
                          if private(a.name)]
        found += [f"{name}.py:{node.lineno} {node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and private(node.attr)]
    return found


def test_no_module_reads_an_underscore_name_of_another():
    # the modules meet at public names only: the trusted core has a stated interface,
    # which the lemma harnesses and the command line read as any caller would
    assert private_reads() == []


def makers_of(exception):
    """(module, function, line, first) of each place in the package that makes or
    raises exception, first the literal value of the call's first argument (else
    None).  Parsed, so a helper that builds the exception for its caller counts."""
    def named(expr):
        return getattr(expr, "id", getattr(expr, "attr", None)) == exception

    def first(call):
        arg = call.args[0] if call.args else None
        return arg.value if isinstance(arg, ast.Constant) else None

    def makers(node, owner, found):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and named(node.func):
            found.append((owner, node.lineno, first(node)))
        elif isinstance(node, ast.Raise) and named(node.exc):
            found.append((owner, node.lineno, None))
        for child in ast.iter_child_nodes(node):
            makers(child, owner, found)
        return found

    found = []
    for name in sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [(name, *made) for made in makers(tree, None, [])]
    return found


def test_only_the_retry_loop_and_the_root_certificate_raise_precision_exhausted():
    # every open interval retries through roots.escalate: no other function makes or
    # raises a PrecisionExhausted, so none ends a decision at exit 3 before the last
    # doubling
    found = makers_of("PrecisionExhausted")
    assert {(name, owner) for name, owner, *_ in found} == {("roots", "escalate"),
                                                           ("roots", "_certify_root")}, found


def test_only_the_0_0_guard_and_the_branch_table_raise_degenerate_twist():
    # every cell but (0, 0) takes the one path of the solver and the proof quantities,
    # once-twisted cells too; s*t != 0 is the domain of the 12-branch table alone
    found = makers_of("DegenerateTwist")
    assert {(name, owner) for name, owner, *_ in found} == {("forms", "check_twist"),
                                                           ("asymptotics", "predict_logdiff")}, found


def test_the_chain_names_only_the_three_failures_a_cell_can_have():
    # u_bar > 0 and 0 < v_bar < R hold for every cell's proof quantities (proof.py):
    # the chain tests the absorption and the slack, and the cell's path refuses n = 0
    found = makers_of("ChainPreconditionFailed")
    assert sorted((name, owner, first) for name, owner, _, first in found) == [
        ("bounds", "_chain", "R - v_bar > (3/4) log(n)/n"),
        ("bounds", "_chain", "w_bar absorption"),
        ("bounds", "_decided", "n >= 1"),
    ], found


@pytest.mark.parametrize("argv, got", [(["logdiff", "--n", "1:1e6:log10"], 4),
                                       (["lapprox", "--n", "1e100"], 1),
                                       (["regulator", "--n", "1e2:1e4:log10"], 3)])
def test_a_series_too_short_to_fit_is_refused_before_any_root_work(capsys, monkeypatch,
                                                                   argv, got):
    # the fit's sample conditions are checked on the grid (on each pair's entering n
    # for logdiff, whose pairs with max(|s|, |t|) = 4 enter at n >= 256) first
    from cubicthue import roots

    def refuse(*args, **kwargs):
        raise AssertionError("root work started")

    for fn in (roots.compute_roots, roots.compute_alphas):
        patch_everywhere(monkeypatch, fn, refuse)
    code, out, err = run(capsys, ["lemma", *argv])
    assert (code, out, err) == (2, "", f"error: need >= 5 samples, got {got}\n")


@pytest.mark.parametrize("name", ["lapprox", "lpowers", "regulator", "ubar"])
def test_lemma_smax_on_a_lemma_without_a_box_exits_two(capsys, monkeypatch, name):
    from cubicthue import cli

    def never(**kwargs):
        raise AssertionError("the lemma ran")

    monkeypatch.setitem(cli.LEMMA_RUNNERS, name, never)
    code, out, err = run(capsys, ["lemma", name, "--smax", "3"])
    assert code == 2 and out == ""
    assert f"lemma {name} takes no --smax" in err
