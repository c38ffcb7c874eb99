"""CLI behaviour: formats, exit codes, grids, determinism."""

import io
import json

import pytest

from cubicthue.cli import (
    MAX_GRID_POINTS, MAX_PRECISION_BITS, MAX_VALUE_DIGITS, main, parse_grid,
)


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
    from cubicthue import bounds, cli, forms, solver

    calls = []

    def counting(n, s, t):
        calls.append((n, s, t))
        return forms.build_form(n, s, t)

    for mod in (cli, solver, bounds):
        monkeypatch.setattr(mod, "build_form", counting)
    code, _, _ = run(capsys, ["--format", "csv", "scan", "--n", "20:21", "--smax", "1",
                              "--ybound", "100"])
    assert code == 0
    assert len(calls) == 8 == len(set(calls))


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
    real_solve, real_upper = solver._solve_form, bounds._upper_bound

    def solve(*args):
        calls["solve"] += 1
        return real_solve(*args)

    def upper(*args):
        calls["upper"] += 1
        return real_upper(*args)

    def no_records(*args):
        raise AssertionError("the scan built a solution record")

    monkeypatch.setattr(solver, "_solve_form", solve)
    monkeypatch.setattr(bounds, "_upper_bound", upper)
    monkeypatch.setattr(solver, "_make_record", no_records)
    monkeypatch.setattr(solver, "_betas", no_records)
    code, out, _ = run(capsys, ["--format", "csv", "scan", "--n", "100", "--smax", "3",
                                "--ybound", "1000"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 36
    assert len({(r[3], r[4]) for r in rows}) == 24
    assert calls == {"solve": 24, "upper": 24}


def test_grid_size_is_bounded_before_any_work(capsys):
    assert len(parse_grid(f"1:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
    for spec in (f"0:{MAX_GRID_POINTS}", f"0:{2 * MAX_GRID_POINTS - 1}:2"):
        with pytest.raises(ValueError, match="points"):
            parse_grid(spec)
    code, _, err = run(capsys, ["scan", "--n", "0:1000000000000"])
    assert code == 2
    assert "1000000000001 points" in err
    code, _, err = run(capsys, ["scan", "--n", "100", "--smax", "100000"])
    assert code == 2
    assert "40000000000 cells" in err
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


def test_lemma_box_is_bounded_before_any_work(capsys, monkeypatch):
    from cubicthue import asymptotics

    def no_box(smax):
        raise AssertionError("st_box was built")

    monkeypatch.setattr(asymptotics, "st_box", no_box)
    code, _, err = run(capsys, ["lemma", "vbar", "--smax", "100000"])
    assert code == 2
    assert "40000000000 cells" in err
    code, _, err = run(capsys, ["lemma", "logdiff", "--n", "1:1000", "--smax", "20"])
    assert code == 2
    assert "1600000 cells" in err


@pytest.mark.parametrize("name,n,least", [
    ("lpowers", 0, 1), ("errorbound", 0, 1), ("wbar", 0, 1), ("logdiff", 0, 1),
    ("regulator", 0, 2), ("regulator", 1, 2), ("vbar", 0, 2), ("vbar", 1, 2),
])
def test_lemma_at_tiny_n_names_the_least_n(capsys, name, n, least):
    code, _, err = run(capsys, ["lemma", name, "--n", str(n)])
    assert code == 2
    assert f"lemma {name} needs n >= {least}, got n = {n}" in err


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
        with pytest.raises(SystemExit) as exc:
            main(["--precision-bits", str(bits), "form", "5", "1", "0"])
        assert exc.value.code == 2
    assert f"[64, {MAX_PRECISION_BITS}]" in capsys.readouterr().err
    assert main(["--precision-bits", str(MAX_PRECISION_BITS), "form", "5", "1", "0"]) == 0
    for bits in ("1024", "2048"):
        code, out, _ = run(capsys, ["--precision-bits", bits, "bound", "100", "2", "1"])
        assert code == 0 and "crossover: no" in out


def test_scan_computes_the_bound_constants_once_per_n(capsys, monkeypatch):
    from cubicthue import bounds

    calls = []
    real = bounds._n_constants

    def counting(n, b_abs, precision_bits):
        calls.append(n)
        return real(n, b_abs, precision_bits)

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


def test_epsilon_validation():
    with pytest.raises(SystemExit) as exc:
        main(["--epsilon", "0.9", "form", "5", "1", "0"])
    assert exc.value.code == 2


def test_precision_exhausted_exit_three(capsys, monkeypatch):
    from cubicthue import cli
    from cubicthue.errors import PrecisionExhausted

    def boom(**kwargs):
        raise PrecisionExhausted("forced")

    monkeypatch.setitem(cli.LEMMA_RUNNERS, "regulator", boom)
    code = cli.main(["lemma", "regulator"])
    assert code == 3
    assert "precision exhausted" in capsys.readouterr().err
