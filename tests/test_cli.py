"""CLI behaviour: formats, exit codes, grids, determinism."""

import json

import pytest

from cubicthue.cli import main, parse_grid


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
    args = ["--format", "csv", "scan", "--n", "50:52", "--smax", "1",
            "--ybound", "200"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--output", str(p1), "--jobs", "1"] + args[0:2] + args[2:]) == 0
    assert main(["--output", str(p2), "--jobs", "2"] + args[0:2] + args[2:]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.startswith("n,s,t,A,B,solutions,nontrivial")


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
