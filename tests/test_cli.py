"""Command-line surface: output shapes, config handling, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import umbralog
from umbralog.cli import main
from umbralog.report import CheckRecord, Report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pseq_rows(capsys):
    code, out = run_cli(capsys, "pseq", "--f", "id", "--order", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p_0(a) = 1"
    assert lines[5] == "p_5(a) = a^5"


def test_pseq_json(capsys):
    code, out = run_cli(capsys, "pseq", "--f", "exp1", "--order", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["polys"][2] == ["0/1", "-1/1", "1/1"]  # a^2 - a


def test_tn_matches_displayed_operators(capsys):
    code, out = run_cli(capsys, "tn", "--f", "exp1", "--depth", "2", "--json")
    assert code == 0
    data = json.loads(out)
    t1 = data["operators"][1]["words"]
    assert t1 == [{"word": ["sigma", "D", "D"], "coefficient": "1/2"}]
    t2 = {tuple(w["word"]): w["coefficient"] for w in data["operators"][2]["words"]}
    assert t2 == {
        ("sigma", "D", "D", "sigma", "D", "D"): "1/4",
        ("sigma", "D", "sigma", "D", "D", "D"): "-1/6",
        ("sigma", "sigma", "D", "D", "D", "D"): "1/24",
    }


def test_omega_poly_spec(capsys):
    code, out = run_cli(capsys, "omega", "--f", "poly:1,1", "--order", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["omega"]["coeffs"][1] == "1/1"


def test_bad_family_spec_fails(capsys):
    code = main(["omega", "--f", "nope", "--order", "6"])
    assert code == 2


def test_config_file_merging(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"f": "id", "order": 4}))
    code, out = run_cli(capsys, "--config", str(conf), "pseq")
    assert code == 0
    assert out.strip().splitlines()[-1] == "p_4(a) = a^4"
    # explicit flags win over the config file
    code, out = run_cli(capsys, "--config", str(conf), "pseq", "--order", "2")
    assert out.strip().splitlines()[-1] == "p_2(a) = a^2"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["pseq", "--f", "id", "--order", "2", "--json", "--out", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["polys"][1] == ["0/1", "1/1"]


def test_limits_json_carries_extrapolation(capsys):
    code, out = run_cli(capsys, "limits", "--f", "exp1", "--order", "18",
                        "--alpha", "2", "--n-max", "16", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data) == ["conclusion", "first", "second"]
    for section in data.values():
        assert section["extrapolated"]


def test_limits_text_prints_extrapolation(capsys):
    code, out = run_cli(capsys, "limits", "--f", "exp1", "--order", "18",
                        "--alpha", "2", "--n-max", "16")
    assert code == 0
    assert out.count("extrapolated = ") == 3


def test_report_round_trip():
    rep = Report("demo", [CheckRecord("a", "pass", True, {"k": "1/2"})], 0.25)
    assert Report.from_json(rep.to_json()) == rep


def test_verify_series_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "series")
    assert code == 0
    assert "exact checks: all passed" in out


def test_verify_reports_failures_with_nonzero_exit(capsys, monkeypatch):
    from umbralog import verify as verify_mod

    def broken_suite(order=1, depth=1):
        rep = Report("broken")
        rep.record("always fails", False, detail="intentional")
        return rep

    monkeypatch.setitem(verify_mod.SUITES, "series", broken_suite)
    code, out = run_cli(capsys, "verify", "series")
    assert code == 1
    assert "FAIL" in out


def test_console_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(umbralog.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "umbralog.cli", "pseq", "--f", "id", "--order", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "p_2(a) = a^2" in proc.stdout


def test_verify_accepts_small_order_and_depth_flags(capsys):
    # the documented invocation shape: flags may sit below the grids'
    # feasibility floors, which the suites clamp rather than crash on
    code, out = run_cli(capsys, "verify", "umbral", "--order", "10", "--depth", "6")
    assert code == 0
    assert "exact checks: all passed" in out


def test_config_value_of_wrong_type_rejected(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"order": "7"}))
    code = main(["--config", str(conf), "pseq"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "'order'" in captured.err


def test_negative_order_and_depth_rejected(capsys):
    for flag in ("--order", "--depth"):
        code = main(["pseq", flag, "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 0, got -3\n"


def test_limits_zero_alpha_rejected(capsys):
    code = main(["limits", "--alpha", "0", "--n-max", "8", "--order", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: alpha = 0 has no evaluation point 1/alpha\n"


def test_pseq_zero_denominator_rejected(capsys):
    code = main(["pseq", "--f", "poly:1,1/0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"


def test_limits_zero_denominator_rejected(capsys):
    code = main(["limits", "--alpha", "1/0", "--n-max", "8", "--order", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"
