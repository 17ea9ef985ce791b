"""Command-line surface: output shapes, config handling, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import umbralog
from umbralog.cli import TN_MAX_DEPTH, main
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


def test_calls_share_no_state(tmp_path, capsys):
    """A config file or flag in one call leaves the next call's defaults alone."""
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"f": "id", "order": 4}))
    code, out = run_cli(capsys, "--config", str(conf), "pseq")
    assert out.strip().splitlines()[-1] == "p_4(a) = a^4"
    code, out = run_cli(capsys, "pseq", "--f", "id", "--order", "5")
    assert out.strip().splitlines()[-1] == "p_5(a) = a^5"
    code, out = run_cli(capsys, "pseq")  # exp1 at order 12
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 13 and lines[2] == "p_2(a) = a^2 - a"
    errors = []
    for _ in range(2):
        assert main(["pseq", "--order", "-3"]) == 2
        assert capsys.readouterr().err == "error: --order must be >= 0, got -3\n"
        with pytest.raises(SystemExit) as exc:
            main(["pseq", "--order", "x"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].endswith("umbralog pseq: error: argument --order: invalid int value: 'x'\n")


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
        assert section["target_floor"]


def test_limits_text_prints_extrapolation(capsys):
    code, out = run_cli(capsys, "limits", "--f", "exp1", "--order", "18",
                        "--alpha", "2", "--n-max", "16")
    assert code == 0
    assert out.count("extrapolated = ") == 3
    assert out.count("target floor = ") == 3


def test_report_round_trip():
    rep = Report("demo", [CheckRecord("a", "pass", True, {"k": "1/2"})], 0.25)
    assert Report.from_dict(json.loads(json.dumps(rep.to_dict()))) == rep


def test_report_times_each_check():
    rep = Report("demo")
    rep.record("a", True)
    rep.info("b", k="1/2")
    assert [c.seconds >= 0 for c in rep.checks] == [True, True]
    assert rep.seconds == sum(c.seconds for c in rep.checks)
    back = Report.from_dict(json.loads(json.dumps(rep.to_dict())))
    assert back == rep
    assert [c.seconds for c in back.checks] == [c.seconds for c in rep.checks]


def test_limits_json_is_strict_when_errors_vanish(capsys):
    # every error of f = x is zero, so no error ratio exists
    code, out = run_cli(capsys, "limits", "--f", "id", "--order", "18",
                        "--n-max", "16", "--json")
    assert code == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads(out, parse_constant=reject)
    assert data["conclusion"]["ratios"] == [None, None]


def test_verify_limits_json_shows_the_convergence_evidence(capsys):
    code, out = run_cli(capsys, "verify", "limits", "--json")
    assert code == 0
    checks = json.loads(out)["reports"][0]["checks"]
    assert all(
        {"ratios", "extrapolated", "target_floor"} <= set(c["details"]) for c in checks
    )
    # the same evidence `limits` reports for exp1 at the suite's settings
    code, out = run_cli(
        capsys, "limits", "--f", "exp1", "--n-max", "64", "--order", "66", "--json"
    )
    assert code == 0
    table = json.loads(out)
    for check, which in zip(checks, ("conclusion", "first", "second")):
        assert check["details"]["ratios"] == table[which]["ratios"]
        assert check["details"]["extrapolated"] == table[which]["extrapolated"]
        assert check["details"]["target_floor"] == table[which]["target_floor"]
    assert checks[3]["details"]["ratios"] == [None, None]


def test_verify_conjugation_at_small_depth(capsys):
    code, out = run_cli(capsys, "verify", "conjugation", "--depth", "1")
    assert code == 0, out


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


def run_module(*argv):
    """``python -m umbralog`` with argv, on the package this process imports."""
    src = str(Path(umbralog.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "umbralog", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_python_dash_m_runs_the_cli():
    proc = run_module("verify", "series", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["exact_ok"] is True


def test_python_dash_m_rejects_an_unknown_preset_in_one_line():
    proc = run_module("omega", "--f", "nope", "--order", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_a_closed_output_pipe_exits_141_in_silence():
    # the JSON runs past a pipe's buffer, so the write meets the closed end
    src = str(Path(umbralog.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "umbralog", "pseq", "--f", "nu", "--order", "60", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.read(10) == b'{\n  "f": "'
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert stderr == b""


def test_an_unwritable_out_path_is_bad_input(tmp_path):
    proc = run_module("pseq", "--f", "id", "--order", "2", "--out", str(tmp_path / "no" / "x.json"))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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


def test_limits_negative_alpha_rejected(capsys):
    code = main(["limits", "--alpha", "-2", "--n-max", "8", "--order", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: the second limit takes ln(alpha*n), which needs alpha > 0, not -2\n"
    )


def test_pseq_zero_denominator_rejected(capsys):
    code = main(["pseq", "--f", "poly:1,1/0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("poly:1,", "empty coefficient in family spec 'poly:1,'"),
        ("poly:1,,2", "empty coefficient in family spec 'poly:1,,2'"),
        ("poly:1,x", "coefficient 'x' in family spec 'poly:1,x' is not a rational"),
    ],
)
def test_bad_spec_coefficient_names_the_spec(capsys, spec, message):
    code = main(["pseq", "--f", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_output_past_the_digit_limit_is_one_line(capsys):
    # f's coefficients fit, but omega's outgrow what str() may convert
    code = main(["omega", "--f", f"poly:1,{'7' * 400}/3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: an output coefficient has more than {sys.get_int_max_str_digits()} "
        "digits, more than can be printed\n"
    )


def test_spec_longer_than_the_order_is_one_line(capsys):
    code = main(["omega", "--f", "poly:" + ",".join(["1"] + ["1/2"] * 299)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: more coefficients than the requested order 13\n"


def test_limits_alpha_not_a_rational(capsys):
    code = main(["limits", "--alpha", "x/2", "--n-max", "8", "--order", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: 'x/2' is not a rational\n"


@pytest.mark.parametrize("spec", ["geom", "nu"])
def test_limits_alpha_outside_omegas_disc_names_alpha(capsys, spec):
    code = main(["limits", "--f", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: p_8(8*alpha) is not positive at alpha = 2, so its log is undefined: "
        "1/alpha = 1/2 lies outside omega's disc of convergence for this family; "
        "try a larger alpha (--alpha)\n"
    )


def test_limits_alpha_past_the_report_precision_is_one_line(capsys):
    # the first limit's samples grow like alpha; from about 1e50 they have
    # more integer digits than the 80-digit report holds at 30 places
    code = main(["limits", "--alpha", "1e60", "--n-max", "8", "--order", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: the first limit at alpha = {10**60} has a value of 10^50 or more, "
        "past what 80 digits hold at 30 decimal places; try a smaller alpha\n"
    )


def test_input_past_the_digit_limit_is_too_long_not_malformed(capsys):
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 1)
    too_long = f"is too long to convert: an integer in it has more than {limit} digits"
    cases = [
        (["omega", "--f", f"poly:1,{digits}/3"],
         f"coefficient '{'7' * 16}...{'7' * 14}/3' ({limit + 3} characters) in "
         f"family spec 'poly:1,{'7' * 9}...{'7' * 14}/3' ({limit + 10} characters)"),
        (["limits", "--alpha", digits, "--n-max", "8", "--order", "10"],
         f"'{'7' * 16}...{'7' * 16}' ({limit + 1} characters)"),
    ]
    for argv, what in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what} {too_long}\n"
    assert sys.get_int_max_str_digits() == limit


def test_limits_zero_denominator_rejected(capsys):
    code = main(["limits", "--alpha", "1/0", "--n-max", "8", "--order", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"


def test_tn_rejects_depth_above_the_cap(capsys):
    code = main(["tn", "--f", "exp1", "--depth", "40"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: tn lists 3^(n-1) words per grade; --depth must be at most "
        f"{TN_MAX_DEPTH}, got 40\n"
    )


def test_tn_help_states_the_depth_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tn", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"--depth is at most {TN_MAX_DEPTH}" in out
