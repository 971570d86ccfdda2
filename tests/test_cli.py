import json
import math
import subprocess
import sys

import pytest

from mevreg.cli import main

from oracles import child_env


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_mev_single_value(capsys):
    code, out = run_cli(["mev", "--params", "1/4,1/4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    re_part, im_part = payload["value"]
    assert abs(re_part) < 1e-12
    assert im_part == pytest.approx(0.3926990816987241, abs=1e-10)


def test_mev_multiple_words(capsys):
    code, out = run_cli(["mev", "--params", "1/4,1/4", "1/5,2/5;3/5,1/5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert payload[1]["params"] == [["1/5", "2/5"], ["3/5", "1/5"]]


def test_regulator_report(capsys):
    code, out = run_cli(
        ["regulator", "--a", "1/5,1/5", "--b", "2/5,3/5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residual_thm1"] < 1e-7
    assert payload["residual_thm2"] < 1e-7


def test_regulator_boundary_is_error(capsys):
    code, _ = run_cli(["regulator", "--a", "0/5,1/5", "--b", "2/5,3/5"], capsys)
    assert code == 2


def test_malformed_rational_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["regulator", "--a", "0.2,0.4", "--b", "2/5,3/5"])


def test_verify_bg_suite(capsys):
    code, out = run_cli(
        ["verify", "--suite", "bg", "--level", "5", "--tol", "1e-10"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]
    assert all(v["pass"] for v in payload["verdicts"])


def test_verify_all_exit_status_reflects_tolerance(capsys):
    # an absurdly tight tolerance must flip the exit status
    code_ok, _ = run_cli(["verify", "--suite", "rz", "--level", "5"], capsys)
    assert code_ok == 0
    code_bad, _ = run_cli(
        ["verify", "--suite", "rz", "--level", "5", "--tol", "1e-12"], capsys
    )
    # residuals are ~1e-16 here, so even 1e-12 passes
    assert code_bad == 0


def test_qdump_format(capsys):
    code, out = run_cli(
        ["qdump", "--family", "E", "--weight", "2", "--params", "1/5,2/5",
         "--cutoff", "4"],
        capsys,
    )
    assert code == 0
    assert out.endswith("\n")
    lines = out.splitlines()
    assert lines[0].startswith("# spec: ")
    assert len(lines) > 3
    prev = None
    for line in lines[1:]:
        num, den, m, re_s, im_s = line.split(",")
        key = (int(num) / int(den), int(m))
        float(re_s), float(im_s)
        if prev is not None:
            assert key >= prev
        prev = key


def test_byte_identical_reruns(capsys):
    _, out1 = run_cli(["regulator", "--a", "1/5,1/5", "--b", "2/5,3/5"], capsys)
    _, out2 = run_cli(["regulator", "--a", "1/5,1/5", "--b", "2/5,3/5"], capsys)
    assert out1 == out2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mevreg.cli", "mev", "--params", "1/4,1/4"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "0.392699" in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        # a negative cutoff used to give the value 0 with exit status 0
        ["mev", "--params", "1/5,2/5", "--cutoff", "-3"],
        # a truncation bound above the reporting ceiling raises ArithmeticError
        ["regulator", "--a", "1/5,2/5", "--b", "2/5,1/5", "--cutoff", "3"],
        # parameters off the 1/N grid used to dump the series of a grid point
        ["qdump", "--family", "GN", "--level", "5", "--params", "1/3,1/5"],
        # a missing --level or --params used to end in SystemExit with status 1
        ["qdump", "--family", "GN", "--params", "1/5,2/5"],
        ["qdump", "--family", "GN", "--level", "5"],
        ["qdump", "--family", "G"],
        # a second pair used to be ignored with exit status 0
        ["qdump", "--family", "G", "--params", "1/5,2/5", "1/3,1/3"],
        # a tolerance that is not finite and positive used to fail (nan, -1)
        # or pass (inf) every check
        ["verify", "--suite", "rz", "--level", "5", "--tol", "nan"],
        ["verify", "--suite", "rz", "--level", "5", "--tol", "-1"],
        ["verify", "--suite", "rz", "--level", "5", "--tol", "inf"],
        ["verify", "--suite", "rz", "--level", "5", "--tol", "0"],
        ["regulator", "--a", "1/5,2/5", "--b", "2/5,1/5", "--tol", "nan"],
        ["regulator", "--a", "1/5,2/5", "--b", "2/5,1/5", "--tol", "-1"],
        ["regulator", "--a", "1/5,2/5", "--b", "2/5,1/5", "--tol", "inf"],
        # a level below 2 used to run level 5 (0) or the 1/-5 grid (-5)
        ["verify", "--suite", "rz", "--level", "0"],
        ["verify", "--suite", "rz", "--level", "-5"],
        ["verify", "--suite", "rz", "--level", "1"],
        ["regulator", "--a", "1/5,2/5", "--b", "2/5,1/5", "--level", "-5"],
        ["qdump", "--family", "GN", "--level", "1", "--params", "0,0"],
        # flags the subcommand does not read used to be ignored with exit 0
        ["mev", "--params", "1/4,1/4", "--level", "7", "--tol", "5"],
        ["mev", "--params", "1/4,1/4", "--tol", "1e-3"],
        ["mev", "--params", "1/4,1/4", "--level", "7"],
        ["qdump", "--family", "E", "--params", "1/5,2/5", "--level", "5"],
        ["qdump", "--family", "E", "--params", "1/5,2/5", "--tol", "1e-3"],
        # malformed words used to end in a traceback (the first two) or in
        # "error: Fraction(1, 0)"
        ["mev", "--params", "abc"],
        ["mev", "--params", "0.25,1/4"],
        ["mev", "--params", "1/0,1/4"],
    ],
)
def test_bad_input_is_one_line_error(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        # a zero denominator used to end in a ZeroDivisionError traceback
        ["mev", "--params", "1/4,1/4", "--cutoff", "1/0"],
        ["regulator", "--a", "1/5,1/0", "--b", "2/5,3/5"],
        ["qdump", "--params", "1/0,1/3"],
    ],
)
def test_zero_denominator_is_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith("zero denominator in '1/0'")


def test_verify_suite_without_instances_fails(capsys):
    # at level 3 every thm1 pair has a zero coordinate, so nothing is checked
    code, out = run_cli(["verify", "--suite", "thm1", "--level", "3"], capsys)
    assert code == 1
    verdicts = json.loads(out)["verdicts"]
    assert len(verdicts) == 1
    assert verdicts[0]["suite"] == "thm1"
    assert "no admissible instance at level 3" in verdicts[0]["error"]


def test_bad_precision_is_one_line_error():
    # the variable used to be parsed while mevreg.specfun was imported
    proc = subprocess.run(
        [sys.executable, "-m", "mevreg.cli", "mev", "--params", "1/4,1/4"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(MEVREG_PRECISION="abc"),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: MEVREG_PRECISION")
