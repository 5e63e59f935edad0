from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import hhcert
from hhcert import cli
from hhcert.cli import build_parser, run
from hhcert.search import StressConfig, stress, summary_json


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ------------------------- documented examples -------------------------


def test_verify_equal_pair_json():
    code, out, err = _run(["verify", "t2", "--f", "x^2", "--g", "x^2",
                           "--a", "0", "--b", "1", "--alpha", "1",
                           "--m", "1", "--json"])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert list(payload.keys()) == ["theorem_id", "params", "lhs", "rhs",
                                    "slack", "tol", "holds", "quad_error",
                                    "hypothesis"]
    assert abs(payload["slack"]) <= 1e-8
    assert payload["holds"] is True


def test_means_log_mean_example():
    code, out, err = _run(["means", "--kind", "logmean", "--x", "2.718281828",
                           "--y", "1", "--r", "0"])
    assert code == 0
    assert out.strip().startswith("1.7182818")


def test_check_convexity_violation_example():
    code, out, err = _run(["check-convexity", "--f", "x", "--a", "0",
                           "--b", "1", "--alpha", "0.5", "--m", "1"])
    assert code == 1
    assert "VIOLATION" in out
    assert "x=0 y=1 t=0.25" in out
    assert "gap=0.25" in out


# ------------------------- golden stability -------------------------


def test_repeated_json_runs_byte_identical():
    argv = ["verify", "gill_r", "--f", "exp(x) + x^2", "--a", "0.25",
            "--b", "1.75", "--r", "0.5", "--json"]
    assert _run(argv) == _run(argv)


def test_stress_seeded_byte_identical():
    argv = ["stress", "--seed", "11", "--trials", "4", "--json"]
    code1, out1, _ = _run(argv)
    code2, out2, _ = _run(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["trials"] == 4


# Every subcommand in text and JSON form with passing, violating and
# exit-2 inputs.  The digest covers the exit code and stdout of each call,
# and stderr where the call exits 0 or 1, so the output bytes are pinned
# across versions; "G9" stands for a 9x9 certification grid.
_GOLDEN_CALLS = [
    ('means --kind power --x 2 --y 4 --lambda 0.5 --r -1',
     "df52f7197cf4c2908d89e8046f7b74a66ffca1466cfa02a67d9924fa7b61f278"),
    ('means --kind power --x 2 --y 4 --lambda 0.25 --r 2 --json',
     "e136630feb033b622f90a447869b9bbeab53362f93835387d9eaec62614896fb"),
    ('means --kind logmean --x 2.718281828 --y 1 --r 0',
     "112246e0e2ae01cc314ceacbc5fac44ca224e98ee0017ad2f741f2f9b5ef5884"),
    ('means --kind logmean --x 1 --y 2 --r 2 --json',
     "c3c3e0e2f93c25a0ad186fc26307df07d47a2a49a1e9aaf789bbb0a614cf9055"),
    ('means --kind logmean --x 1 --y 3 --r -1 --json',
     "8d9a9e9d024b8702525b9cae5d15a81c032233483b2d8fca7cf44f09f2725e22"),
    ('means --kind power --x -1 --y 2 --r 1',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('means --kind logmean --x 0 --y 1 --r 0 --json',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('integrate --f "exp(x) + x^2" --a 0 --b 1',
     "9d66741dc3e6592d12389cc7f7160ae1a9c4c90c93b721ba9a891862411c27c9"),
    ('integrate --f "sqrt(x)" --a 0 --b 1 --json',
     "82e0ef92995eda26244bc40d279c227ab2736d8a3f1e4ee4be0b3e23393e5c31"),
    ('integrate --f "x" --a 0 --b 1 --tol 1e-6 --json',
     "b0a2baefbe34ded9d9078c2592dcbda2d22c68afd9ca5e79730b6104099d4d5c"),
    ('integrate --f "x +" --a 0 --b 1',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('integrate --f "x" --a 1 --b 0 --json',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('check-convexity --f "x^2" --a 0 --b 1 --alpha 1 --m 1 G9',
     "45841802d9cdcebace8c751623025520f1bb068f77a33d1596a227ca9ed0716c"),
    ('check-convexity --f "x" --a 0 --b 1 --alpha 0.5 --m 1 G9',
     "1c6d0ff87116a16d0f586226de626387fa651ffcfebf561d5eb6307fe9d16a6b"),
    ('check-convexity --f "x" --a 0 --b 1 --alpha 0.5 --m 1 G9 --json',
     "67bda0a488253ea64409f6a92b3b08a5c79dafcf72d005942451505d82080164"),
    ('check-convexity --f "exp(x)" --a 0 --b 1 --r 0 G9 --json',
     "513d760c72c77df047de69c3bccde80e027511a50bce47fce07dbe0f1fb79f22"),
    ('check-convexity --f "2 - x^2" --a 0 --b 1 --r 1 G9',
     "38b607d8d34ee9bc9142aa7f5db9c4f5365587c59e831b215a6cddd4cb5cbe39"),
    ('check-convexity --f "x^2" --a 0 --b 1 --alpha 1 G9',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('check-convexity --f "x^2" --a 0 --b 1 --alpha 1 --m 1 --r 1 --json',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('check-dominance --f "x^2" --g "2*x^2" --a 0 --b 1 --alpha 1 --m 1 G9',
     "a0ba9ab766753ba7ebeadd89bbe90103dc3c5260d33d8e17a008fa33df5d239e"),
    ('check-dominance --f "x^2" --g "2*x^2" --a 0 --b 1 --alpha 1 --m 1 G9 --json',
     "513d760c72c77df047de69c3bccde80e027511a50bce47fce07dbe0f1fb79f22"),
    ('check-dominance --f "x^2" --g "0.5*x^2" --a 0 --b 1 --alpha 1 --m 1 G9',
     "17029dcca7ef3848fb48ef1749b92b20351b9deefc097a1f93713020f7f4cd4b"),
    ('check-dominance --f "x^2" --g "0.5*x^2" --a 0 --b 1 --alpha 0.5 --m 0.5 G9 --json',
     "815e31bc8f8c307031e63733b49642ef545235ff262e385b26af0b7dd2b3ba93"),
    ('check-dominance --f "x^2" --g "0*x" --a 0 --b 1 --alpha 1 --m 1 --tol inf --json',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('verify t2 --f "x^2" --g "x^2" --a 0 --b 1 --alpha 1 --m 1 G9',
     "d44b4aac80e67cc5725d0ee1a729121a765caed6913377ed770e4a220f536923"),
    ('verify t2 --f "x^2" --g "x^2" --a 0 --b 1 --alpha 1 --m 1 G9 --json',
     "a1d6aa32ea1d11147211c6bc4ac3cb070b18d6cff2564c48aae5f9c5e640a568"),
    ('verify t2 --f "x^2" --g "0.1*x^2" --a 0 --b 1 --alpha 1 --m 1 G9',
     "a6f4a2408a305811c74b2987ed683ee1dd5ac8a4b68da025c754aa08bd0c4cdb"),
    ('verify t2 --f "x^2" --g "0.1*x^2" --a 0 --b 1 --alpha 1 --m 1 G9 --json',
     "e18debd353e280e36de5e4609d281599e0b868c924d08bd9318d1875c3594a10"),
    ('verify gill_r --f "exp(x) + x^2" --a 0.25 --b 1.75 --r 0.5 G9',
     "26e0e16dfcb07897712e5f36b0cb1db304770427985ee027be145cb5e50c5290"),
    ('verify gill_r --f "exp(x) + x^2" --a 0.25 --b 1.75 --r 0.5 G9 --json',
     "dee9979bb7f28fdb32c836cbcc793de96b12359a763344414ef31a896ed9cbce"),
    ('verify classic_hh_right --f "x^2 + exp(x)" --a 0 --b 2 --skip-hypotheses --json',
     "c7e3891c91e9e1e4a38c09711288bb29c15e5a15bf24c4241f186716ae09c30e"),
    ('verify dragomir_left --f "sqrt(2.5-x)" --a 0 --b 1 --m 0.5 --skip-hypotheses',
     "8580c012c29e8f303bada3b1e3b753284ef1b6b887d0218e9e28d4b05cba925c"),
    ('verify dragomir_left --f "sqrt(2.5-x)" --a 0 --b 1 --m 0.5 G9 --json',
     "aa44c46b4a81b38806b2b76fa9a1114ff55a5b07d78b3f8c1012440bd66d7d34"),
    ('verify t1_first --f "x^2" --g "0 - x^2" --a 0 --b 1 --alpha 1 --m 1 G9 --json',
     "602edcc7d2b6493b34eb88c61e7fdee9a26475b463dd6cb778bc328bee98731a"),
    ('verify t1_second --f "0.5*x^2" --g "1.5*x^2" --a 0 --b 1 --alpha 0.5 --m 0.75 G9',
     "f59bfafd6db81f1c1fb34a40904e03e417be5f6d35650c8e160791f14377856b"),
    ('verify t2 --f "x^2" --a 0 --b 1 --alpha 1 --m 1',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('verify gill_r --f "exp(x)" --a 0 --b 1 --r nan --skip-hypotheses --json',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('verify no_such --f "x" --a 0 --b 1',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('stress --trials 2 G9',
     "3167fd71079e96e1f505c64a153470f9321c7694825ab7dadb51968c572fc35b"),
    ('stress --seed 3 --trials 2 --alpha 0.5 --m 1 G9 --json',
     "0e6d8632d72829c8f625ab2b617629520c100b084a9656346de273fd5893fda0"),
    ('stress --seed 4 --trials 2 --r 1 G9 --json',
     "5f5bfbe69d396b436c5f46ccfd2c8b572ff36f90ad30d00ce4964dfdced9c3da"),
    ('stress --seed 5 --trials 2 --r 0 G9',
     "114cf2c94f051a9942987c3623ed8c0e8d70bbc868a65e92b388fa97d2254bf2"),
    ('stress --trials 2 --tol -1 --json',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
    ('scan --f "0.5*x^2" --g "1.5*x^2" --a 0 --b 1 --alpha-list 0.5,1 --m-list 0.5,1',
     "161b25c66e5d642a882e138b68c2c5109d5cdd1951c18704dfcf4edfc5601034"),
    ('scan --f "0.5*x^2" --g "1.5*x^2" --a 0 --b 1 --alpha-list 0.5,1 --m-list 0.5,1 --csv',
     "8a49523ee924e62705e925329eb167505775203fb968ad150d5d16e7c47dd966"),
    ('scan --f "x^2" --g "0.1*x^2" --a 0 --b 1 --alpha-list 1 --m-list 1',
     "e2c89f447cb5ef4b45c38a6280a65a4d310cc6feaddbb082016190260e8a38d9"),
    ('scan --f "0.5*x^2" --g "x^2" --a 0 --b 1 --alpha-list 0,1',
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
]


@pytest.mark.parametrize("cmd, digest", _GOLDEN_CALLS,
                         ids=[f"{cmd.split()[0]}-{i}"
                              for i, (cmd, _) in enumerate(_GOLDEN_CALLS)])
def test_cli_output_golden(cmd, digest):
    argv = shlex.split(cmd.replace(" G9", " --grid-xy 9 --grid-lambda 9"))
    code, out, err = _run(argv)
    text = f"{code}\n{out}" + (err if code in (0, 1) else "")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ------------------------- other subcommands -------------------------


def test_means_power():
    code, out, _ = _run(["means", "--kind", "power", "--x", "2", "--y", "4",
                         "--lambda", "0.5", "--r", "-1"])
    assert code == 0
    assert float(out) == pytest.approx(8.0 / 3.0, rel=1e-15)


def test_means_json_payload():
    code, out, _ = _run(["means", "--kind", "logmean", "--x", "1", "--y", "2",
                         "--r", "2", "--json"])
    payload = json.loads(out)
    assert payload["branch"] == "general"
    assert payload["value"] == pytest.approx(14.0 / 9.0, rel=1e-14)


def test_integrate_human_and_json():
    code, out, _ = _run(["integrate", "--f", "exp(x)", "--a", "0", "--b", "1"])
    assert code == 0
    assert "value = " in out
    code, out, _ = _run(["integrate", "--f", "exp(x)", "--a", "0", "--b", "1",
                         "--json"])
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(math.e - 1.0, abs=1e-12)
    assert payload["subdivisions"] >= 1


def test_check_dominance_pass_json():
    code, out, _ = _run(["check-dominance", "--f", "x^2", "--g", "2*x^2",
                         "--a", "0", "--b", "1", "--alpha", "1", "--m", "1",
                         "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["witness"] is None


def test_check_convexity_r_class():
    code, out, _ = _run(["check-convexity", "--f", "exp(x)", "--a", "0",
                         "--b", "1", "--r", "0"])
    assert code == 0
    assert "PASS" in out


def test_scan_csv_output():
    code, out, _ = _run(["scan", "--f", "0", "--g", "x^2", "--a", "0",
                         "--b", "1", "--alpha-list", "1", "--m-list", "1",
                         "--csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,m,theorem,slack,holds"
    assert len(lines) == 4
    t2_line = [ln for ln in lines if ",t2," in ln][0]
    assert float(t2_line.split(",")[3]) == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_verify_human_output_fields():
    code, out, _ = _run(["verify", "t1_first", "--f", "0.5*x^2", "--g",
                         "1.5*x^2", "--a", "0", "--b", "1", "--alpha", "1",
                         "--m", "1"])
    assert code == 0
    assert "slack = " in out
    assert "holds = true" in out
    assert "hypothesis:" in out


def test_verify_skip_hypotheses():
    code, out, _ = _run(["verify", "t2", "--f", "x^2", "--g", "x^2", "--a",
                         "0", "--b", "1", "--alpha", "1", "--m", "1",
                         "--skip-hypotheses", "--json"])
    payload = json.loads(out)
    statuses = {v["status"] for v in payload["hypothesis"].values()}
    assert statuses == {"skipped"}


def test_verify_violation_exits_one_with_report():
    code, out, _ = _run(["verify", "t2", "--f", "x^2", "--g", "0.1*x^2",
                         "--a", "0", "--b", "1", "--alpha", "1", "--m", "1",
                         "--json"])
    assert code == 1
    payload = json.loads(out)       # report still emitted
    assert payload["holds"] is False


# ------------------------- error paths -------------------------


def test_malformed_expression_exit_two():
    code, out, err = _run(["integrate", "--f", "x +", "--a", "0", "--b", "1"])
    assert code == 2
    assert out == ""
    assert "error" in err


def test_missing_g_exit_two():
    code, _, err = _run(["verify", "t2", "--f", "x^2", "--a", "0", "--b", "1",
                         "--alpha", "1", "--m", "1"])
    assert code == 2
    assert "needs --g" in err


def test_unknown_theorem_exit_two(capsys):
    code, out, err = _run(["verify", "no_such", "--f", "x", "--a", "0", "--b", "1"])
    assert code == 2
    assert out == ""
    assert "usage: hhcert verify" in err and "no_such" in err
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_given_stdout(capsys):
    code, out, err = _run(["--help"])
    assert code == 0
    assert out.startswith("usage: hhcert") and err == ""
    assert capsys.readouterr() == ("", "")


def test_domain_error_exit_two():
    code, _, err = _run(["verify", "gill_r", "--f", "x - 5", "--a", "0",
                         "--b", "1", "--r", "1"])
    assert code == 2
    assert "positive" in err


def test_r_dominance_of_nonpositive_f_exit_two():
    # f(0) = -0.5: r-dominance needs f > 0 whatever r is
    code, out, err = _run(["check-dominance", "--f", "x - 0.5", "--g", "x + 1",
                           "--a", "0", "--b", "1", "--r", "2",
                           "--grid-xy", "9", "--grid-lambda", "9"])
    assert (code, out) == (2, "")
    assert err.startswith("error: f must be strictly positive")


def test_overflowing_dominance_leaves_one_error_line():
    # both deviations overflow to inf: numpy stays silent, and the one line
    # on stderr names the overflow that leaves no finite witness to print
    f = "1.7e308*(2*x-1)^2 - 1.7e308*(1-(2*x-1)^2)"
    for fmt in ([], ["--json"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(["check-dominance", "--f", f, "--g", f, "--a", "0",
                                   "--b", "1", "--alpha", "1", "--m", "1", *fmt])
        assert (code, out, caught) == (2, "", [])
        assert err == "error: float64 overflow: cannot print non-finite float inf\n"


def test_overflowing_gap_of_finite_sides_exit_two():
    # the worst witness has finite lhs and rhs, but lhs - rhs overflows
    f = "1.5e308 - 1.5e308*(2*x-1)^2 - 1.5e308*(2*x-1)^2"
    code, out, err = _run(["check-convexity", "--f", f, "--a", "0", "--b", "1",
                           "--alpha", "1", "--m", "1"])
    assert (code, out) == (2, "")
    assert err == "error: float64 overflow: cannot print non-finite float inf\n"


def test_conflicting_class_flags_exit_two():
    code, _, err = _run(["check-convexity", "--f", "x^2", "--a", "0",
                         "--b", "1", "--alpha", "1", "--m", "1", "--r", "1"])
    assert code == 2


def test_missing_class_flags_exit_two():
    code, _, err = _run(["check-convexity", "--f", "x^2", "--a", "0",
                         "--b", "1", "--alpha", "1"])
    assert code == 2
    assert "--m" in err or "alpha" in err


def test_bad_interval_exit_two():
    code, _, _ = _run(["integrate", "--f", "x", "--a", "1", "--b", "0"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "gill_r", "--f", "exp(x)", "--a", "0", "--b", "1", "--r", "nan",
     "--skip-hypotheses"],
    ["verify", "t2", "--f", "x^2", "--g", "x^2", "--a", "0", "--b", "1",
     "--alpha", "1", "--m", "1", "--skip-hypotheses", "--tol", "-1"],
    ["integrate", "--f", "x", "--a", "0", "--b", "inf"],
    ["check-convexity", "--f", "exp(x)", "--a", "0", "--b", "1", "--r", "nan"],
    ["scan", "--f", "0.5*x^2", "--g", "x^2", "--a", "0", "--b", "1",
     "--alpha-list", "1", "--m-list", "1", "--tol", "-1"],
    ["scan", "--f", "0.5*x^2", "--g", "x^2", "--a", "0", "--b", "1",
     "--alpha-list", "0,1"],
    ["check-dominance", "--f", "x^2", "--g", "0*x", "--a", "0", "--b", "1",
     "--alpha", "1", "--m", "1", "--tol", "inf", "--json"],
    ["integrate", "--f", "x", "--a", "0", "--b", "1", "--tol", "inf"],
    # a 4.7 TiB cube, and trees deeper than the parser or evaluator recurses
    ["check-convexity", "--f", "x", "--a", "0", "--b", "1", "--alpha", "1",
     "--m", "1", "--grid-xy", "100000"],
    ["integrate", "--f", "(" * 300 + "x" + ")" * 300, "--a", "0", "--b", "1"],
    ["integrate", "--f", "+".join(["x"] * 1500), "--a", "0", "--b", "1"],
], ids=["nan_r", "negative_tol", "infinite_interval", "check_nan_r",
        "scan_negative_tol", "scan_zero_alpha", "check_inf_tol",
        "integrate_inf_tol", "huge_grid", "deep_nesting", "long_sum"])
def test_bad_numeric_input_exit_two_promptly(argv):
    start = time.perf_counter()
    code, out, err = _run(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "error" in err


def test_error_after_output_leaves_stdout_empty(monkeypatch):
    def fails_in_handler(args):
        raise ValueError("late failure")

    def fails_in_render(args):
        def text():
            yield "partial"
            raise ValueError("late failure")
        return 0, {"value": 1.0}, text

    for handler in (fails_in_handler, fails_in_render):
        monkeypatch.setitem(cli._HANDLERS, "means", handler)
        code, out, err = _run(["means", "--kind", "power", "--x", "1", "--y", "2",
                               "--r", "1"])
        assert code == 2
        assert out == ""
        assert "late failure" in err


def test_domain_error_names_the_subexpression():
    argv = ["verify", "t2", "--f", "sqrt(x-0.5)", "--g", "x^2", "--a", "0",
            "--b", "1", "--alpha", "1", "--m", "1"]
    code, out, err = _run(argv)
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: sqrt of negative value at x=\S+ in sqrt\(x - 0\.5\)\n",
                        err)


def test_stress_rejects_r_with_alpha_m():
    for flags in (["--alpha", "0.5", "--m", "0.5"], ["--m", "0.5"], ["--alpha", "1"]):
        code, out, err = _run(["stress", *flags, "--r", "1", "--trials", "2",
                               "--json"])
        assert code == 2
        assert out == ""
        assert "not both" in err


def test_means_log_mean_far_apart_arguments():
    # y/x = 1e20 makes (x - y)/y round to -1, where log1p has no value
    code, out, err = _run(["means", "--kind", "logmean", "--x", "1", "--y", "1e20",
                           "--r", "0"])
    assert code == 0
    assert float(out) == pytest.approx(2.1714724095162591e18, rel=1e-15)
    assert err == ""


def test_gill_r_large_order_prints_report():
    # the log mean of f(0) = 1, f(1) = 2 at r = -2000 overflows the direct form
    code, out, err = _run(["verify", "gill_r", "--f", "x+1", "--a", "0", "--b", "1",
                           "--r", "-2000", "--skip-hypotheses"])
    assert code in (0, 1)
    assert "theorem: gill_r" in out
    assert err == ""


def test_left_half_ignores_right_half_domain():
    # f(b/m^2) = sqrt(2.5 - 4) is undefined, but only the right half uses it
    code, out, err = _run(["verify", "dragomir_left", "--f", "sqrt(2.5-x)",
                           "--a", "0", "--b", "1", "--m", "0.5",
                           "--skip-hypotheses"])
    assert code == 1
    assert "theorem: dragomir_left" in out
    assert "holds = false" in out
    assert err == ""


# ------------------------- wiring -------------------------


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("means", "integrate", "check-convexity", "check-dominance",
                 "verify", "stress", "scan"):
        assert name in text


def test_module_entry_point():
    # the child imports the same hhcert as this test, installed or not
    src = str(Path(hhcert.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hhcert", "means", "--kind", "power",
         "--x", "2", "--y", "4", "--lambda", "0.5", "--r", "-1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(8.0 / 3.0, rel=1e-15)


def test_stress_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 9, "trials": 3, "intervals": [[0.0, 1.0]],
        "alpha_pool": [1.0], "m_pool": [1.0],
        "grid_xy": 9, "grid_lambda": 17,
    }))
    code, out, _ = _run(["stress", "--config", str(cfg), "--json"])
    assert code == 0
    assert json.loads(out)["trials"] == 3


@pytest.mark.parametrize("raw, config", [
    ({"trials": 2}, StressConfig(trials=2)),
    ({"trials": 5, "alpha_pool": [0.5], "m_pool": [0.5], "max_attempts": 1},
     StressConfig(trials=5, alpha_pool=(0.5,), m_pool=(0.5,), max_attempts=1)),
    # the ordinary convex, scaled-class and mean-order campaigns
    ({"seed": 1, "trials": 3, "alpha_pool": [1.0], "m_pool": [1.0]},
     StressConfig(seed=1, trials=3, alpha_pool=(1.0,), m_pool=(1.0,))),
    ({"seed": 2, "trials": 3, "alpha_pool": [0.5, 0.75, 1.0],
      "m_pool": [0.5, 0.75, 1.0]},
     StressConfig(seed=2, trials=3, alpha_pool=(0.5, 0.75, 1.0),
                  m_pool=(0.5, 0.75, 1.0))),
    ({"seed": 3, "trials": 3, "alpha_pool": [], "m_pool": [],
      "r_pool": [-1.0, 0.0, 1.0, 2.0]},
     StressConfig(seed=3, trials=3, alpha_pool=(), m_pool=(),
                  r_pool=(-1.0, 0.0, 1.0, 2.0))),
], ids=["defaults", "max_attempts", "ordinary_convex", "scaled_classes",
        "mean_orders"])
def test_stress_config_file_matches_api(tmp_path, raw, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code, out, _ = _run(["stress", "--config", str(cfg), "--json"])
    assert code == 0
    assert out == summary_json(stress(config)) + "\n"


@pytest.mark.parametrize("raw", [{"trials": 2, "trails": 3}, {"grid": 9},
                                 {"trials": None}, [1, 2], {"max_attempts": 0},
                                 {"trials": 2.7}, {"seed": 1.9}, {"trials": True},
                                 {"grid_xy": 9.9, "grid_lambda": 5},
                                 {"alpha_pool": "1", "m_pool": [1]},
                                 {"intervals": {"0": 1}}])
def test_stress_config_file_bad_content_exit_two(tmp_path, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code, out, err = _run(["stress", "--config", str(cfg), "--json"])
    assert code == 2
    assert out == ""
    assert "stress config" in err


def test_stress_config_file_missing_exit_two(tmp_path):
    code, _, err = _run(["stress", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error" in err


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("hhcert ")]


@pytest.mark.parametrize("argv", [argv for argv in _readme_commands()
                                  if "--config" not in argv],
                         ids=lambda argv: argv[0])
def test_readme_commands_run(argv):
    # calls that read a file are covered by the stress config tests
    code, out, err = _run(argv)
    assert code in (0, 1), err
    assert out
