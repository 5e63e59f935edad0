from __future__ import annotations

import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
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


def test_unknown_theorem_exit_two():
    code, _, _ = _run(["verify", "no_such", "--f", "x", "--a", "0", "--b", "1"])
    assert code == 2


def test_domain_error_exit_two():
    code, _, err = _run(["verify", "gill_r", "--f", "x - 5", "--a", "0",
                         "--b", "1", "--r", "1"])
    assert code == 2
    assert "positive" in err


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
], ids=["nan_r", "negative_tol", "infinite_interval", "check_nan_r",
        "scan_negative_tol", "scan_zero_alpha", "check_inf_tol",
        "integrate_inf_tol"])
def test_bad_numeric_input_exit_two_promptly(argv):
    start = time.perf_counter()
    code, out, err = _run(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "error" in err


def test_error_after_output_leaves_stdout_empty(monkeypatch):
    def half_done(args, out):
        print("partial", file=out)
        raise ValueError("late failure")

    monkeypatch.setitem(cli._HANDLERS, "means", half_done)
    code, out, err = _run(["means", "--kind", "power", "--x", "1", "--y", "2",
                           "--r", "1"])
    assert code == 2
    assert out == ""
    assert "late failure" in err


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
                                 {"trials": None}, [1, 2], {"max_attempts": 0}])
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
