"""Command-line interface: exit codes, artifacts, determinism."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hullcert
from hullcert import cases
from hullcert.cli import main
from hullcert.problem import save_problem


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _without_stamp(path):
    with open(path) as fh:
        return [ln for ln in fh if "_generated" not in ln]


# --------------------------------------------------------------------------
# exit-code contract


def test_certify_case2_exits_zero(tmp_path):
    out = tmp_path / "r"
    assert main(["certify", "--problem", "case2", "--out", str(out)]) == 0
    rep = _read(out / "certify.json")
    assert rep["result"]["method"] == "cpc_common"
    assert rep["certificate"]["method"] == "cpc_common"
    assert rep["problem_sha256"]


def test_certify_example1_is_inconclusive(tmp_path, capsys):
    assert main(["certify", "--problem", "example1"]) == 2
    cap = capsys.readouterr()
    assert "inconclusive" in cap.err
    # the report itself goes to stdout when --out is omitted
    rep = json.loads(cap.out)
    assert rep["result"]["certified"] is False


def test_oracle_example1_is_falsified(tmp_path):
    out = tmp_path / "r"
    assert main(["oracle", "--problem", "example1", "--grid", "61",
                 "--out", str(out)]) == 3
    rep = _read(out / "scan.json")
    assert rep["scan"]["violations"] == 19
    assert rep["scan"]["min_margin"] == pytest.approx(-0.12193859, abs=1e-6)


def test_oracle_case1_is_clean(tmp_path):
    out = tmp_path / "r"
    assert main(["oracle", "--problem", "case1", "--grid", "5",
                 "--out", str(out), "--format", "csv"]) == 0
    rep = _read(out / "scan.json")
    assert rep["scan"]["violations"] == 0
    assert (out / "scan.csv").exists()


def test_missing_problem_file_is_a_usage_error(capsys):
    assert main(["certify", "--problem", "no_such_file.json"]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_unknown_cascade_stage_is_a_usage_error(capsys):
    rc = main(["certify", "--problem", "case2", "--cascade",
               "endpoint,magic"])
    assert rc == 1
    assert "unknown cascade stages" in capsys.readouterr().err


def test_nonpositive_tolerance_is_a_usage_error(capsys):
    assert main(["certify", "--problem", "case2", "--tol-feas", "0"]) == 1
    assert "must be positive" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# artifacts


def test_certify_csv_lists_every_attempt(tmp_path):
    out = tmp_path / "r"
    assert main(["certify", "--problem", "example1", "--out", str(out),
                 "--format", "csv"]) == 2
    lines = (out / "certify.csv").read_text().strip().splitlines()
    assert lines[0].startswith("method,valid,margin")
    assert len(lines) == 1 + 4  # all four stages attempted and recorded


def test_reports_are_deterministic_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["oracle", "--problem", "case3", "--grid", "5",
                     "--out", str(out)]) == 0
    assert _without_stamp(a / "scan.json") == _without_stamp(b / "scan.json")


def test_explicit_case3_writes_controller(tmp_path):
    out = tmp_path / "r"
    assert main(["explicit", "--problem", "case3", "--out", str(out)]) == 0
    rep = _read(out / "explicit_report.json")
    assert rep["n_regions"] == 3
    saved = _read(out / "explicit.json")
    assert len(saved["regions"]) == 3


def test_explicit_on_quadratic_problem_is_inconclusive(capsys):
    assert main(["explicit", "--problem", "example1"]) == 2
    assert "synthesis failed" in capsys.readouterr().err


def test_simulate_case3_stays_safe(tmp_path):
    out = tmp_path / "r"
    assert main(["simulate", "--problem", "case3", "--out", str(out)]) == 0
    rep = _read(out / "simulate.json")
    assert rep["min_h"] >= -1e-6
    assert len(rep["trajectories"]) == 10
    assert all(t["completed"] for t in rep["trajectories"])
    assert (out / "traj_0.csv").exists() and (out / "traj_9.csv").exists()


def test_simulate_needs_dynamics(tmp_path, capsys):
    prob = cases.example1_problem()
    path = tmp_path / "p.json"
    save_problem(path, prob.stack, prob.hull, prob.input_set)
    assert main(["simulate", "--problem", str(path)]) == 1
    assert "simulate needs" in capsys.readouterr().err


def test_certify_accepts_problem_files(tmp_path):
    prob = cases.case3_problem()
    path = tmp_path / "case3.json"
    save_problem(path, prob.stack, prob.hull, prob.input_set,
                 u_des=prob.u_des, lti=prob.lti)
    out = tmp_path / "r"
    assert main(["certify", "--problem", str(path), "--out", str(out)]) == 0
    rep = _read(out / "certify.json")
    assert rep["result"]["method"] == "cpc_blend"


def test_demo_writes_a_study_bundle(tmp_path):
    out = tmp_path / "bundle"
    assert main(["demo", "example1", "--out", str(out)]) == 0
    names = set(os.listdir(out))
    assert {"problem.json", "report.json", "manifest.json",
            "scan.csv"} <= names
    rep = _read(out / "report.json")
    assert rep["falsified"] is True


def test_console_entry_point_runs():
    # the child imports the same hullcert as this process, installed or not
    src = os.path.dirname(os.path.dirname(hullcert.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hullcert.cli", "certify",
         "--problem", "case2"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "certified via cpc_common" in proc.stderr
    rep = json.loads(proc.stdout)
    assert np.allclose(rep["certificate"]["u"], 0.95, atol=1e-6)
