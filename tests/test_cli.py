"""Command-line interface: exit codes, artifacts, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hullcert
from hullcert import cases
from hullcert.cli import main
from hullcert.problem import (Hull, InputSet, build_from_lti, problem_to_dict,
                              save_problem)


def _read(path):
    with open(path) as fh:
        return json.load(fh)


REPORTS = Path(__file__).parent / "data" / "cli_reports"


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


@pytest.mark.parametrize("flag", ["--tol-feas", "--tol-active"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_tolerance_is_a_usage_error(capsys, flag, value):
    # a nan or infinite slack would let every "< -tol" check pass, so the
    # falsified example1 would come out certified
    assert main(["certify", "--problem", "example1", f"{flag}={value}"]) == 1
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command, problem", [("oracle", "case1"),
                                              ("explicit", "case3")])
@pytest.mark.parametrize("grid", ["1", "0", "-3"])
def test_grid_below_two_is_a_usage_error(capsys, command, problem, grid):
    assert main([command, "--problem", problem, "--grid", grid]) == 1
    err = capsys.readouterr().err
    assert "error: --grid must be at least 2" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("command,problem", [
    (c, p) for c in ("certify", "oracle", "explicit") for p in cases.CASE_NAMES
] + [("simulate", "case3")])
def test_reports_match_the_frozen_bytes(capsys, command, problem):
    # stdout, stderr and exit code of each default run, recorded once
    stem = f"{command}_{problem}"
    rc = main([command, "--problem", problem])
    cap = capsys.readouterr()
    assert rc == json.loads((REPORTS / "exit_codes.json").read_text())[stem]
    assert cap.out.encode() == (REPORTS / f"{stem}.stdout").read_bytes()
    assert cap.err.encode() == (REPORTS / f"{stem}.stderr").read_bytes()


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


def test_explicit_on_flat_hull_is_inconclusive(tmp_path, capsys):
    # three collinear vertices in R^2: qhull cannot build the hull facets
    cbfs = [([1.0, 0.0], 5.0, 1.0)]
    path = tmp_path / "flat.json"
    save_problem(path, build_from_lti(np.zeros((2, 2)), [[1.0], [0.0]], cbfs),
                 Hull([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
                 InputSet(box=(-np.ones(1), np.ones(1))),
                 lti={"A": np.zeros((2, 2)), "B": [[1.0], [0.0]],
                      "cbfs": cbfs})
    assert main(["explicit", "--problem", str(path)]) == 2
    assert "hull facets: qhull failed" in capsys.readouterr().err


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


def test_simulate_on_a_saved_lti_problem_matches_the_builtin(tmp_path):
    # the problem file that ``demo case3 --out`` writes
    prob = cases.case3_problem()
    path = tmp_path / "problem.json"
    save_problem(path, prob.stack, prob.hull, prob.input_set,
                 u_des=prob.u_des, lti=prob.lti)
    for spec, out in ((str(path), "file"), ("case3", "builtin")):
        assert main(["simulate", "--problem", spec,
                     "--out", str(tmp_path / out)]) == 0
    for i in range(10):
        name = f"traj_{i}.csv"
        assert ((tmp_path / "file" / name).read_bytes()
                == (tmp_path / "builtin" / name).read_bytes())


@pytest.mark.parametrize("command", ["certify", "oracle", "explicit", "simulate"])
def test_a_top_level_json_array_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "p.json"
    path.write_text("[1, 2]\n")
    assert main([command, "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load") and "JSON object" in err


@pytest.mark.parametrize("fields", [{"input_set": {"box": [[-1], [1]]}},
                                    {"psi": 5}],
                         ids=["box-as-list", "psi-as-number"])
@pytest.mark.parametrize("command", ["certify", "oracle", "explicit", "simulate"])
def test_a_field_of_the_wrong_type_is_an_input_error(tmp_path, capsys, command,
                                                     fields):
    prob = cases.example1_problem()
    data = problem_to_dict(prob.stack, prob.hull, prob.input_set)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**data, **fields}))
    assert main([command, "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load") and "wrong type" in err


@pytest.mark.parametrize("command", ["certify", "oracle", "explicit", "simulate"])
def test_a_zero_dimensional_state_is_an_input_error(tmp_path, capsys, command):
    # with n = 0 certify and oracle used to pass and explicit died in qhull
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "n": 0, "psi": [[{"d": 1.0}]], "delta": [{"d": 0.0}],
        "input_set": {"box": {"umin": [0.0], "umax": [1.0]}},
        "hull": {"vertices": [[]]}}))
    assert main([command, "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load") and "dimension" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["certify", "oracle"])
def test_a_stack_that_overflows_at_a_vertex_is_an_input_error(tmp_path, capsys,
                                                              command):
    # 1e308 x at x = 3 overflows, which the LP builder used to meet first,
    # raising ValueError out of main
    prob = cases.example1_problem()
    data = problem_to_dict(prob.stack, prob.hull, prob.input_set)
    data["psi"][0][0]["c"] = [1e308]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    assert main([command, "--problem", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load") and "not finite" in err
    assert "Traceback" not in err


def test_numerical_failure_is_inconclusive(tmp_path, capsys):
    # an input box of +-1e300: the oracle's margin LPs return points that
    # fail the drift guard, while the certify cascade reports no certificate
    prob = cases.example1_problem()
    huge = InputSet(box=(np.full(1, -1e300), np.full(1, 1e300)))
    path = tmp_path / "p.json"
    save_problem(path, prob.stack, prob.hull, huge)
    assert main(["oracle", "--problem", str(path)]) == 2
    assert capsys.readouterr().err == (
        "inconclusive: numerical failure: simplex returned an infeasible point\n")
    assert main(["certify", "--problem", str(path)]) == 2


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
