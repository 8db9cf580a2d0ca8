"""Sampling, dense margin scans, and witness replay."""
import csv
from pathlib import Path

import numpy as np
import pytest

from hullcert import DEFAULT, cases
from hullcert.certificates import (CommonCert, IntervalCert, cpc_common,
                                   cpc_interval)
from hullcert.oracle import (check_certificate, grid_scan, pointwise_margin,
                             replay_margins, sample_hull)
from hullcert.problem import Hull, InputSet, QuadFunc, StackedMap


# --------------------------------------------------------------------------
# sampling modes


def _weights_are_consistent(hull, X, lams):
    assert np.abs(lams @ hull.vertices - X).max() < 1e-12
    assert np.abs(lams.sum(axis=1) - 1.0).max() < 1e-12
    assert lams.min() >= -1e-15


def test_sample_box_hull_uses_axis_grid():
    hull = cases.case1_problem().hull
    X, lams, mode = sample_hull(hull)
    assert mode == "box"
    assert X.shape == (11 ** 3, 3)
    assert lams.shape == (11 ** 3, 8)
    # weights reproduce the grid within float error of the corner products
    assert np.abs(lams @ hull.vertices - X).max() < 1e-12
    assert np.abs(lams.sum(axis=1) - 1.0).max() < 1e-12
    assert lams.min() >= -1e-15
    # corners of the box appear with one-hot weights
    first = lams[0]
    assert first.max() == pytest.approx(1.0)
    assert np.count_nonzero(first > 1e-12) == 1


def test_sample_hexagon_uses_fan_simplices():
    hull = cases.case3_problem().hull
    X, lams, mode = sample_hull(hull)
    assert mode == "simplex"
    # four triangles fanned from vertex 0, 66 barycentric points each
    assert X.shape == (4 * 66, 2)
    _weights_are_consistent(hull, X, lams)
    assert hull.contains(X[17])


def test_sample_many_vertices_falls_back_to_dirichlet():
    ang = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
    hull = Hull(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    X, lams, mode = sample_hull(hull, n_random=500, seed=3)
    assert mode == "dirichlet"
    # the vertices themselves ride along after the random draws
    assert X.shape == (512, 2)
    _weights_are_consistent(hull, X, lams)
    assert np.allclose(X[-12:], hull.vertices)


def test_sample_single_vertex():
    hull = Hull(np.array([[2.0, -1.0]]))
    X, lams, mode = sample_hull(hull)
    assert mode == "vertex"
    assert np.allclose(X, hull.vertices) and lams.shape == (1, 1)


def test_sample_mode_box_rejects_non_box():
    hull = cases.case3_problem().hull
    with pytest.raises(ValueError, match="not a full coordinate box"):
        sample_hull(hull, mode="box")


def test_sample_per_edge_guard():
    hull = cases.case1_problem().hull
    with pytest.raises(ValueError, match="per_edge"):
        sample_hull(hull, per_edge=1)


def test_dirichlet_sampling_is_seeded():
    ang = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
    hull = Hull(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    X1, _, _ = sample_hull(hull, n_random=100, seed=5)
    X2, _, _ = sample_hull(hull, n_random=100, seed=5)
    X3, _, _ = sample_hull(hull, n_random=100, seed=6)
    assert np.array_equal(X1, X2)
    assert not np.array_equal(X1, X3)


# --------------------------------------------------------------------------
# margin scans


def test_pointwise_margin_matches_hand_lp():
    prob = cases.example1_problem()
    t, u = pointwise_margin(prob.stack, np.array([1.5]), prob.input_set)
    # rows -6.25 u + 8.5 >= t and u - 1.5 >= t cross at u = 40/29
    assert t == pytest.approx(-7 / 58, abs=1e-9)
    assert u[0] == pytest.approx(40 / 29, abs=1e-9)


def test_example1_scan_locates_the_gap():
    prob = cases.example1_problem()
    rep = grid_scan(prob.stack, prob.hull, prob.input_set)
    assert rep.mode == "box" and rep.n_samples == 61
    assert rep.min_margin == pytest.approx(-0.12193859, abs=1e-6)
    assert rep.argmin_x[0] == pytest.approx(1.55, abs=1e-12)
    assert rep.violations == 19
    assert not rep.feasible_everywhere


def test_case1_scan_is_clean():
    prob = cases.case1_problem()
    rep = grid_scan(prob.stack, prob.hull, prob.input_set)
    assert rep.feasible_everywhere
    assert rep.min_margin == pytest.approx(0.44, abs=1e-9)


def test_scan_margins_are_frozen_on_the_builtins():
    # points and margins of the one-LP-per-sample scan, kept bit for bit
    # (signs of zero included) by the batched evaluation and lockstep LPs
    data = np.load(Path(__file__).parent / "data" / "grid_scan_builtins.npz")
    for name in ("example1", "case1", "case2", "case3"):
        prob = cases.get_problem(name)
        rep = grid_scan(prob.stack, prob.hull, prob.input_set)
        points, margins = data[f"{name}_points"], data[f"{name}_margins"]
        assert np.array_equal(rep.points, points)
        assert np.array_equal(rep.margins.view(np.uint64), margins.view(np.uint64))
        k = int(np.argmin(margins))
        assert rep.min_margin == margins[k]
        assert np.array_equal(rep.argmin_x, points[k])
        assert rep.violations == int(np.sum(margins < -DEFAULT.feas))


def test_scan_is_invariant_under_row_permutation():
    prob = cases.case2_problem()
    perm = [3, 0, 5, 2, 1, 4]
    shuffled = StackedMap(psi=[prob.stack.psi[i] for i in perm],
                          delta=[prob.stack.delta[i] for i in perm])
    a = grid_scan(prob.stack, prob.hull, prob.input_set, per_edge=5)
    b = grid_scan(shuffled, prob.hull, prob.input_set, per_edge=5)
    assert np.allclose(a.margins, b.margins, atol=1e-9)
    assert a.min_margin == pytest.approx(b.min_margin, abs=1e-9)


def test_scan_csv_dump(tmp_path):
    prob = cases.example1_problem()
    rep = grid_scan(prob.stack, prob.hull, prob.input_set, per_edge=7)
    path = tmp_path / "scan.csv"
    rep.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lam1", "lam2", "x1", "margin"]
    assert len(rows) == 1 + rep.n_samples
    got = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.allclose(got[:, -1], rep.margins, atol=1e-9)


def test_scan_report_dict_is_json_ready():
    prob = cases.example1_problem()
    rep = grid_scan(prob.stack, prob.hull, prob.input_set, per_edge=5)
    d = rep.to_dict()
    assert set(d) == {"mode", "n_samples", "min_margin", "argmin_x",
                      "violations", "per_edge", "seed"}
    assert isinstance(d["argmin_x"], list)


# --------------------------------------------------------------------------
# witness replay


def test_replay_margins_agrees_with_direct_evaluation():
    # einsum fast path on the affine stack, batched products on the quadratic one
    for prob in (cases.case2_problem(), cases.example1_problem()):
        rng = np.random.default_rng(2)
        X = np.array([lam @ prob.hull.vertices
                      for lam in rng.dirichlet(np.ones(prob.hull.N), size=24)])
        lo, hi = prob.input_set.bounds()
        U = rng.uniform(lo, hi, size=(24, prob.stack.m))
        got = replay_margins(prob.stack, X, U)
        want = [float((prob.stack.psi_at(x) @ u + prob.stack.delta_at(x)).min())
                for x, u in zip(X, U)]
        assert np.allclose(got, want, atol=1e-12)


def test_replay_margins_on_a_quadratic_stack_is_exact():
    # the batched products give the bits of the per-state products, for
    # per-sample witnesses and for one witness broadcast to every sample
    rng = np.random.default_rng(4)
    n, m, p = 3, 2, 4

    def quad():
        return QuadFunc(Q=rng.normal(size=(n, n)), c=rng.normal(size=n),
                        d=rng.normal())

    stack = StackedMap([[quad() for _ in range(m)] for _ in range(p)],
                       [quad() for _ in range(p)])
    X = rng.normal(size=(40, n))
    for U in (rng.uniform(-1.0, 1.0, size=(40, m)),
              np.broadcast_to(rng.uniform(-1.0, 1.0, m), (40, m))):
        got = replay_margins(stack, X, U)
        want = [(stack.psi_at(x) @ u + stack.delta_at(x)).min()
                for x, u in zip(X, U)]
        assert np.array_equal(got, want)


def test_check_accepts_the_case2_common_certificate():
    prob = cases.case2_problem()
    cert = cpc_common(prob.stack, prob.hull, prob.input_set).certificate
    out = check_certificate(prob.stack, prob.hull, prob.input_set, cert)
    assert out["ok"] and out["inputs_admissible"]
    assert out["min_residual"] == pytest.approx(0.34, abs=1e-9)
    assert out["mode"] == "box" and out["n_samples"] == 11 ** 3


def test_check_rejects_a_corrupted_witness():
    prob = cases.case2_problem()
    fake = CommonCert(np.full(3, 0.3), 0.34)
    out = check_certificate(prob.stack, prob.hull, prob.input_set, fake)
    assert not out["ok"]
    # warm rows at the all-cold corner: 0.6 - 1.56
    assert out["min_residual"] == pytest.approx(-0.96, abs=1e-9)
    assert np.allclose(out["argmin_x"], [25.0, 25.0, 25.0])


def test_check_rejects_an_inadmissible_witness():
    prob = cases.case2_problem()
    fake = CommonCert(np.full(3, 1.7), 0.0)  # outside the [0, 1] box
    out = check_certificate(prob.stack, prob.hull, prob.input_set, fake)
    assert not out["ok"]
    assert not out["inputs_admissible"]


def test_check_replays_interval_box_corners():
    prob = cases.case1_problem()
    cert = cpc_interval(prob.stack, prob.hull, prob.input_set,
                        cases.case1_reference_vertex_inputs()).certificate
    out = check_certificate(prob.stack, prob.hull, prob.input_set, cert)
    assert out["ok"]
    # the floor corner touches zero at the all-cold vertex
    assert out["min_residual"] == pytest.approx(0.0, abs=1e-9)


def test_check_replays_both_corners_of_a_nearly_flat_box():
    # row 1 - u >= 0: the hi corner 1.000009 violates it by 9e-6, although
    # lo and hi agree to numpy's default relative tolerance of 1e-5
    hull = Hull([[0.0], [1.0]])
    stack = StackedMap([[QuadFunc(d=-1.0, n=1)]], [QuadFunc(d=1.0, n=1)])
    cert = IntervalCert(np.array([1.0]), np.array([1.000009]), 0.0)
    out = check_certificate(stack, hull, InputSet(box=([0.0], [2.0])), cert)
    assert not out["ok"]
    assert out["min_residual"] == pytest.approx(-9e-6, rel=1e-6)


def test_check_with_supplied_samples():
    prob = cases.case3_problem()
    from hullcert.certificates import cpc_blend_joint
    cert = cpc_blend_joint(prob.stack, prob.hull, prob.input_set).certificate
    X, lams, _ = sample_hull(prob.hull, per_edge=5)
    out = check_certificate(prob.stack, prob.hull, prob.input_set, cert,
                            points=X, lams=lams)
    assert out["ok"]
    assert out["mode"] == "supplied"
    assert out["n_samples"] == X.shape[0]
    assert out["min_residual"] >= 0.1 - 1e-9


def test_check_unknown_method():
    prob = cases.example1_problem()

    class Odd:
        method = "magic"

    with pytest.raises(ValueError, match="cannot replay"):
        check_certificate(prob.stack, prob.hull, prob.input_set, Odd())
