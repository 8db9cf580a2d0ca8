import numpy as np
import pytest

from hullcert import (A3Violated, ConeViolation, CurvatureClass, Hull,
                      InputSet, QuadFunc, StackedMap, classify_quadratic,
                      column_curvature, concavity_witness, sign_cone,
                      uniform_column_sign, validate_problem)
from hullcert import cases


def test_classify_quadratic_basic():
    assert classify_quadratic(QuadFunc(c=[1.0], d=0.0)) is CurvatureClass.AFFINE
    assert classify_quadratic(QuadFunc(Q=[[-1.0]])) is CurvatureClass.CONCAVE
    assert classify_quadratic(QuadFunc(Q=[[1.0]])) is CurvatureClass.CONVEX
    ind = QuadFunc(Q=[[1.0, 0.0], [0.0, -1.0]])
    assert classify_quadratic(ind) is CurvatureClass.INDEFINITE
    # a PSD matrix with one zero eigenvalue still counts as convex
    psd = QuadFunc(Q=[[1.0, 1.0], [1.0, 1.0]])
    assert classify_quadratic(psd) is CurvatureClass.CONVEX


def test_classify_negation_swaps_sides():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.normal(size=(3, 3))
        q = QuadFunc(Q=M @ M.T)  # PSD
        neg = QuadFunc(Q=-q.Q)
        assert classify_quadratic(q) in (CurvatureClass.CONVEX,
                                         CurvatureClass.AFFINE)
        assert classify_quadratic(neg) in (CurvatureClass.CONCAVE,
                                           CurvatureClass.AFFINE)


def test_column_curvature_aggregation():
    conc = QuadFunc(Q=[[-1.0]])
    conv = QuadFunc(Q=[[1.0]])
    affn = QuadFunc(c=[1.0])
    st = StackedMap([[conc], [affn]], [affn, affn])
    assert column_curvature(st, 0) is CurvatureClass.CONCAVE
    st2 = StackedMap([[conc], [conv]], [affn, affn])
    assert column_curvature(st2, 0) is CurvatureClass.INDEFINITE
    with pytest.raises(IndexError):
        column_curvature(st, 3)


def test_sign_cone_labels():
    conc = QuadFunc(Q=[[-1.0, 0], [0, 0.0]], n=2)
    conv = QuadFunc(Q=[[1.0, 0], [0, 0.0]], n=2)
    affn = QuadFunc(c=[1.0, 0.0])
    st = StackedMap([[conc, conv, affn]], [affn])
    cone = sign_cone(st)
    # concave: u >= 0, convex: u <= 0, affine: free
    assert cone.lo.tolist() == [0.0, -np.inf, -np.inf]
    assert cone.hi.tolist() == [np.inf, 0.0, np.inf]
    assert cone.contains([1.0, -1.0, 5.0])
    assert not cone.contains([-1.0, 0.0, 0.0])
    st_bad = StackedMap([[conc], [conv]], [affn, affn])
    with pytest.raises(A3Violated) as exc:
        sign_cone(st_bad)
    assert exc.value.column == 0


def test_uniform_column_sign_on_fixtures():
    prob = cases.example1_problem()
    # -(x-4)^2 is positive at the vertices but the paired affine row keeps a
    # plus sign, and concave entries cannot certify anything two-sided
    assert uniform_column_sign(prob.stack, prob.hull, 0) == "inconclusive"
    p1 = cases.case1_problem()
    for k in range(3):
        assert uniform_column_sign(p1.stack, p1.hull, k) == "nonneg"
    p2 = cases.case2_problem()
    for k in range(3):
        assert uniform_column_sign(p2.stack, p2.hull, k) == "inconclusive"
    p3 = cases.case3_problem()
    assert uniform_column_sign(p3.stack, p3.hull, 0) == "inconclusive"


def test_uniform_sign_concave_needs_vertex_nonnegativity():
    # concave entry positive at vertices: nonneg holds hull-wide
    q = QuadFunc(Q=[[-1.0]], c=[0.0], d=2.0)  # 2 - x^2, positive on [-1, 1]
    st = StackedMap([[q]], [QuadFunc(c=[0.0], d=0.0, n=1)])
    hu = Hull([[-1.0], [1.0]])
    assert uniform_column_sign(st, hu, 0) == "nonneg"
    # same entry on [-2, 2] is negative at the vertices: inconclusive
    assert uniform_column_sign(st, Hull([[-2.0], [2.0]]), 0) == "inconclusive"


def test_concavity_witness_on_fixtures():
    rng = np.random.default_rng(11)
    for prob, m in ((cases.case1_problem(), 3), (cases.case3_problem(), 1)):
        cone = sign_cone(prob.stack)
        lo, hi = prob.input_set.bounds()
        for _ in range(5):
            u = rng.uniform(np.maximum(lo, np.where(np.isfinite(cone.lo),
                                                    cone.lo, lo)),
                            np.minimum(hi, np.where(np.isfinite(cone.hi),
                                                    cone.hi, hi)))
            w = concavity_witness(prob.stack, u, prob.hull, trials=200,
                                  rng=rng)
            assert w <= 1e-9


def test_concavity_witness_keeps_its_bits():
    # values recorded from one psi_at call per vertex and per trial; the
    # batched reads must leave every bit of the maximum unchanged
    pinned = {"example1": ([5.0], "0x1.0000000000000p-50"),
              "case2": ([0.95, 0.95, 0.95], "0x1.c000000000000p-50"),
              "case3": ([0.5], "0x1.8000000000000p-53")}
    for name, (u, want) in pinned.items():
        prob = cases.get_problem(name)
        w = concavity_witness(prob.stack, np.array(u), prob.hull, trials=1000,
                              seed=0)
        assert w.hex() == want, name


def test_concavity_witness_rejects_cone_violation():
    q = QuadFunc(Q=[[-1.0]])
    st = StackedMap([[q]], [QuadFunc(c=[0.0], d=0.0, n=1)])
    hu = Hull([[-1.0], [1.0]])
    with pytest.raises(ConeViolation):
        concavity_witness(st, np.array([-1.0]), hu)


def test_concavity_witness_is_a_real_comparator():
    # for -x^2 with u = 1 on [-1, 1] the gap at weight lam is exactly
    # (1 - 2 lam)^2 - 1, which lives in [-1, 0]; the reported max must land
    # in that interval, so the comparator is doing arithmetic, not returning
    # a hardcoded zero
    st = StackedMap([[QuadFunc(Q=[[-1.0]])]], [QuadFunc(c=[0.0], d=0.0, n=1)])
    hu = Hull([[-1.0], [1.0]])
    w = concavity_witness(st, np.array([1.0]), hu, trials=500, seed=4)
    assert -1.0 - 1e-12 <= w <= 1e-12
    assert w < -1e-6  # draws are interior mixes, never exactly a vertex


def test_validate_problem_reports():
    prob = cases.case1_problem()
    rep = validate_problem(prob.stack, prob.hull, prob.input_set)
    assert rep.a2_ok and rep.a3_ok
    assert all(c == "affine" for c in rep.to_dict()["delta_classes"])
    bad = StackedMap([[QuadFunc(Q=[[-1.0]])], [QuadFunc(Q=[[1.0]])]],
                     [QuadFunc(Q=[[1.0]]), QuadFunc(c=[0.0], n=1)])
    rep2 = validate_problem(bad, Hull([[0.0], [1.0]]),
                            InputSet(box=(np.zeros(1), np.ones(1))))
    assert not rep2.a2_ok  # convex delta row
    assert not rep2.a3_ok  # mixed-curvature column
    with pytest.raises(ValueError):
        validate_problem(bad, Hull([[0.0, 0.0], [1.0, 1.0]]),
                         InputSet(box=(np.zeros(1), np.ones(1))))
