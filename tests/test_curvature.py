from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullcert import (DEFAULT, A3Violated, ConeViolation, CurvatureClass, Hull,
                      InputSet, QuadFunc, StackedMap, classify_quadratic,
                      column_curvature, concavity_witness, sign_cone,
                      uniform_column_sign, validate_problem)
from hullcert import cases

AFFINE, CONCAVE, CONVEX, INDEFINITE = CurvatureClass


# --------------------------------------------------------------------------
# scalar reference: one eigvalsh call per entry, classes folded pairwise


def reference_class(Q, tol):
    if Q.size == 0 or np.max(np.abs(Q)) <= tol:
        return AFFINE
    eigs = np.linalg.eigvalsh(Q)
    if eigs[-1] <= tol:
        return CONCAVE
    if eigs[0] >= -tol:
        return CONVEX
    return INDEFINITE


def reference_aggregate(classes):
    classes = list(classes)
    has_concave = CONCAVE in classes
    has_convex = CONVEX in classes
    if INDEFINITE in classes or (has_concave and has_convex):
        return INDEFINITE
    if has_concave:
        return CONCAVE
    if has_convex:
        return CONVEX
    return AFFINE


TOLS = (1e-10, 1e-12)


@st.composite
def symmetric_q(draw, n, tol):
    """A symmetric [n, n] matrix: random at several scales, or on the
    classifier's edges, max |Q| exactly tol or an eigenvalue exactly +-tol."""
    kind = draw(st.sampled_from(["random", "zero", "at_tol", "eig_at_tol",
                                 "rank_one"]))
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "at_tol":
        S = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                   min_size=n * n, max_size=n * n))).reshape(n, n)
        S = np.triu(S) + np.triu(S, 1).T
        S.flat[0] = draw(st.sampled_from([-1.0, 1.0]))
        return tol * S
    if kind == "eig_at_tol":
        rest = draw(st.lists(st.floats(-2.0, 2.0), min_size=n - 1, max_size=n - 1))
        return np.diag([draw(st.sampled_from([-tol, tol]))] + rest)
    v = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    if kind == "rank_one":
        return draw(st.sampled_from([-1.0, 1.0])) * np.outer(v, v)
    M = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    return draw(st.sampled_from([1.0, 1e-9, 1e-11, 1e-13])) * (M + M.T) / 2.0


@st.composite
def stacked_q(draw):
    """(stack, tol) with p x m in 1..12 entries of dimension n in 1..4."""
    n, p, m = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
               draw(st.integers(1, 3)))
    tol = draw(st.sampled_from(TOLS))
    psi = [[QuadFunc(Q=draw(symmetric_q(n, tol))) for _ in range(m)]
           for _ in range(p)]
    delta = [QuadFunc(Q=draw(symmetric_q(n, tol))) for _ in range(p)]
    return StackedMap(psi, delta), tol


@settings(max_examples=300, deadline=None)
@given(case=stacked_q())
def test_classifier_matches_the_scalar_reference(case):
    stack, tol = case
    hull = Hull(np.eye(stack.n))
    want_entries = [[reference_class(q.Q, tol) for q in row] for row in stack.psi]
    want_columns = [reference_aggregate(col) for col in zip(*want_entries)]
    assert [[classify_quadratic(q, tol) for q in row]
            for row in stack.psi] == want_entries
    assert [column_curvature(stack, k, tol)
            for k in range(stack.m)] == want_columns
    report = validate_problem(stack, hull, InputSet(box=(-np.ones(stack.m),
                                                         np.ones(stack.m))),
                              DEFAULT.with_overrides(eig=tol))
    assert report.column_classes == want_columns
    assert report.delta_classes == [reference_class(q.Q, tol) for q in stack.delta]
    assert report.a3_ok == (INDEFINITE not in want_columns)
    if INDEFINITE in want_columns:
        with pytest.raises(A3Violated) as exc:
            sign_cone(stack, tol)
        assert exc.value.column == want_columns.index(INDEFINITE)
    else:
        cone = sign_cone(stack, tol)
        assert cone.lo.tolist() == [0.0 if c is CONCAVE else -np.inf
                                    for c in want_columns]
        assert cone.hi.tolist() == [0.0 if c is CONVEX else np.inf
                                    for c in want_columns]
    # the affine test of affine_arrays is the same rule at 1e-12
    assert (stack.affine_arrays() is None) == any(
        reference_class(q.Q, 1e-12) is not AFFINE
        for q in [e for row in stack.psi for e in row] + list(stack.delta))


def test_column_aggregation_truth_table():
    by_class = {AFFINE: QuadFunc(c=[1.0, 0.0]), CONCAVE: QuadFunc(Q=-np.eye(2)),
                CONVEX: QuadFunc(Q=np.eye(2)),
                INDEFINITE: QuadFunc(Q=np.diag([1.0, -1.0]))}
    table = {(AFFINE, AFFINE): AFFINE, (AFFINE, CONCAVE): CONCAVE,
             (AFFINE, CONVEX): CONVEX, (AFFINE, INDEFINITE): INDEFINITE,
             (CONCAVE, CONCAVE): CONCAVE, (CONCAVE, CONVEX): INDEFINITE,
             (CONCAVE, INDEFINITE): INDEFINITE, (CONVEX, CONVEX): CONVEX,
             (CONVEX, INDEFINITE): INDEFINITE, (INDEFINITE, INDEFINITE): INDEFINITE}
    zero = QuadFunc(n=2)
    for a, b in product(CurvatureClass, repeat=2):
        want = table.get((a, b)) or table[(b, a)]
        assert reference_aggregate([a, b]) is want
        stack = StackedMap([[by_class[a]], [by_class[b]]], [zero, zero])
        assert column_curvature(stack, 0) is want, (a, b)


def test_column_lookups_reject_out_of_range_columns():
    stack = StackedMap([[QuadFunc(Q=[[-1.0]]), QuadFunc(c=[1.0])]],
                       [QuadFunc(c=[0.0])])
    hull = Hull([[-1.0], [1.0]])
    for k in (-1, stack.m):
        with pytest.raises(IndexError):
            column_curvature(stack, k)
        with pytest.raises(IndexError):
            uniform_column_sign(stack, hull, k)


def test_zero_dimensional_entry_is_affine():
    assert classify_quadratic(QuadFunc(n=0)) is AFFINE


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
