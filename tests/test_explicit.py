"""Explicit piecewise-affine filter: synthesis, verification, lookup."""
import numpy as np
import pytest

from hullcert import cases
from hullcert.explicit import (Assumption2Violated, ExplicitController,
                               NoRegion, NotInRegion, OutsideHull,
                               UnresolvedRegion, interpolate_on_region,
                               partition_hull)
from hullcert.optcore import solve_qp_projection
from hullcert.problem import (DesiredInput, Hull, InputSet, QuadFunc, StackedMap,
                              build_from_lti)


@pytest.fixture(scope="module")
def case3_controller():
    prob = cases.case3_problem()
    return prob, partition_hull(prob.stack, prob.hull, prob.input_set,
                                prob.u_des)


def test_case3_partition_has_three_regions(case3_controller):
    prob, ctrl = case3_controller
    assert len(ctrl.regions) == 3
    by_a = {r.a_set: r for r in ctrl.regions}
    assert set(by_a) == {(0,), (), (1,)}
    # saturated rows pin u to -(1.1 x1 + 1.9 x2) +- 1, the middle region
    # passes the desired input through untouched
    up = by_a[(1,)].law
    mid = by_a[()].law
    lo = by_a[(0,)].law
    assert np.allclose(up.F, [[-1.1, -1.9]], atol=1e-9)
    assert np.allclose(up.f, [1.0], atol=1e-9)
    assert np.allclose(mid.F, 0.0, atol=1e-12) and np.allclose(mid.f, 0.0)
    assert np.allclose(lo.F, [[-1.1, -1.9]], atol=1e-9)
    assert np.allclose(lo.f, [-1.0], atol=1e-9)
    assert all(r.b_set == () for r in ctrl.regions)


def test_case3_region_boundaries_are_the_switch_lines(case3_controller):
    _, ctrl = case3_controller
    mid = next(r for r in ctrl.regions if r.a_set == ())
    nrm = np.sqrt(1.1 ** 2 + 1.9 ** 2)
    want = np.array([1.1, 1.9]) / nrm
    hits = 0
    for row, off in zip(mid.rows, mid.offs):
        if np.allclose(np.abs(row), want, atol=1e-8):
            assert abs(off - 1.0 / nrm) < 1e-8
            hits += 1
    assert hits == 2  # one switch line on each side


def test_case3_explicit_matches_qp(case3_controller):
    prob, ctrl = case3_controller
    rng = np.random.default_rng(0)
    lams = rng.dirichlet(np.ones(prob.hull.N), size=300)
    for lam in lams:
        x = lam @ prob.hull.vertices
        ue = ctrl(x)
        uq = solve_qp_projection(prob.u_des(x), prob.stack.psi_at(x),
                                 prob.stack.delta_at(x), prob.input_set).u
        assert np.max(np.abs(ue - uq)) <= 1e-7


def test_laws_agree_on_shared_boundaries(case3_controller):
    _, ctrl = case3_controller
    pairs = 0
    for i, ra in enumerate(ctrl.regions):
        for rb in ctrl.regions[i + 1:]:
            for v in ra.vertices:
                if np.min(np.linalg.norm(rb.vertices - v, axis=1)) < 1e-7:
                    assert np.allclose(ra.law.u_at(v), rb.law.u_at(v),
                                       atol=1e-8)
                    pairs += 1
    assert pairs >= 2  # the middle region touches both saturated ones


def test_multiplier_laws_nonnegative_on_their_regions(case3_controller):
    _, ctrl = case3_controller
    for region in ctrl.regions:
        for v in region.vertices:
            lam = region.law.lam_at(v)
            nu = region.law.nu_at(v)
            if lam.size:
                assert lam.min() >= -1e-9
            if nu.size:
                assert nu.min() >= -1e-9


def test_region_lookup(case3_controller):
    _, ctrl = case3_controller
    region = ctrl.region_at(np.zeros(2))
    assert region.a_set == ()
    with pytest.raises(OutsideHull):
        ctrl.region_at(np.array([5.0, 5.0]))
    empty = ExplicitController([], ctrl.hull_rows, ctrl.hull_offs,
                               ctrl.n, ctrl.m, ctrl.u_des)
    with pytest.raises(NoRegion):
        empty.region_at(np.zeros(2))


def test_interpolation_reproduces_the_affine_law(case3_controller):
    _, ctrl = case3_controller
    region = next(r for r in ctrl.regions if r.a_set == (1,))
    V = region.vertices
    U = np.array([region.law.u_at(v) for v in V])
    rng = np.random.default_rng(8)
    for _ in range(20):
        lam = rng.dirichlet(np.ones(V.shape[0]))
        x = lam @ V
        # whatever barycentric representation the LP picks, the blend must
        # equal the affine law
        got = interpolate_on_region(x, V, U)
        assert np.allclose(got, region.law.u_at(x), atol=1e-7)


def test_interpolation_rejects_outside_states(case3_controller):
    _, ctrl = case3_controller
    region = ctrl.regions[0]
    V = region.vertices
    U = np.array([region.law.u_at(v) for v in V])
    far = V.mean(axis=0) + 10.0
    with pytest.raises(NotInRegion):
        interpolate_on_region(far, V, U)
    with pytest.raises(ValueError, match="counts differ"):
        interpolate_on_region(V[0], V, U[:-1])


def test_input_bound_becomes_a_region():
    # shrink the hull, tighten the input box, and ask for more than the box
    # allows: one region rides the barrier row, the other the input bound
    prob = cases.case3_problem()
    hull = Hull(0.7 * prob.hull.vertices)
    box = InputSet(box=(np.array([-0.5]), np.array([0.5])))
    ud = DesiredInput(np.zeros((1, 2)), np.array([0.9]))
    ctrl = partition_hull(prob.stack, hull, box, ud)
    assert len(ctrl.regions) == 2
    by_b = {r.b_set: r for r in ctrl.regions}
    assert set(by_b) == {(), (0,)}
    clipped = by_b[(0,)].law
    assert np.allclose(clipped.F, 0.0, atol=1e-12)
    assert np.allclose(clipped.f, [0.5], atol=1e-9)
    assert np.allclose(clipped.nu0, [0.4], atol=1e-9)
    riding = by_b[()].law
    assert riding.a_set == (1,)
    assert np.allclose(riding.F, [[-1.1, -1.9]], atol=1e-9)
    # spot check against the QP
    for x in (np.array([0.1, 0.2]), np.array([-0.3, -0.1]), np.zeros(2)):
        uq = solve_qp_projection(ud(x), prob.stack.psi_at(x),
                                 prob.stack.delta_at(x), box).u
        assert np.allclose(ctrl(x), uq, atol=1e-8)


def test_generated_box_hull_partitions_and_verifies():
    # An LTI corridor problem (n=2, m=1) whose region vertices land within
    # 5e-10 of a verification threshold: with vertices rounded to 9
    # decimals it raised UnresolvedRegion ("negative multiplier at vertex").
    A = [[0.19773540648321117, 0.34012168790154795],
         [-0.30227726824432577, -0.42269156540666]]
    B = [[0.5401179977444014], [-1.0459586518201225]]
    a = np.array([[0.8965010501837177, 0.4430416086774371],
                  [0.20987301356983615, -0.9777286526307365]])
    half = [0.5474448802108565, 0.5091647093333433]
    stack = build_from_lti(A, B, [(s * ai, 1.0, 1.0) for ai in a
                                  for s in (1.0, -1.0)])
    hull = Hull([[sx * half[0], sy * half[1]]
                 for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)])
    box = InputSet(box=(-np.ones(1), np.ones(1)))
    ud = DesiredInput([[-0.34632474039747124, -2.2066666252281943]],
                      [0.3442910955452378])
    ctrl = partition_hull(stack, hull, box, ud)
    assert len(ctrl.regions) == 4
    rng = np.random.default_rng(1)
    for lam in rng.dirichlet(np.ones(hull.N), size=50):
        x = lam @ hull.vertices
        uq = solve_qp_projection(ud(x), stack.psi_at(x), stack.delta_at(x),
                                 box).u
        assert np.max(np.abs(ctrl(x) - uq)) <= 1e-7


def test_duplicated_row_breaks_strict_complementarity():
    prob = cases.case3_problem()
    dup = StackedMap(psi=list(prob.stack.psi) + [list(prob.stack.psi[0])],
                     delta=list(prob.stack.delta) + [prob.stack.delta[0]])
    with pytest.raises(UnresolvedRegion, match="failed verification"):
        partition_hull(dup, prob.hull, prob.input_set, prob.u_des)


def test_incompatible_hull_is_reported_at_the_seed():
    prob = cases.case3_problem()
    big = Hull(2.0 * prob.hull.vertices)
    with pytest.raises(UnresolvedRegion, match="QP infeasible at seed"):
        partition_hull(prob.stack, big, prob.input_set, prob.u_des)


def test_assumption_checks():
    e1 = cases.example1_problem()
    with pytest.raises(Assumption2Violated, match="is not affine"):
        partition_hull(e1.stack, e1.hull, e1.input_set)

    # affine but state-dependent Psi
    hull = Hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    us = InputSet(box=(np.zeros(1), np.ones(1)))
    varying = StackedMap(
        psi=[[QuadFunc(c=np.array([1.0, 0.0]), d=1.0)]],
        delta=[QuadFunc(c=np.zeros(2), d=1.0)])
    with pytest.raises(Assumption2Violated, match="varies across the hull"):
        partition_hull(varying, hull, us)

    curved_delta = StackedMap(
        psi=[[QuadFunc(d=1.0, n=2)]],
        delta=[QuadFunc(Q=np.eye(2), d=1.0)])
    with pytest.raises(Assumption2Violated, match="delta row 0"):
        partition_hull(curved_delta, hull, us)

    p3 = cases.case3_problem()
    bad_des = DesiredInput(np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(Assumption2Violated, match="wrong dimensions"):
        partition_hull(p3.stack, p3.hull, p3.input_set, bad_des)


def test_slowly_varying_psi_is_rejected():
    # Psi moves by 1e-3 across the hull, 1e-5 of its size; a law built on
    # Psi at the first vertex would violate row 0 by -5e-4 at x = 1
    st = StackedMap(psi=[[QuadFunc(c=[-1e-3], d=100.0)], [QuadFunc(d=-1.0, n=1)]],
                    delta=[QuadFunc(c=[-50.0], d=0.0), QuadFunc(d=5.0, n=1)])
    hull = Hull([[0.0], [1.0]])
    us = InputSet(box=(np.array([-10.0]), np.array([10.0])))
    with pytest.raises(Assumption2Violated, match="Psi varies"):
        partition_hull(st, hull, us, DesiredInput(np.zeros((1, 1)), np.zeros(1)))


@pytest.mark.parametrize("psi_q, delta_q, match", [
    (5e-11, 0.0, r"Psi entry \(0,0\) is not affine"),
    (0.0, 5e-11, "delta row 0 is not affine")])
def test_tiny_quadratic_terms_are_not_affine(psi_q, delta_q, match):
    # the explicit filter reads the affine arrays, so a quadratic term it
    # would drop must fail Assumption 2 instead
    st = StackedMap(psi=[[QuadFunc(Q=[[psi_q]], d=1.0)]],
                    delta=[QuadFunc(Q=[[delta_q]], d=1.0)])
    hull = Hull([[0.0], [1.0]])
    us = InputSet(box=(np.array([-1.0]), np.array([1.0])))
    with pytest.raises(Assumption2Violated, match=match):
        partition_hull(st, hull, us)


def test_save_load_round_trip(tmp_path, case3_controller):
    prob, ctrl = case3_controller
    path = tmp_path / "explicit.json"
    ctrl.save(path)
    back = ExplicitController.load(path)
    assert len(back.regions) == len(ctrl.regions)
    assert back.meta == ctrl.meta
    rng = np.random.default_rng(3)
    for lam in rng.dirichlet(np.ones(prob.hull.N), size=40):
        x = lam @ prob.hull.vertices
        assert np.allclose(back(x), ctrl(x), atol=0.0)
