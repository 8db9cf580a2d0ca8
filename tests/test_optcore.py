import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullcert import (DEFAULT, Hull, InfeasibleQP, InputSet, LpProblem,
                      NumericalFailure, QuadFunc, StackedMap, Tolerances,
                      WarmQp, certify, cpc_blend_joint, margin_lp, solve_lp,
                      solve_qp_projection)
from hullcert import cases, certificates, optcore


# --------------------------------------------------------------------------
# LP: known instances


def test_lp_known_optimum():
    # max x + y, x + y <= 1, box [0, 1]^2: optimum 1 on the whole edge
    res = solve_lp(LpProblem.maximize([1.0, 1.0], [[1.0, 1.0]], [1.0],
                                      [0.0, 0.0], [1.0, 1.0]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert 0 in res.active_rows


def test_lp_infeasible():
    res = solve_lp(LpProblem.maximize([1.0], [[1.0], [-1.0]], [0.0, -1.0],
                                      None, None))
    assert res.status == "infeasible"
    res2 = solve_lp(LpProblem.maximize([0.0], lo=[1.0], hi=[0.0]))
    assert res2.status == "infeasible"


def test_lp_unbounded():
    res = solve_lp(LpProblem.maximize([1.0], [[-1.0]], [0.0], None, None))
    assert res.status == "unbounded"


def test_lp_free_and_one_sided_variables():
    # free variable: max -|x| style via two rows, optimum at x = -2
    res = solve_lp(LpProblem.maximize([-1.0], [[-1.0]], [2.0], None, None))
    assert res.status == "optimal"
    assert res.z[0] == pytest.approx(-2.0, abs=1e-9)
    # upper-bounded-only variable
    res2 = solve_lp(LpProblem.maximize([1.0], None, None, None, [3.5]))
    assert res2.status == "optimal"
    assert res2.z[0] == pytest.approx(3.5)
    # two-sided bounds become explicit rows; both ends reachable
    res3 = solve_lp(LpProblem.maximize([-1.0], None, None, [-4.0], [9.0]))
    assert res3.z[0] == pytest.approx(-4.0)


def test_lp_negative_rhs_needs_phase_one():
    # x >= 2 written as -x <= -2, maximize -x: phase one must find x = 2
    res = solve_lp(LpProblem.maximize([-1.0], [[-1.0]], [-2.0], [0.0], [10.0]))
    assert res.status == "optimal"
    assert res.z[0] == pytest.approx(2.0, abs=1e-9)


def test_lp_degenerate_cycling_guard():
    # classic degenerate vertex: several rows tight at the optimum; Bland's
    # rule must terminate
    A = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    res = solve_lp(LpProblem.maximize([1.0, 1.0], A, b, [0.0, 0.0], None))
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)


DATA = Path(__file__).parent / "data"


def _frozen_lp(data, k: int) -> LpProblem:
    return LpProblem.maximize(*(data[f"{k}_{f}"]
                                for f in ("c", "a_ineq", "b_ineq", "lo", "hi")))


def _frozen_outputs(res) -> dict:
    """The arrays a frozen-bits fixture keeps of a solve_lp result."""
    optimal = res.status == "optimal"
    return {"status": np.array(res.status),
            "z": res.z if optimal else np.zeros(0),
            "value": np.array(res.value if optimal else np.nan),
            "active_rows": np.array(res.active_rows, dtype=np.int64)}


def test_lp_outputs_match_the_frozen_bits():
    # solve_lp inputs and outputs: every LP that certify makes on example1,
    # case2 and case3 (case1 certifies by the endpoint rule, without an LP),
    # one 288-row joint-blend LP of an n=3, m=2 corridor, and one LP each
    # with bounds only, free and one-sided variables, a phase one, no
    # feasible point and no optimum.  The outputs are those of the simplex
    # with the feasible start: example1's two LPs, case3's common LP and the
    # joint-blend LP take it (only the joint-blend LP's z moved when it came
    # in), the others run both phases.  Regenerate the outputs from the
    # stored inputs with ``python tests/test_optcore.py --write``.
    data = np.load(DATA / "solve_lp_frozen.npz")
    for k in range(int(data["count"])):
        res = solve_lp(_frozen_lp(data, k))
        assert res.status == str(data[f"{k}_status"]), str(data[f"{k}_label"])
        if res.status == "optimal":
            assert np.array_equal(_bits(res.z), _bits(data[f"{k}_z"]))
            assert _bits(res.value) == _bits(data[f"{k}_value"])
            assert res.active_rows == tuple(data[f"{k}_active_rows"])
        else:
            assert res.z is None and res.value is None and res.active_rows == ()


def _random_box_lp(rng):
    nv = int(rng.integers(1, 5))
    nr = int(rng.integers(1, 7))
    A = rng.normal(size=(nr, nv))
    lo = rng.uniform(-2.0, 0.0, size=nv)
    hi = lo + rng.uniform(0.5, 3.0, size=nv)
    x0 = rng.uniform(lo, hi)
    b = A @ x0 + rng.uniform(0.0, 1.0, size=nr)  # x0 strictly feasible
    c = rng.normal(size=nv)
    return LpProblem.maximize(c, A, b, lo, hi)


def _dual_of_box_lp(prob):
    """Dual of max c.x s.t. Ax <= b, lo <= x <= hi as another box LP.

    min b.yA + hi.yU - lo.yL  s.t.  A'yA + yU - yL = c, all y >= 0.
    Weak duality makes any feasible dual value an upper bound on the primal
    optimum, so a tiny gap certifies both solutions at once.
    """
    A, b, lo, hi, c = prob.a_ineq, prob.b_ineq, prob.lo, prob.hi, prob.c
    nr, nv = A.shape
    ny = nr + 2 * nv
    cost = np.concatenate([b, hi, -lo])
    eq = np.hstack([A.T, np.eye(nv), -np.eye(nv)])
    rows = np.vstack([eq, -eq])
    offs = np.concatenate([c, -c])
    return LpProblem.maximize(-cost, rows, offs, np.zeros(ny), None)


def test_lp_duality_gap_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        prob = _random_box_lp(rng)
        res = solve_lp(prob)
        assert res.status == "optimal"
        dual = solve_lp(_dual_of_box_lp(prob))
        assert dual.status == "optimal"
        gap = -dual.value - res.value  # dual valueupper-bounds the primal
        assert abs(gap) <= 1e-7
        assert gap >= -1e-9  # weak duality can fail only through a bug


def test_lp_result_respects_constraints():
    rng = np.random.default_rng(77)
    for _ in range(50):
        prob = _random_box_lp(rng)
        res = solve_lp(prob)
        z = res.z
        assert np.all(prob.a_ineq @ z - prob.b_ineq <= 1e-9)
        assert np.all(z >= prob.lo - 1e-9)
        assert np.all(z <= prob.hi + 1e-9)


# --------------------------------------------------------------------------
# LP: pivot update and ratio test on joint-blend sized tableaus


def _random_full_tableau(rng, rows, cols, row_nnz):
    """Full tableau [rows, cols + 1] with a unit column per basic label,
    zeros scattered through the nonbasic columns, a sparse row i with a
    positive entry in nonbasic column j, and a positive right-hand side."""
    labels = rng.permutation(cols)
    basis, nonbasic = labels[:rows], np.sort(labels[rows:])
    T = np.zeros((rows, cols + 1))
    T[np.arange(rows), basis] = 1.0
    T[:, nonbasic] = np.where(rng.random((rows, nonbasic.size)) < 0.3,
                              rng.normal(size=(rows, nonbasic.size)), 0.0)
    T[:, -1] = rng.uniform(0.0, 2.0, rows)
    i = int(rng.integers(rows))
    T[i, nonbasic] = 0.0
    T[i, rng.choice(nonbasic, min(row_nnz, nonbasic.size), replace=False)] = (
        rng.normal(size=min(row_nnz, nonbasic.size)))
    j = int(rng.choice(nonbasic))
    T[i, j] = rng.uniform(0.1, 2.0)
    return T, basis, nonbasic, i, j


@pytest.mark.parametrize("rows,cols", [(8, 12), (30, 40), (150, 160), (300, 330)])
def test_condensed_pivot_equals_the_full_rank_one_update(rows, cols):
    rng = np.random.default_rng(rows)
    for _ in range(20):
        T, basis, nonbasic, i, j = _random_full_tableau(rng, rows, cols,
                                                        int(rng.integers(1, 12)))
        # the full tableau's rank-1 update, written out
        ref = T.copy()
        ref[i] /= ref[i, j]
        col = ref[:, j].copy()
        col[i] = 0.0
        ref -= np.outer(col, ref[i])
        # the condensed lane: nonbasic columns in shuffled slots, then the
        # right-hand side, one stored column per array row
        labels = rng.permutation(nonbasic)
        lane = np.vstack([T[:, labels].T, T[:, -1]])
        got_basis = basis.copy()
        s = int(np.flatnonzero(labels == j)[0])
        optcore._pivot(lane, labels, got_basis, i, s)
        assert labels[s] == basis[i] and got_basis[i] == j
        assert np.array_equal(_bits(lane[:-1]), _bits(ref[:, labels].T))
        assert np.array_equal(_bits(lane[-1]), _bits(ref[:, -1]))
        assert np.array_equal(ref[:, j], np.eye(rows)[i])


def test_lp_ratio_test_skips_roundoff_entries():
    # A joint-blend LP (n=4, m=2, p=8, varying Psi) whose entering columns
    # carry roundoff entries of 1e-10 to 3e-10.  Pivoting on them blew the
    # tableau up, and the simplex returned an infeasible point.  The optimum
    # is the one scipy's HiGHS reports.
    data = np.load(DATA / "joint_blend_roundoff_pivot.npz")
    res = solve_lp(LpProblem.maximize(data["c"], data["a_ineq"], data["b_ineq"],
                                      data["lo"], data["hi"]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(-2.8663286406934425, abs=1e-6)


def test_lp_ratio_test_overflow_fails_instead_of_pivoting_to_nan():
    # the one positive entry's ratio 1e301 / 1e-8 overflows to +inf, which
    # every other row ties; pivoting on the overflowed row alone ends
    # "optimal" at a nan point
    prob = LpProblem.maximize([1.0], [[-1.0], [1e-8]], [1.0, 1e301], [0.0], None)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure):
            solve_lp(prob)


def _varying_corridor(rng, n, m, rho):
    """Box hull with 2m two-sided corridor rows and an input gain affine in x."""
    A = rng.normal(0.0, 0.5, (n, n))
    B0 = rng.normal(0.0, 1.0, (n, m))
    a = rng.normal(size=(2 * m, n))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    half = rng.uniform(0.7, 1.3, n)
    half *= rho / (np.abs(a @ (A + np.eye(n))) @ half).max()
    B1 = rng.normal(0.0, 1.0, (n, m, n)) * 0.3 / (n * half.max())
    psi, delta = [], []
    for sa in [s * ai for ai in a for s in (1.0, -1.0)]:
        psi.append([QuadFunc(c=sa @ B1[:, k, :], d=float(sa @ B0[:, k]), n=n)
                    for k in range(m)])
        delta.append(QuadFunc(c=A.T @ sa + sa, d=1.0, n=n))
    hull = Hull(np.array(list(product(*[(-h, h) for h in half]))))
    return StackedMap(psi, delta), hull, InputSet(box=(-np.ones(m), np.ones(m)))


def test_joint_blend_lp_matches_highs(monkeypatch):
    from scipy.optimize import linprog

    lps = []

    def spy(prob, tol=DEFAULT):
        lps.append((prob, solve_lp(prob, tol)))
        return lps[-1][1]

    monkeypatch.setattr(certificates, "solve_lp", spy)
    stack, hull, input_set = _varying_corridor(np.random.default_rng(5), 4, 2, 2.0)
    cpc_blend_joint(stack, hull, input_set)
    prob, res = lps[0]
    assert prob.a_ineq.shape == (16 * 8 + 120 * 8, 16 * 2 + 1)
    ref = linprog(-prob.c, A_ub=prob.a_ineq, b_ub=prob.b_ineq,
                  bounds=list(zip(prob.lo, prob.hi)), method="highs")
    assert res.status == "optimal" and ref.status == 0
    assert res.value == pytest.approx(-ref.fun, abs=1e-6)


def _tail_blend_lp():
    """A joint-blend LP of certify-mix's largest kind (n=4, m=2, p=8, varying
    Psi, box inputs): 1,088 rows and 32 box rows, a 1,120-row tableau."""
    stack, hull, us = _varying_corridor(np.random.default_rng(13), 4, 2, 3.5)
    psis, deltas = stack.eval(hull.vertices)
    lo, hi = us.bounds()
    return optcore.margin_problem(psis, deltas, us, lo, hi, per_vertex=True)


def test_tail_size_joint_blend_lp_matches_the_frozen_bits():
    # outputs of the scalar simplex with the feasible start (numpy 2.4),
    # written by ``python tests/test_optcore.py --write``
    data = np.load(DATA / "joint_blend_1120_frozen.npz")
    prob = _tail_blend_lp()
    assert prob.a_ineq.shape == (1088, 33)
    res = solve_lp(prob)
    assert res.status == "optimal"
    assert np.array_equal(_bits(res.z), _bits(data["z"]))
    assert _bits(res.value) == _bits(data["value"])
    assert res.active_rows == tuple(data["active_rows"])


def _pivot_count(monkeypatch, prob) -> int:
    count = 0
    pivot = optcore._pivot

    def spy(*args):
        nonlocal count
        count += 1
        pivot(*args)

    with monkeypatch.context() as mp:
        mp.setattr(optcore, "_pivot", spy)
        solve_lp(prob)
    return count


def test_feasible_start_takes_the_pivot_paths_it_pins(monkeypatch):
    # the tail-size joint-blend LP takes the start: 39 pivots, one of them
    # the start (119 in two phases)
    assert _pivot_count(monkeypatch, _tail_blend_lp()) == 39
    # case3's constant-Psi blend LP falls into one block of rows per vertex,
    # so it keeps two phases: 4 pivots, as before the start existed
    prob = cases.case3_problem()
    psis, deltas = prob.stack.eval(prob.hull.vertices)
    lo, hi = prob.input_set.bounds()
    blend = optcore.margin_problem(psis, deltas, prob.input_set, lo, hi,
                                   per_vertex=True)
    assert _pivot_count(monkeypatch, blend) == 4
    # a dual box LP has negative rows, but each column is positive in some
    # row, so no column can start it: two phases, 3 pivots as before
    dual = _dual_of_box_lp(_random_box_lp(np.random.default_rng(2024)))
    assert (dual.b_ineq < 0).any()
    assert _pivot_count(monkeypatch, dual) == 3


def test_a_start_that_leaves_a_negative_row_runs_both_phases(monkeypatch):
    # a start pivot at the least violated row leaves the others negative,
    # so the LP runs both phases and keeps their bits
    prob = cases.case3_problem()
    psis, deltas = prob.stack.eval(prob.hull.vertices)
    lo, hi = prob.input_set.bounds()
    common = optcore.margin_problem(psis, deltas, prob.input_set, lo, hi)
    start_pivot = optcore._start_pivot

    def least_violated(A2, b2, var):
        _, j = start_pivot(A2, b2, var)
        neg = (b2 < 0).nonzero()[0]
        ratios = b2[neg] / A2[neg, j]
        assert ratios.min() < ratios.max()
        return int(neg[ratios.argmin()]), j

    (status,), (x,), _ = optcore._solve_lanes(
        common.c, common.a_ineq[None], common.b_ineq[None], common.lo, common.hi,
        DEFAULT)
    monkeypatch.setattr(optcore, "_start_pivot", least_violated)
    res = solve_lp(common)
    assert res.status == status == "optimal"
    assert np.array_equal(_bits(res.z), _bits(x))


@pytest.mark.parametrize("varying,rhos", [(False, (0.6, 1.2)), (True, (0.6, 1.5))])
def test_corridor_vertex_lps_match_highs(monkeypatch, varying, rhos):
    # every LP of the cascade on seeded corridors, common and joint blend,
    # most of them with the feasible start
    from scipy.optimize import linprog
    from test_lp_bits import corridor

    lps = []

    def spy(prob, tol=DEFAULT):
        lps.append((prob, solve_lp(prob, tol)))
        return lps[-1][1]

    monkeypatch.setattr(certificates, "solve_lp", spy)
    for n, m, rho in product((2, 3, 4), (1, 2), rhos):
        certify(*corridor(2, n, m, rho, varying))
    assert len(lps) >= 12
    for prob, res in lps:
        ref = linprog(-prob.c, A_ub=prob.a_ineq, b_ub=prob.b_ineq,
                      bounds=list(zip(prob.lo, prob.hi)), method="highs")
        assert res.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        if ref.status == 0:
            assert res.value == pytest.approx(-ref.fun, abs=1e-6)


# --------------------------------------------------------------------------
# margin LP


def test_margin_problem_layouts():
    prob = cases.case3_problem()
    psis, deltas = prob.stack.eval(prob.hull.vertices)
    lo, hi = prob.input_set.bounds()
    N, p, m = psis.shape
    # constant Psi: one margin block per vertex and no coupling rows
    lp = optcore.margin_problem(psis, deltas, prob.input_set, lo, hi,
                                per_vertex=True)
    assert lp.a_ineq.shape == (N * p, N * m + 1)

    # varying Psi with a polytope row: margin blocks, one coupling block per
    # vertex pair, then one copy of the polytope per vertex input
    stack, hull, box = _varying_corridor(np.random.default_rng(2), 2, 2, 1.0)
    G, b = np.array([[1.0, 1.0]]), np.array([1.5])
    us = InputSet(box=box.box, polytope=(G, b))
    psis, deltas = stack.eval(hull.vertices)
    lo, hi = us.bounds()
    N, p, m = psis.shape
    lp = optcore.margin_problem(psis, deltas, us, lo, hi, per_vertex=True)
    assert lp.a_ineq.shape == (N * p + N * (N - 1) // 2 * p + N * 1, N * m + 1)
    assert np.array_equal(lp.a_ineq[-1], np.concatenate([np.zeros((N - 1) * m),
                                                         G[0], [0.0]]))


def test_margin_lp_solves_the_single_state_layout(monkeypatch):
    lps = []
    solve_lanes = optcore._solve_lanes

    def spy(c, A, b, lo, hi, tol):
        (a_ineq,), (b_ineq,) = A, b  # one lane
        lps.append(LpProblem(c, a_ineq, b_ineq, lo, hi))
        return solve_lanes(c, A, b, lo, hi, tol)

    stack, hull, box = _varying_corridor(np.random.default_rng(2), 2, 2, 1.0)
    us = InputSet(box=box.box, polytope=(np.array([[1.0, 1.0]]), np.array([1.5])))
    psi, delta = stack.psi_at(hull.vertices[1]), stack.delta_at(hull.vertices[1])
    monkeypatch.setattr(optcore, "_solve_lanes", spy)
    margin_lp(psi, delta, us)
    lo, hi = us.bounds()
    want = optcore.margin_problem(psi[None], delta[None], us, lo, hi)
    (got,) = lps
    for field in ("c", "a_ineq", "b_ineq", "lo", "hi"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    # rows [-Psi | 1] then [G | 0]; maximize t over box-bounded u
    G, b = us.polytope
    assert np.array_equal(got.a_ineq, np.vstack([
        np.hstack([-psi, np.ones((stack.p, 1))]), np.hstack([G, [[0.0]]])]))
    assert np.array_equal(got.b_ineq, np.concatenate([delta, b]))
    assert np.array_equal(got.c, [0.0, 0.0, 1.0])
    assert np.array_equal(got.lo, [-1.0, -1.0, -np.inf])


def test_margin_lp_example1_values():
    prob = cases.example1_problem()
    st, us = prob.stack, prob.input_set
    status, t, u = margin_lp(st.psi_at(np.array([1.5])),
                             st.delta_at(np.array([1.5])), us)
    assert status == "optimal"
    assert t == pytest.approx(-7.0 / 58.0, abs=1e-9)
    assert u[0] == pytest.approx(40.0 / 29.0, abs=1e-9)
    status, t, u = margin_lp(st.psi_at(np.array([0.0])),
                             st.delta_at(np.array([0.0])), us)
    assert t == pytest.approx(10.0 / 17.0, abs=1e-9)


def test_margin_lp_unbounded():
    # single row u >= t with a free input: push u (and t) to +inf
    prob = cases.example1_problem()
    st = prob.stack
    free = InputSet(polytope=(np.zeros((1, 1)), np.ones(1)))
    x = np.array([0.0])
    status, t, u = margin_lp(st.psi_at(x)[1:], st.delta_at(x)[1:], free)
    assert status == "unbounded"
    assert t == np.inf
    assert u is None


# --------------------------------------------------------------------------
# lockstep margin LPs


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def _lockstep_case(seed: int, m: int, p: int, kind: str, K: int = 24):
    """Margin-LP data of a random quadratic stack at K states, and an input
    set: a box, a box with polytope rows, or polytope rows alone."""
    rng = np.random.default_rng(seed)
    n = 2

    def quad(offset):
        return QuadFunc(Q=rng.normal(0.0, 0.3, (n, n)), c=rng.normal(0.0, 0.5, n),
                        d=offset + rng.normal(0.0, 0.3))

    stack = StackedMap([[quad(rng.choice([-1.0, 1.0])) for _ in range(m)]
                        for _ in range(p)], [quad(0.3) for _ in range(p)])
    psis, deltas = stack.eval(rng.uniform(-1.5, 1.5, (K, n)))
    # a repeated row in every other state makes ratio-test ties, which the
    # smallest-basis-index rule must break as solve_lp does
    psis[::2, -1], deltas[::2, -1] = psis[::2, 0], deltas[::2, 0]
    box = (-np.ones(m), np.ones(m))
    G = rng.normal(size=(2, m))
    rows = (G, rng.uniform(0.2, 1.0, 2))
    if kind == "box":
        return psis, deltas, InputSet(box=box)
    if kind == "box+rows":
        return psis, deltas, InputSet(box=box, polytope=rows)
    # u >= -1 only: the last state's all-positive Psi grows every row along
    # the recession direction u = (1, ..., 1), so its margin is unbounded
    psis[-1] = np.abs(psis[-1]) + 0.1
    return psis, deltas, InputSet(polytope=(-np.eye(m), np.ones(m)))


def _assert_lanes_match_margin_lp(psis, deltas, input_set, tol=DEFAULT):
    t, U = optcore.margin_lps(psis, deltas, input_set, tol)
    for k in range(psis.shape[0]):
        status, t_k, u_k = margin_lp(psis[k], deltas[k], input_set, tol)
        assert _bits(t[k]) == _bits(t_k)
        if status == "optimal":
            assert np.array_equal(_bits(U[k]), _bits(u_k))
        else:
            assert np.isnan(U[k]).all()
    return t


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 3), p=st.integers(1, 6),
       kind=st.sampled_from(["box", "box+rows", "rows"]))
def test_margin_lps_equal_margin_lp_bit_for_bit(seed, m, p, kind):
    t = _assert_lanes_match_margin_lp(*_lockstep_case(seed, m, p, kind))
    if kind == "rows":
        assert t[-1] == np.inf


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 3), p=st.integers(1, 6),
       kind=st.sampled_from(["box", "box+rows", "rows"]))
def test_solve_lp_with_the_start_agrees_with_two_phase_margin_lp(seed, m, p, kind):
    # solve_lp takes the feasible start where the shifted rows are
    # negative; margin_lp, like a scan lane, runs both phases
    psis, deltas, input_set = _lockstep_case(seed, m, p, kind, K=1)
    lo, hi = input_set.bounds()
    prob = optcore.margin_problem(psis, deltas, input_set, lo, hi)
    res = solve_lp(prob)
    status, t, u = margin_lp(psis[0], deltas[0], input_set)
    assert res.status == status
    if status == "optimal":
        assert abs(res.value - t) <= 1e-12 * (1.0 + abs(t))
        for z in (res.z, np.append(u, t)):
            assert np.all(prob.a_ineq @ z <= prob.b_ineq + 1e-9)
            assert np.all((z >= prob.lo - 1e-9) & (z <= prob.hi + 1e-9))


def test_margin_lps_chunks_and_sparse_pivots_keep_the_bits(monkeypatch):
    # several lockstep solves per call, against margin_lp's one-lane
    # kernel, which updates only the pivot row's support
    monkeypatch.setattr(optcore, "_LANES", 7)
    for seed, kind in enumerate(["box", "box+rows", "rows"]):
        _assert_lanes_match_margin_lp(*_lockstep_case(seed, 2, 5, kind, K=30))


def test_margin_lps_raise_the_first_failing_lane_error():
    psis, deltas, input_set = _lockstep_case(3, 2, 4, "box")
    strict = Tolerances(pivot=10.0)  # no pivot is ever large enough
    deltas[3, 1] = np.inf  # a later state fails in another way
    with pytest.raises(NumericalFailure, match="pivot magnitude") as scalar:
        for k in range(psis.shape[0]):
            margin_lp(psis[k], deltas[k], input_set, strict)
    with pytest.raises(NumericalFailure) as lockstep:
        optcore.margin_lps(psis, deltas, input_set, strict)
    assert str(lockstep.value) == str(scalar.value)


def test_margin_lps_reject_non_finite_states_like_margin_lp():
    psis, deltas, input_set = _lockstep_case(5, 1, 2, "box")
    deltas[3, 1] = np.inf
    with pytest.raises(ValueError, match="must be finite"):
        margin_lp(psis[3], deltas[3], input_set)
    with pytest.raises(ValueError, match="must be finite"):
        optcore.margin_lps(psis, deltas, input_set)


# --------------------------------------------------------------------------
# projection QP


def _qp_brute_force_1d(u_des, psi, delta, lo, hi, step=1e-4):
    grid = np.arange(lo, hi + step / 2, step)
    feas = grid[(psi[None, :, 0] * grid[:, None] + delta).min(axis=1) >= 0]
    assert feas.size
    return feas[np.argmin((feas - u_des) ** 2)]


def test_qp_matches_brute_force_on_scalar_input():
    rng = np.random.default_rng(5)
    us = InputSet(box=(np.array([-2.0]), np.array([2.0])))
    for _ in range(40):
        p = int(rng.integers(1, 4))
        psi = rng.normal(size=(p, 1))
        u0 = rng.uniform(-1.5, 1.5)
        delta = -psi[:, 0] * u0 + rng.uniform(0.05, 1.0, size=p)
        u_des = rng.uniform(-3.0, 3.0, size=1)
        sol = solve_qp_projection(u_des, psi, delta, us)
        ref = _qp_brute_force_1d(float(u_des[0]), psi, delta, -2.0, 2.0)
        assert abs(float(sol.u[0]) - ref) <= 2e-4


def test_qp_kkt_residuals_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        psi = rng.normal(size=(p, m))
        lo = -np.ones(m)
        hi = np.ones(m)
        us = InputSet(box=(lo, hi))
        u0 = rng.uniform(-0.8, 0.8, size=m)
        delta = -(psi @ u0) + rng.uniform(0.01, 0.5, size=p)
        u_des = rng.uniform(-2.0, 2.0, size=m)
        sol = solve_qp_projection(u_des, psi, delta, us)
        G, b = us.to_polytope()
        stat = sol.u - u_des - psi.T @ sol.lam + G.T @ sol.nu
        assert np.max(np.abs(stat)) <= 1e-8
        assert np.all(psi @ sol.u + delta >= -1e-8)
        assert np.all(G @ sol.u - b <= 1e-8)
        assert np.all(sol.lam >= 0) and np.all(sol.nu >= 0)
        comp = np.concatenate([sol.lam, sol.nu]) * np.concatenate(
            [psi @ sol.u + delta, b - G @ sol.u])
        assert np.max(np.abs(comp)) <= 1e-6


def test_qp_unconstrained_interior():
    us = InputSet(box=(np.array([-5.0, -5.0]), np.array([5.0, 5.0])))
    psi = np.array([[1.0, 0.0]])
    delta = np.array([10.0])
    sol = solve_qp_projection(np.array([0.5, -0.5]), psi, delta, us)
    assert np.allclose(sol.u, [0.5, -0.5])
    assert sol.active_cbf == () and sol.active_input == ()
    assert np.all(sol.lam == 0) and np.all(sol.nu == 0)


def test_qp_infeasible_raises_with_margin():
    us = InputSet(box=(np.array([0.0]), np.array([1.0])))
    psi = np.array([[1.0], [-1.0]])
    delta = np.array([-2.0, 0.0])  # u >= 2 and u <= 0: empty
    with pytest.raises(InfeasibleQP) as exc:
        solve_qp_projection(np.zeros(1), psi, delta, us)
    assert exc.value.margin < 0


def test_qp_active_sets_and_multipliers_example():
    # example1 at x = 3: rows u + 9 >= 0 and u - 3 >= 0, box [0, 10]
    prob = cases.example1_problem()
    st, us = prob.stack, prob.input_set
    x = np.array([3.0])
    sol = solve_qp_projection(np.zeros(1), st.psi_at(x), st.delta_at(x), us)
    assert sol.u[0] == pytest.approx(3.0, abs=1e-9)
    assert sol.active_cbf == (1,)
    assert sol.lam[1] == pytest.approx(3.0, abs=1e-9)  # u - u_des = lam psi


def test_qp_weakly_active_classification():
    # desired input exactly on the constraint boundary: active with zero
    # multiplier
    us = InputSet(box=(np.array([-5.0]), np.array([5.0])))
    psi = np.array([[1.0]])
    delta = np.array([0.0])  # u >= 0
    sol = solve_qp_projection(np.array([0.0]), psi, delta, us)
    assert sol.active_cbf == (0,)
    assert sol.weakly_active_cbf == (0,)
    assert sol.lam[0] == 0.0


def test_qp_idempotent_resolve():
    prob = cases.case2_problem()
    st, us = prob.stack, prob.input_set
    x = np.array([25.0, 25.0, 25.0])
    ud = np.array([0.0, 0.3, 1.0])
    hint = np.full(3, 0.78)
    a = solve_qp_projection(ud, st.psi_at(x), st.delta_at(x), us,
                            feasible_hints=(hint,))
    b = solve_qp_projection(ud, st.psi_at(x), st.delta_at(x), us,
                            feasible_hints=(hint,))
    assert np.array_equal(a.u, b.u)
    assert a.active_cbf == b.active_cbf and a.active_input == b.active_input
    # solving again starting from the optimum changes nothing
    c = solve_qp_projection(ud, st.psi_at(x), st.delta_at(x), us, start=a.u,
                            feasible_hints=(hint,))
    assert np.allclose(a.u, c.u, atol=1e-10)


def test_warm_qp_matches_cold_along_a_sweep():
    prob = cases.case3_problem()
    st, us = prob.stack, prob.input_set
    warm = WarmQp(us)
    aff = st.affine_arrays()
    # path stays inside the feasible corridor |1.1 x1 + 1.9 x2| <= 2;
    # even count skips s = 0 where two parallel rows tie and the
    # multiplier split is not unique
    for s in np.linspace(-0.95, 0.95, 40):
        x = np.array([s, -0.4 * s + 0.3 * np.sin(3 * s)])
        ud = np.array([1.5])
        w = warm.solve(ud, aff.psi_at(x), aff.delta_at(x))
        c = solve_qp_projection(ud, aff.psi_at(x), aff.delta_at(x), us)
        assert np.allclose(w.u, c.u, atol=1e-9)
        assert np.allclose(w.lam, c.lam, atol=1e-8)
        aw = tuple(i for i in w.active_cbf if i not in w.weakly_active_cbf)
        ac = tuple(i for i in c.active_cbf if i not in c.weakly_active_cbf)
        assert aw == ac


def test_warm_qp_infeasible_still_raises():
    us = InputSet(box=(np.array([0.0]), np.array([1.0])))
    warm = WarmQp(us)
    psi = np.array([[1.0], [-1.0]])
    with pytest.raises(InfeasibleQP):
        warm.solve(np.zeros(1), psi, np.array([-2.0, 0.0]))


if __name__ == "__main__":
    # Rewrite the outputs of both frozen-bits fixtures, only when a change
    # is meant to move LP bits:  PYTHONPATH=src python tests/test_optcore.py --write
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_optcore.py --write")
    data = dict(np.load(DATA / "solve_lp_frozen.npz"))
    for k in range(int(data["count"])):
        for name, arr in _frozen_outputs(solve_lp(_frozen_lp(data, k))).items():
            data[f"{k}_{name}"] = arr
    np.savez_compressed(DATA / "solve_lp_frozen.npz", **data)
    tail = _frozen_outputs(solve_lp(_tail_blend_lp()))
    np.savez_compressed(DATA / "joint_blend_1120_frozen.npz",
                        **{name: tail[name] for name in ("z", "value", "active_rows")})
