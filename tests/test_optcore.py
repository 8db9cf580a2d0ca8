from itertools import product
from pathlib import Path

import numpy as np
import pytest

from hullcert import (DEFAULT, Hull, InfeasibleQP, InputSet, LpProblem,
                      NumericalFailure, QuadFunc, StackedMap, WarmQp,
                      cpc_blend_joint, margin_lp, solve_lp, solve_qp_projection)
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


def _random_tableau(rng, rows, cols, row_nnz):
    """Tableau with zeros scattered through it and a sparse pivot row."""
    T = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.3)
    i = int(rng.integers(rows))
    T[i] = 0.0
    T[i, rng.choice(cols, row_nnz, replace=False)] = rng.normal(size=row_nnz)
    j = int(rng.choice(np.flatnonzero(T[i])))
    return T, i, j


@pytest.mark.parametrize("rows,cols", [(8, 12), (30, 40), (150, 160), (300, 330)])
def test_sparse_pivot_equals_dense_rank_one_update(rows, cols):
    rng = np.random.default_rng(rows)
    for _ in range(20):
        T, i, j = _random_tableau(rng, rows, cols, int(rng.integers(1, 12)))
        # the dense rank-1 update, written out
        ref = T.copy()
        ref[i] /= ref[i, j]
        col = ref[:, j].copy()
        col[i] = 0.0
        ref -= np.outer(col, ref[i])
        got, basis = T.copy(), np.zeros(rows, dtype=int)
        optcore._pivot(got, basis, i, j)
        assert np.array_equal(got, ref)
        assert basis[i] == j
    # the first two sizes take the dense update, the last two the sparse one
    assert (rows * cols > optcore._SPARSE_PIVOT_CELLS) == (rows >= 150)


def test_lp_ratio_test_skips_roundoff_entries():
    # A joint-blend LP (n=4, m=2, p=8, varying Psi) whose entering columns
    # carry roundoff entries of 1e-10 to 3e-10.  Pivoting on them blew the
    # tableau up, and the simplex returned an infeasible point.  The optimum
    # is the one scipy's HiGHS reports.
    data = np.load(Path(__file__).parent / "data" / "joint_blend_roundoff_pivot.npz")
    res = solve_lp(LpProblem.maximize(data["c"], data["a_ineq"], data["b_ineq"],
                                      data["lo"], data["hi"]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(-2.8663286406934425, abs=1e-6)


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


# --------------------------------------------------------------------------
# margin LP


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


def test_margin_lp_cone_clipping():
    prob = cases.example1_problem()
    st, us = prob.stack, prob.input_set
    x = np.array([0.0])
    # clipping the input to [0, 0] leaves only u = 0: margin = min(10, 0) = 0
    status, t, u = margin_lp(st.psi_at(x), st.delta_at(x), us,
                             cone_lo=np.zeros(1), cone_hi=np.zeros(1))
    assert status == "optimal"
    assert t == pytest.approx(0.0, abs=1e-12)
    status, t, u = margin_lp(st.psi_at(x), st.delta_at(x), us,
                             cone_lo=np.array([11.0]))
    assert status == "infeasible"


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
