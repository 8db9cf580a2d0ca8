"""Dense LP and projection-QP solvers with exact active-set output.

Both solvers are deliberately self-contained: a two-phase tableau simplex with
Bland's rule for linear programs, and a primal active-set method for the
identity-Hessian projection QP.  Pivot order is reproducible.

The simplex keeps a dense tableau.  Most LPs here are tiny, but the joint
blend LP couples every pair of hull vertices and reaches thousands of rows and
columns, while its normalised pivot row has only tens of nonzeros.  On
tableaus above ``_SPARSE_PIVOT_CELLS`` a pivot therefore updates only the
columns in the pivot row's support.  That is exact: each updated entry gets
the same single product and subtraction as in the dense rank-1 update, and
each skipped entry would have had an exact zero subtracted from a finite
value, so pivots, bases and results are unchanged (up to the sign of a zero).
Smaller tableaus keep the dense update, which costs one numpy call instead of
one per column.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import InputSet
from .tolerances import DEFAULT, Tolerances


class NumericalFailure(RuntimeError):
    """The solver lost feasibility or ran out of safe pivots."""


class InfeasibleQP(RuntimeError):
    """The QP constraint set is empty at this state."""

    def __init__(self, margin: float):
        self.margin = margin
        super().__init__(f"constraints are infeasible (best margin {margin:.6g})")


@dataclass(frozen=True)
class LpProblem:
    """maximize c'z  subject to  A z <= b  and  lo <= z <= hi (+-inf allowed)."""

    c: np.ndarray
    a_ineq: np.ndarray
    b_ineq: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def maximize(cls, c, a_ineq=None, b_ineq=None, lo=None, hi=None) -> "LpProblem":
        c = np.atleast_1d(np.asarray(c, dtype=float))
        nv = c.shape[0]
        if a_ineq is None:
            a_ineq = np.zeros((0, nv))
            b_ineq = np.zeros(0)
        else:
            a_ineq = np.atleast_2d(np.asarray(a_ineq, dtype=float))
            b_ineq = np.atleast_1d(np.asarray(b_ineq, dtype=float))
        if a_ineq.shape != (b_ineq.shape[0], nv):
            raise ValueError("inequality rows and offsets disagree")
        lo = np.full(nv, -np.inf) if lo is None else np.asarray(lo, dtype=float).copy()
        hi = np.full(nv, np.inf) if hi is None else np.asarray(hi, dtype=float).copy()
        if lo.shape != (nv,) or hi.shape != (nv,):
            raise ValueError("bound vectors have the wrong length")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a_ineq))
                and np.all(np.isfinite(b_ineq))):
            raise ValueError("objective and rows must be finite")
        return cls(c, a_ineq, b_ineq, lo, hi)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    z: np.ndarray | None = None
    value: float | None = None
    active_rows: tuple[int, ...] = ()


# Entering-column entries at or below this count as zero in the ratio test.
# Pivoting on roundoff-sized entries (1e-10 to 3e-10 seen on joint-blend LPs)
# blows the tableau up to 1e21 and returns an infeasible point.
_RATIO_EPS = 1e-9

# Tableaus with more cells than this update only the pivot row's support.
# Each column costs one numpy call (a few us), so below this size the single
# dense rank-1 update is faster.  Measured on the certify cascade's LPs: dense
# mostly wins up to 10,000 cells, they tie near 18,000, and from 19,000 cells
# on the per-column update wins (about 3x at 100,000 cells, 6-9x on the
# 1.3M-cell joint-blend tableaus).  Oracle scans stay under 200 cells and
# closed-loop rollouts under 600, so they keep the dense update.
_SPARSE_PIVOT_CELLS = 15_000


def _pivot(T: np.ndarray, basis: np.ndarray, i: int, j: int):
    T[i] /= T[i, j]
    col = T[:, j].copy()
    col[i] = 0.0
    row = T[i]
    if T.size > _SPARSE_PIVOT_CELLS:
        for k in np.flatnonzero(row):
            T[:, k] -= row[k] * col
    else:
        T -= np.outer(col, row)
    basis[i] = j


def _run_simplex(T: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                 allow_cols: int, tol: Tolerances, max_iter: int) -> str:
    """Minimize cost over the tableau in place. Returns 'optimal' or 'unbounded'.

    Entering and leaving variables follow Bland's rule (smallest index), which
    rules out cycling.
    """
    ncols = T.shape[1] - 1
    r = np.zeros(ncols + 1)
    r[:cost.shape[0]] = cost
    for i, bv in enumerate(basis):
        if r[bv] != 0.0:
            r -= r[bv] * T[i]
    for _ in range(max_iter):
        cand = np.flatnonzero(r[:allow_cols] < -1e-9)
        if cand.size == 0:
            return "optimal"
        j = int(cand[0])
        col = T[:, j]
        pos = col > _RATIO_EPS
        if not pos.any():
            return "unbounded"
        ratios = np.where(pos, np.maximum(T[:, -1], 0.0) / np.where(pos, col, 1.0), np.inf)
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-12)
        i = int(ties[np.argmin(basis[ties])])
        if abs(T[i, j]) < tol.pivot:
            raise NumericalFailure("pivot magnitude below tolerance")
        _pivot(T, basis, i, j)
        r -= r[j] * T[i]
    raise NumericalFailure("simplex iteration limit reached")


def solve_lp(prob: LpProblem, tol: Tolerances = DEFAULT) -> LpResult:
    """Two-phase dense simplex. Reports optimum, infeasibility, or unboundedness."""
    c, A, b = prob.c, prob.a_ineq, prob.b_ineq
    lo, hi = prob.lo, prob.hi
    nv = c.shape[0]
    if np.any(lo > hi):
        return LpResult("infeasible")

    # Rewrite x = off + M y with y >= 0; two-sided bounds add explicit rows.
    off = np.zeros(nv)
    col_var: list[int] = []
    col_sign: list[float] = []
    upper_rows: list[tuple[int, float]] = []
    for k in range(nv):
        lk, hk = lo[k], hi[k]
        if np.isfinite(lk):
            off[k] = lk
            col_var.append(k)
            col_sign.append(1.0)
            if np.isfinite(hk):
                upper_rows.append((len(col_var) - 1, hk - lk))
        elif np.isfinite(hk):
            off[k] = hk
            col_var.append(k)
            col_sign.append(-1.0)
        else:
            col_var += [k, k]
            col_sign += [1.0, -1.0]
    ny = len(col_var)
    M = np.zeros((nv, ny))
    M[col_var, np.arange(ny)] = col_sign

    A2 = A @ M if A.size else np.zeros((0, ny))
    b2 = b - A @ off if A.size else b.copy()
    if upper_rows:
        extra = np.zeros((len(upper_rows), ny))
        extra_b = np.zeros(len(upper_rows))
        for r_i, (j, ub) in enumerate(upper_rows):
            extra[r_i, j] = 1.0
            extra_b[r_i] = ub
        A2 = np.vstack([A2, extra])
        b2 = np.concatenate([b2, extra_b])

    m2 = b2.shape[0]
    body = np.hstack([A2, np.eye(m2)]) if m2 else np.zeros((0, ny))
    rhs = b2.copy()
    neg = rhs < 0
    if m2:
        body[neg] *= -1.0
        rhs[neg] *= -1.0
    art_rows = np.flatnonzero(neg)
    na = art_rows.shape[0]
    art_block = np.zeros((m2, na))
    art_block[art_rows, np.arange(na)] = 1.0
    T = np.hstack([body, art_block, rhs[:, None]])
    basis = np.empty(m2, dtype=int)
    pos_rows = np.flatnonzero(~neg)
    basis[pos_rows] = ny + pos_rows
    basis[art_rows] = ny + m2 + np.arange(na)
    ncols_real = ny + m2
    max_iter = 200 + 50 * (m2 + ny)

    if na:
        cost1 = np.zeros(ncols_real + na)
        cost1[ncols_real:] = 1.0
        status = _run_simplex(T, basis, cost1, ncols_real + na, tol, max_iter)
        if status == "unbounded":
            raise NumericalFailure("phase one cannot be unbounded")
        obj1 = float(cost1[basis] @ T[:, -1])
        if obj1 > 1e-8:
            return LpResult("infeasible")
        # Pivot leftover artificials out of the basis where possible.
        for i in range(m2):
            if basis[i] >= ncols_real:
                row = T[i, :ncols_real]
                nz = np.flatnonzero(np.abs(row) > 1e-9)
                if nz.size:
                    _pivot(T, basis, i, int(nz[0]))

    c2 = M.T @ c
    cost2 = np.zeros(ncols_real + na)
    cost2[:ny] = -c2
    status = _run_simplex(T, basis, cost2, ncols_real, tol, max_iter)
    if status == "unbounded":
        return LpResult("unbounded")

    y = np.zeros(ncols_real + na)
    y[basis] = T[:, -1]
    x = off + M @ y[:ny]
    # Guard against drift: the reported point must actually be feasible.
    if A.size and np.any(A @ x - b > 1e-7):
        raise NumericalFailure("simplex returned an infeasible point")
    if np.any(x < lo - 1e-7) or np.any(x > hi + 1e-7):
        raise NumericalFailure("simplex returned a point outside the bounds")
    active = tuple(np.flatnonzero(np.abs(A @ x - b) <= tol.active)) if A.size else ()
    return LpResult("optimal", z=x, value=float(c @ x), active_rows=active)


def margin_lp(psi_x: np.ndarray, delta_x: np.ndarray, input_set: InputSet,
              cone_lo=None, cone_hi=None,
              tol: Tolerances = DEFAULT) -> tuple[str, float, np.ndarray | None]:
    """maximize t  s.t.  Psi u + delta >= t 1,  u admissible (optionally cone-clipped).

    Returns (status, t, u).  Infeasible means the admissible set itself is
    empty (possible once cone bounds are imposed); unbounded can only occur
    for unbounded admissible sets.
    """
    psi_x = np.atleast_2d(np.asarray(psi_x, dtype=float))
    delta_x = np.atleast_1d(np.asarray(delta_x, dtype=float))
    p, m = psi_x.shape
    lo, hi = input_set.bounds()
    if cone_lo is not None:
        lo = np.maximum(lo, cone_lo)
    if cone_hi is not None:
        hi = np.minimum(hi, cone_hi)
    if np.any(lo > hi + 1e-15):
        return "infeasible", -np.inf, None
    rows = [np.hstack([-psi_x, np.ones((p, 1))])]
    offs = [delta_x]
    if input_set.polytope is not None:
        G, b = input_set.polytope
        rows.append(np.hstack([G, np.zeros((G.shape[0], 1))]))
        offs.append(b)
    c = np.zeros(m + 1)
    c[m] = 1.0
    prob = LpProblem.maximize(
        c, a_ineq=np.vstack(rows), b_ineq=np.concatenate(offs),
        lo=np.concatenate([lo, [-np.inf]]), hi=np.concatenate([hi, [np.inf]]))
    res = solve_lp(prob, tol)
    if res.status == "optimal":
        return "optimal", float(res.z[m]), res.z[:m]
    if res.status == "unbounded":
        return "unbounded", np.inf, None
    return "infeasible", -np.inf, None


@dataclass
class QpSolution:
    """Projection-QP optimum with exact active sets and multipliers.

    Active sets are 0-based row indices: ``active_cbf`` into the p stacked
    rows, ``active_input`` into the canonical polytope rows of the input set.
    Multipliers follow the convention u - u_des - Psi' lam + G' nu = 0 with
    lam, nu >= 0 for rows written Psi u + delta >= 0 and G u <= b.
    """

    u: np.ndarray
    active_cbf: tuple[int, ...]
    active_input: tuple[int, ...]
    lam: np.ndarray
    nu: np.ndarray
    value: float
    iterations: int
    weakly_active_cbf: tuple[int, ...] = ()
    weakly_active_input: tuple[int, ...] = ()


def _independent_subset(C: np.ndarray, rows: list[int]) -> list[int]:
    keep: list[int] = []
    for i in rows:
        trial = C[keep + [i]]
        if np.linalg.matrix_rank(trial, tol=1e-10) == len(keep) + 1:
            keep.append(i)
    return keep


def solve_qp_projection(u_des, psi_x, delta_x, input_set: InputSet,
                        tol: Tolerances = DEFAULT,
                        start: np.ndarray | None = None,
                        feasible_hints=()) -> QpSolution:
    """minimize 1/2 ||u - u_des||^2  s.t.  Psi u + delta >= 0,  u admissible.

    Primal active-set method on the unified row form C u >= d.  The method
    needs a feasible start: u_des itself, any caller hint, or the margin LP
    provide one.  Smallest-index tie-breaking keeps pivoting reproducible.
    """
    u_des = np.atleast_1d(np.asarray(u_des, dtype=float))
    psi_x = np.atleast_2d(np.asarray(psi_x, dtype=float))
    delta_x = np.atleast_1d(np.asarray(delta_x, dtype=float))
    p, m = psi_x.shape
    G, bvec = input_set.to_polytope()
    q = G.shape[0]
    C = np.vstack([psi_x, -G])
    d = np.concatenate([-delta_x, -bvec])
    nrows = p + q

    u0 = None
    for cand in (u_des, start, *feasible_hints):
        if cand is None:
            continue
        cand = np.asarray(cand, dtype=float)
        if cand.shape == (m,) and np.all(C @ cand - d >= -1e-11):
            u0 = cand.copy()
            break
    if u0 is None:
        status, t_star, u_lp = margin_lp(psi_x, delta_x, input_set, tol=tol)
        if status == "infeasible" or t_star < -tol.feas:
            raise InfeasibleQP(t_star)
        u0 = u_lp

    u = u0
    resid = C @ u - d
    W = _independent_subset(C, [int(i) for i in np.flatnonzero(resid <= tol.active)])
    lam_W = np.zeros(len(W))
    max_iter = 100 + 20 * nrows
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        if W:
            CW = C[W]
            gram = CW @ CW.T
            try:
                alpha = np.linalg.solve(gram, d[W] - CW @ u_des)
            except np.linalg.LinAlgError:
                W = _independent_subset(C, W)
                continue
            u_eq = u_des + CW.T @ alpha
            lam_W = alpha
        else:
            u_eq = u_des.copy()
            lam_W = np.zeros(0)
        step = u_eq - u
        if np.max(np.abs(step)) <= 1e-11:
            u = u_eq
            if len(lam_W) == 0 or lam_W.min() >= -1e-9:
                break
            # Drop the most negative multiplier, smallest row index on ties.
            worst_val = lam_W.min()
            cand = np.flatnonzero(lam_W <= worst_val + 1e-15)
            drop = min((int(i) for i in cand), key=lambda i: W[i])
            W.pop(drop)
        else:
            Cstep = C @ step
            resid = C @ u - d
            alpha_step = 1.0
            blocker = None
            in_W = set(W)
            for i in range(nrows):
                if i in in_W or Cstep[i] >= -1e-12:
                    continue
                a_i = max(resid[i] / (-Cstep[i]), 0.0)
                # Strict improvement => ties resolve to the smallest index.
                if a_i < alpha_step - 1e-15:
                    alpha_step = a_i
                    blocker = i
            if blocker is None:
                u = u_eq
            else:
                u = u + alpha_step * step
                W.append(blocker)
                W.sort()
    else:
        raise NumericalFailure("active-set iteration limit reached")

    lam = np.zeros(p)
    nu = np.zeros(q)
    for idx, row in enumerate(W):
        if row < p:
            lam[row] = float(lam_W[idx])
        else:
            nu[row - p] = float(lam_W[idx])

    resid = C @ u - d
    stat = u - u_des - psi_x.T @ lam + G.T @ nu
    if np.max(np.abs(stat)) > 1e-8:
        raise NumericalFailure("stationarity residual above tolerance")
    if np.min(resid) < -tol.feas:
        raise NumericalFailure("QP result violates a constraint")
    comp = np.concatenate([lam, nu]) * resid
    if np.max(np.abs(comp)) > 1e-6:
        raise NumericalFailure("complementary slackness violated")
    np.clip(lam, 0.0, None, out=lam)
    np.clip(nu, 0.0, None, out=nu)

    act = np.flatnonzero(resid <= tol.active)
    mults = np.concatenate([lam, nu])
    active_cbf = tuple(int(i) for i in act if i < p)
    active_input = tuple(int(i) - p for i in act if i >= p)
    weak_cbf = tuple(i for i in active_cbf if mults[i] <= tol.active)
    weak_inp = tuple(i for i in active_input if mults[p + i] <= tol.active)
    return QpSolution(
        u=u, active_cbf=active_cbf, active_input=active_input, lam=lam, nu=nu,
        value=float(0.5 * np.dot(u - u_des, u - u_des)), iterations=iterations,
        weakly_active_cbf=weak_cbf, weakly_active_input=weak_inp)


@dataclass
class WarmQp:
    """Warm-started projection QP for sequences of nearby states.

    Re-solving the equality system of the previous active set and checking the
    full KKT conditions is sufficient for optimality, so the common case costs
    one small solve.  Any check failure falls back to the full method.
    """

    input_set: InputSet
    tol: Tolerances = field(default_factory=lambda: DEFAULT)
    _last_rows: tuple[int, ...] = ()
    _last_u: np.ndarray | None = None
    hints: tuple = ()
    # constants across a sweep: the input polytope, and the stacked row
    # matrix whenever Psi does not change between calls
    _Gb: tuple[np.ndarray, np.ndarray] | None = None
    _psi_ref: np.ndarray | None = None
    _C: np.ndarray | None = None

    def _package(self, u, u_des, resid, lam, nu, p: int) -> QpSolution:
        act = np.flatnonzero(resid <= self.tol.active)
        mults = np.concatenate([lam, nu])
        active_cbf = tuple(int(i) for i in act if i < p)
        active_input = tuple(int(i) - p for i in act if i >= p)
        return QpSolution(
            u=u, active_cbf=active_cbf, active_input=active_input,
            lam=lam, nu=nu,
            value=float(0.5 * np.dot(u - u_des, u - u_des)), iterations=0,
            weakly_active_cbf=tuple(
                i for i in active_cbf if mults[i] <= self.tol.active),
            weakly_active_input=tuple(
                i for i in active_input if mults[p + i] <= self.tol.active))

    def solve(self, u_des, psi_x, delta_x) -> QpSolution:
        u_des = np.atleast_1d(np.asarray(u_des, dtype=float))
        psi_x = np.atleast_2d(np.asarray(psi_x, dtype=float))
        delta_x = np.atleast_1d(np.asarray(delta_x, dtype=float))
        p, m = psi_x.shape
        if self._Gb is None:
            self._Gb = self.input_set.to_polytope()
        G, bvec = self._Gb
        if self._C is not None and self._C.shape[0] == p + G.shape[0] \
                and np.array_equal(psi_x, self._psi_ref):
            C = self._C
        else:
            C = np.vstack([psi_x, -G])
            self._psi_ref = psi_x.copy()
            self._C = C
        d = np.concatenate([-delta_x, -bvec])
        sol = None
        if self._last_rows:
            W = list(self._last_rows)
            CW = C[W]
            gram = CW @ CW.T
            try:
                alpha = np.linalg.solve(gram, d[W] - CW @ u_des)
            except np.linalg.LinAlgError:
                alpha = None
            if alpha is not None and alpha.min() >= 0.0:
                u = u_des + CW.T @ alpha
                resid = C @ u - d
                if resid.min() >= -self.tol.feas:
                    lam = np.zeros(p)
                    nu = np.zeros(G.shape[0])
                    for idx, row in enumerate(W):
                        if row < p:
                            lam[row] = alpha[idx]
                        else:
                            nu[row - p] = alpha[idx]
                    sol = self._package(u, u_des, resid, lam, nu, p)
        else:
            # Empty working set: the unconstrained optimum may just be feasible.
            resid = C @ u_des - d
            if resid.min() >= -self.tol.feas:
                sol = self._package(u_des.copy(), u_des, resid,
                                    np.zeros(p), np.zeros(G.shape[0]), p)
        if sol is None:
            sol = solve_qp_projection(
                u_des, psi_x, delta_x, self.input_set, tol=self.tol,
                start=self._last_u, feasible_hints=self.hints)
        # Remember only rows with strictly positive multipliers; weakly active
        # rows would poison the next warm solve with a singular working set.
        mults = np.concatenate([sol.lam, sol.nu])
        rows = [i for i in sol.active_cbf if mults[i] > self.tol.active]
        rows += [p + i for i in sol.active_input if mults[p + i] > self.tol.active]
        self._last_rows = tuple(rows)
        self._last_u = sol.u
        return sol
