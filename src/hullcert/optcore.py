"""LP and projection-QP solvers with exact active-set output.

Both solvers are deliberately self-contained: a two-phase tableau simplex with
Bland's rule for linear programs, and a primal active-set method for the
identity-Hessian projection QP.  Pivot order is reproducible.

Every margin LP (the pointwise margin at one state, the common-input
certificate over all hull vertices, and the joint blend certificate with
one input per vertex) is laid out by ``margin_problem``: margin rows
[-Psi_j | 1] per evaluated state, then coupling rows between per-vertex
inputs when Psi varies, then the input polytope rows.  One layout means one
row and column order, so Bland's rule pivots the same way for each caller.

The simplex keeps a condensed tableau, the dictionary form (Chvatal,
*Linear Programming*, 1983): a lane stores only its nonbasic columns and the
right-hand side, one per array row, since a basic column is a unit column
that no step reads.  ``labels`` holds each stored column's index in the full
tableau, and Bland's rule compares labels, so every pivot and result is the
full tableau's.  A pivot puts the leaving variable's unit column into the
entering column's slot, then applies the full tableau's update to the stored
columns: the one-lane kernel only to those in the pivot row's support (a
skipped entry would have had an exact zero subtracted, which changes at most
the sign of a zero), the lockstep kernel to all of them in one numpy call.
The joint blend LP has thousands of rows with a slack in the basis, so it
stores a small part of the full tableau.

One two-phase routine, ``_solve_lanes``, solves K LPs that differ only in
their rows: it builds the tableaus, runs phase one, pivots leftover
artificials out, runs phase two, extracts each point and checks it.
``solve_lp`` is its one-lane call.  A dense scan solves thousands of margin
LPs with 2-6 rows each, where the interpreter's overhead per numpy call
dominates, so ``margin_lps`` hands it one lane per state; ``margin_lp`` is
its one-state call.  Only the pivot loop comes in two kernels, chosen by the
lane count: ``_run_simplex`` for one lane, ``_lockstep_simplex`` for
several, where every pivot step is one numpy call over all live lanes.  Both
take the same floating-point steps in the same order, so a state's margin in
a scan has the bits of its ``margin_lp`` call.  One kernel for both costs
too much: run as one lockstep lane, the certify cascade's LPs (certify-mix
seed 1, one core of a 2-vCPU host, numpy 2.4) took a median 2.8x as long
on small tableaus, for the fancy indexing of each step, and 5.8x on large
ones, where the lockstep kernel has no support-only update.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .tolerances import DEFAULT, Tolerances

if TYPE_CHECKING:
    from .problem import InputSet


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


def _pivot(T: np.ndarray, labels: np.ndarray, basis: np.ndarray, i: int, s: int):
    """Pivot the condensed lane T [cols, rows] on row i and stored column s.

    The leaving variable's unit column takes slot s, then row i is divided
    by the pivot and the rank-1 update runs over the stored columns in row
    i's support: the full tableau's operations on every stored entry.
    """
    col = T[s].copy()
    T[s] = 0.0
    T[s, i] = 1.0
    T[:, i] /= col[i]
    col[i] = 0.0
    row = T[:, i]
    nz = row.nonzero()[0]
    T[nz] -= np.multiply.outer(row[nz], col)
    labels[s], basis[i] = basis[i], labels[s]


def _run_simplex(T: np.ndarray, labels: np.ndarray, basis: np.ndarray,
                 cost: np.ndarray, allow_cols: int, tol: Tolerances,
                 max_iter: int) -> str:
    """Minimize cost (indexed by label) over the condensed lane T in place.
    Returns 'optimal' or 'unbounded'.

    Entering and leaving variables follow Bland's rule (smallest label),
    which rules out cycling.  Only labels below ``allow_cols`` may enter;
    the others keep reduced cost +inf.
    """
    r = np.zeros(T.shape[0])
    r[:-1] = np.where(labels < allow_cols, cost[labels], np.inf)
    # Basic columns are unit columns, so pricing out one basic variable
    # leaves the others' costs as they were: the rows to price are known
    # up front, and taking them in ascending order keeps the same steps.
    f = cost[basis]
    for i in (f != 0.0).nonzero()[0]:
        r -= f[i] * T[:, i]
    rhs = T[-1]
    for _ in range(max_iter):
        cand = (r[:-1] < -1e-9).nonzero()[0]
        if cand.size == 0:
            return "optimal"
        s = int(cand[labels[cand].argmin()] if cand.size > 1 else cand[0])
        col = T[s]
        pos = (col > _RATIO_EPS).nonzero()[0]
        if not pos.size:
            return "unbounded"
        ratios = np.maximum(rhs[pos], 0.0) / col[pos]
        best = ratios.min()
        # Every other row's ratio counts as +inf: it ties only an overflowed
        # best ratio, where the smallest basis label of all rows leaves.
        ties = np.arange(col.size) if best == np.inf else pos[ratios <= best + 1e-12]
        i = int(ties[basis[ties].argmin()] if ties.size > 1 else ties[0])
        if abs(col[i]) < tol.pivot:
            raise NumericalFailure("pivot magnitude below tolerance")
        rs = r[s]
        r[s] = 0.0 if basis[i] < allow_cols else np.inf
        _pivot(T, labels, basis, i, s)
        r -= rs * T[:, i]
    raise NumericalFailure("simplex iteration limit reached")


def _shift_bounds(A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Rewrite each x_v = off_v + sum of sign[k] y_k over the columns k
    with var[k] = v, y >= 0, and carry A z <= b over to y.

    A variable with a finite lower bound shifts to it, one with only an
    upper bound is mirrored at it, and a free variable splits into two
    columns; a variable with two finite bounds adds the row y_k <= hi - lo
    to every lane of A [K, rows, nv] and b [K, rows].  Returns (A2, b2,
    off, var, sign).
    """
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    off = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    width = np.where(has_lo | has_hi, 1, 2)
    first = width.cumsum() - width  # first column of each variable
    var = np.repeat(np.arange(lo.shape[0]), width)
    sign = np.where(has_lo | ~has_hi, 1.0, -1.0)[var]
    sign[first[width == 2] + 1] = -1.0  # a free variable's second column
    boxed = np.flatnonzero(has_lo & has_hi)
    K, r = b.shape
    A2 = np.zeros((K, r + boxed.size, var.size))
    A2[:, :r] = A[:, :, var] * sign
    A2[:, r + np.arange(boxed.size), first[boxed]] = 1.0
    b2 = np.empty((K, r + boxed.size))
    b2[:, :r] = b - A @ off
    b2[:, r:] = hi[boxed] - lo[boxed]
    return A2, b2, off, var, sign


def _solve_lanes(c: np.ndarray, A: np.ndarray, b: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, tol: Tolerances):
    """Two-phase simplex on K LPs that differ only in their rows:
    maximize c'z subject to A[k] z <= b[k] and lo <= z <= hi, for A
    [K, rows, nv] and b [K, rows].

    Returns (status [K], X [K, nv], errors): status is "optimal",
    "infeasible" or "unbounded", X is nan where no optimum was found, and
    errors maps each lane that failed to its NumericalFailure.  A row that
    is negative in any lane gets an artificial column, in row order; lanes
    where the row is not negative store that column, zero, in place of the
    row's slack, and a zero column never enters the basis, so each lane
    pivots as it would alone.
    """
    K, _, nv = A.shape
    errors: dict[int, Exception] = {}
    if (lo > hi).any():
        return np.full(K, "infeasible", dtype=object), np.full((K, nv), np.nan), errors

    A2, b2, off, var, sign = _shift_bounds(A, b, lo, hi)
    ny = var.size
    m2 = b2.shape[1]
    ncols_real = ny + m2
    neg = b2 < 0
    has_art = neg.any(axis=0)
    art = has_art.nonzero()[0]
    na = art.size
    rows = np.arange(m2)
    slots = ny + np.arange(na)
    # Stored columns, one per array row: the structural columns, then per
    # artificial row the row's slack (where the row is negative, negated,
    # with its artificial basic) or else its zero artificial column, then
    # the right-hand side.  Negative rows are negated.
    T = np.zeros((K, ny + na + 1, m2))
    T[:, :ny] = A2.transpose(0, 2, 1)
    T[:, :ny] *= np.where(neg, -1.0, 1.0)[:, None, :]
    T[:, slots, art] = np.where(neg[:, art], -1.0, 0.0)
    T[:, -1] = np.where(neg, -b2, b2)
    labels = np.empty((K, ny + na), dtype=np.intp)
    labels[:, :ny] = np.arange(ny)
    labels[:, ny:] = np.where(neg[:, art], ny + art, ncols_real + np.arange(na))
    basis = np.where(neg, ncols_real - 1 + has_art.cumsum(), ny + rows)
    max_iter = 200 + 50 * (m2 + ny)
    status = np.full(K, "optimal", dtype=object)
    lanes = np.arange(K)
    live = np.ones(K, dtype=bool)

    if na:
        # A zero artificial column keeps its unit cost as reduced cost, so it
        # never enters, and a lane without artificials is optimal at once.
        cost1 = np.zeros(ncols_real + na)
        cost1[ncols_real:] = 1.0
        for k in _simplex(T, labels, basis, cost1, lanes, ncols_real + na, tol,
                          max_iter, errors):
            errors[k] = NumericalFailure("phase one cannot be unbounded")
        obj1 = np.matmul(cost1[basis][:, None, :], T[:, -1, :, None])[:, 0, 0]
        live = obj1 <= 1e-8
        status[~live] = "infeasible"
        live[list(errors)] = False
        # Pivot leftover artificials out of the basis where possible, on the
        # structural or slack column of smallest label.
        left = live[:, None] & (basis >= ncols_real)
        for i in left.any(axis=0).nonzero()[0]:
            nz = (np.abs(T[:, :-1, i]) > 1e-9) & (labels < ncols_real)
            s = np.where(nz, labels, ncols_real).argmin(axis=1)
            for k in (left[:, i] & nz.any(axis=1)).nonzero()[0]:
                _pivot(T[k], labels[k], basis[k], i, s[k])

    if live.any():
        cost2 = np.zeros(ncols_real + na)
        cost2[:ny] = -(c[var] * sign)
        unbounded = _simplex(T, labels, basis, cost2, lanes[live], ncols_real,
                             tol, max_iter, errors)
        status[unbounded] = "unbounded"
        live[unbounded + list(errors)] = False
    y = np.zeros((K, ncols_real + na))
    y[lanes[:, None], basis] = T[:, -1]
    X = np.where(live[:, None], off, np.nan)
    np.add.at(X, (slice(None), var), y[:, :ny] * sign)
    # Guard against drift: the reported point must actually be feasible
    # (nan compares false, so lanes without a point pass).
    infeasible = ((A @ X[:, :, None])[:, :, 0] - b > 1e-7).any(axis=1)
    outside = ((X < lo - 1e-7) | (X > hi + 1e-7)).any(axis=1)
    for k in (infeasible | outside).nonzero()[0]:
        errors[int(k)] = NumericalFailure(
            "simplex returned an infeasible point" if infeasible[k]
            else "simplex returned a point outside the bounds")
    return status, X, errors


def _simplex(T, labels, basis, cost, lanes, allow_cols, tol, max_iter,
             errors) -> list[int]:
    """Pivot the lanes T[lanes] to the optimum of ``cost``; returns the
    unbounded lanes and records failed lanes in ``errors``.  The lane count
    alone picks the kernel: ``_run_simplex`` for one, else the lockstep one.
    """
    if T.shape[0] > 1:
        return _lockstep_simplex(T, labels, basis, cost, lanes, allow_cols, tol,
                                 max_iter, errors)
    try:
        if _run_simplex(T[0], labels[0], basis[0], cost, allow_cols, tol,
                        max_iter) == "unbounded":
            return [0]
    except NumericalFailure as exc:
        errors[0] = exc
    return []


def solve_lp(prob: LpProblem, tol: Tolerances = DEFAULT) -> LpResult:
    """Two-phase simplex with Bland's rule on a condensed tableau, which
    stores only the nonbasic columns and the right-hand side.  Reports
    optimum, infeasibility, or unboundedness."""
    A, b = prob.a_ineq, prob.b_ineq
    (status,), (x,), errors = _solve_lanes(prob.c, A[None], b[None], prob.lo,
                                           prob.hi, tol)
    if errors:
        raise errors[0]
    if status != "optimal":
        return LpResult(status)
    active = tuple(np.flatnonzero(np.abs(A @ x - b) <= tol.active)) if A.size else ()
    return LpResult("optimal", z=x, value=float(prob.c @ x), active_rows=active)


def _vertex_pairs(psis: np.ndarray):
    """(i, j, D) for the vertex pairs i < j in ``np.triu_indices`` order and
    D = Psi_i - Psi_j [pairs, p, m]: the blend coupling rows' one table."""
    i, j = np.triu_indices(len(psis), k=1)
    return i, j, psis[i] - psis[j]


def margin_problem(psis: np.ndarray, deltas: np.ndarray, input_set: InputSet,
                   ulo: np.ndarray, uhi: np.ndarray,
                   per_vertex: bool = False) -> LpProblem:
    """The margin LP over N evaluated states: maximize t subject to
    Psi_j u + delta_j >= t 1 for j = 1..N and ulo <= u <= uhi, G u <= b.

    ``psis`` is [N, p, m] and ``deltas`` [N, p].  Variables are (u, t), with
    one shared u, or (u^1, ..., u^N, t) with ``per_vertex``.  Rows come in
    this order: the N margin blocks [-Psi_j | 1] (with ``per_vertex``, -Psi_j
    sits in the columns of u^j); with ``per_vertex`` and any Psi_j entry over
    1e-13 from Psi_1's, the coupling rows (Psi_i - Psi_j)(u^i - u^j) <= 0 for
    each pair i < j, which make every barycentric blend of the u^j keep the
    worst margin; then the polytope rows [G | 0], once per input copy.
    """
    N, p, m = psis.shape
    copies = N if per_vertex else 1
    nv = copies * m + 1
    rows, offs = [], []
    for j in range(N):
        block = np.zeros((p, nv))
        k = j if per_vertex else 0
        block[:, k * m:(k + 1) * m] = -psis[j]
        block[:, -1] = 1.0
        rows.append(block)
        offs.append(deltas[j])
    if per_vertex and np.abs(psis - psis[0]).max() > 1e-13:
        i, j, D = _vertex_pairs(psis)
        block = np.zeros((i.size, p, nv))
        per_u = block[:, :, :-1].reshape(i.size, p, N, m)  # a view, u^j by j
        per_u[np.arange(i.size), :, i] = D
        per_u[np.arange(i.size), :, j] = -D
        rows.append(block.reshape(-1, nv))
        offs.append(np.zeros(i.size * p))
    if input_set.polytope is not None:
        G, b = input_set.polytope
        for j in range(copies):
            block = np.zeros((G.shape[0], nv))
            block[:, j * m:(j + 1) * m] = G
            rows.append(block)
            offs.append(b)
    c = np.zeros(nv)
    c[-1] = 1.0
    return LpProblem.maximize(
        c, np.vstack(rows), np.concatenate(offs),
        np.concatenate([ulo] * copies + [[-np.inf]]),
        np.concatenate([uhi] * copies + [[np.inf]]))


def margin_lp(psi_x: np.ndarray, delta_x: np.ndarray, input_set: InputSet,
              tol: Tolerances = DEFAULT) -> tuple[str, float, np.ndarray | None]:
    """maximize t  s.t.  Psi u + delta >= t 1,  u admissible.

    Returns (status, t, u).  Infeasible means the admissible set itself is
    empty; unbounded can only occur for unbounded admissible sets.
    """
    psi_x = np.atleast_2d(np.asarray(psi_x, dtype=float))
    delta_x = np.atleast_1d(np.asarray(delta_x, dtype=float))
    (t,), (u,) = margin_lps(psi_x[None], delta_x[None], input_set, tol)
    if t == np.inf:
        return "unbounded", np.inf, None
    if t == -np.inf:
        return "infeasible", -np.inf, None
    return "optimal", float(t), u


# States per lockstep solve in ``margin_lps``, which bounds its memory.  On
# the case2 scan (1,331 states, 9-row tableaus of about 1.7 kB each), 512
# lanes peak at 3.9 MB of arrays and one 1,331-lane solve at 7.8 MB while
# being 10% faster; 128 lanes take 1.8x as long.
_LANES = 512


def margin_lps(psis: np.ndarray, deltas: np.ndarray, input_set: InputSet,
               tol: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """The margin LPs at K states at once: (t [K], U [K, m]), each with the
    bits of its one-lane ``margin_lp`` call.

    ``psis`` is [K, p, m] and ``deltas`` [K, p].  t is +inf where the margin
    is unbounded and -inf where the input set is empty, with U nan there.
    When states fail, the first one's error is raised, as a loop of
    ``margin_lp`` calls would raise it.
    """
    psis = np.asarray(psis, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    K, p, m = psis.shape
    lo, hi = input_set.bounds()
    t = np.empty(K)
    U = np.empty((K, m))
    for s in range(0, K, _LANES):
        psi, delta = psis[s:s + _LANES], deltas[s:s + _LANES]
        prob = margin_problem(psi[:1], delta[:1], input_set, lo, hi)
        bad = ~(np.isfinite(psi).all(axis=(1, 2)) & np.isfinite(delta).all(axis=1))
        A = np.repeat(prob.a_ineq[None], len(psi), axis=0)
        A[:, :p, :m] = np.where(bad[:, None, None], 0.0, -psi)
        b = np.repeat(prob.b_ineq[None], len(psi), axis=0)
        b[:, :p] = np.where(bad[:, None], 0.0, delta)
        status, X, errors = _solve_lanes(prob.c, A, b, prob.lo, prob.hi, tol)
        for k in np.flatnonzero(bad):
            errors[int(k)] = ValueError("objective and rows must be finite")
        if errors:
            raise errors[min(errors)]
        t[s:s + _LANES] = np.where(status == "unbounded", np.inf,
                                   np.where(status == "infeasible", -np.inf, X[:, m]))
        U[s:s + _LANES] = X[:, :m]
    return t, U


def _lockstep_simplex(T, labels, basis, cost, lanes, allow_cols, tol, max_iter,
                      errors) -> list[int]:
    """``_run_simplex`` on the lanes T[lanes], pivoting them together.

    Returns the lanes that came out unbounded and records failed lanes in
    ``errors``; T, labels and basis of every lane end as _run_simplex leaves
    them.  While every lane is live the loop works on T itself; each time
    lanes finish, the live ones move to a smaller copy, and lanes left
    without an entering candidate leave before the ratio test.  Each pivot
    is ``_pivot``'s, with the rank-1 update over every stored column.
    """
    whole = lanes.size == T.shape[0]
    Tw, Lw, Bw = (T, labels, basis) if whole else (T[lanes], labels[lanes], basis[lanes])
    L, C, m2 = Tw.shape
    nlab = C - 1 + m2  # above every label
    ar = np.arange(L)
    r = np.zeros((L, C))
    r[:, :-1] = np.where(Lw < allow_cols, cost[Lw], np.inf)
    f = cost[Bw]
    for i in (f != 0.0).any(axis=0).nonzero()[0]:
        r -= np.where(f[:, i, None] != 0.0, f[:, i, None] * Tw[:, :, i], 0.0)
    # a label that may not enter can leave only if one is basic now
    guard = bool((Bw >= allow_cols).any())
    unbounded: list[int] = []

    def keep_only(go, *arrays):
        """Write the finished lanes (not go) back to T, labels and basis,
        and keep the live ones in each of ``arrays``."""
        nonlocal whole
        if not whole:
            done = (~go).nonzero()[0]
            gone = lanes[done]
            T[gone], labels[gone], basis[gone] = Tw[done], Lw[done], Bw[done]
        whole = False
        keep = go.nonzero()[0]
        return [a[keep] for a in arrays]

    for _ in range(max_iter):
        cand = r[:, :-1] < -1e-9
        has = cand.any(axis=1)
        if not has.all():  # lanes without a candidate are optimal
            Tw, Lw, Bw, r, lanes, cand = keep_only(has, Tw, Lw, Bw, r, lanes, cand)
            if not lanes.size:
                return unbounded
            ar = np.arange(lanes.size)
        j = np.where(cand, Lw, nlab).argmin(axis=1)
        col = Tw[ar, j]
        pos = col > _RATIO_EPS
        ratios = np.divide(np.maximum(Tw[:, -1], 0.0), col, where=pos,
                           out=np.full(col.shape, np.inf))
        best = ratios.min(axis=1)
        # Bland's leaving row: smallest basis label among the ratio ties
        i = np.where(ratios <= best[:, None] + 1e-12, Bw, nlab).argmin(axis=1)
        piv = col[ar, i]
        bounded = pos.any(axis=1)
        small = np.abs(piv) < tol.pivot
        go = bounded & ~small
        if not go.all():
            unbounded += lanes[~bounded].tolist()
            for k in lanes[bounded & small]:
                errors[int(k)] = NumericalFailure("pivot magnitude below tolerance")
            Tw, Lw, Bw, r, lanes, i, j, col, piv = keep_only(
                go, Tw, Lw, Bw, r, lanes, i, j, col, piv)
            if not lanes.size:
                return unbounded
            ar = np.arange(lanes.size)
        rj = r[ar, j]
        r[ar, j] = np.where(Bw[ar, i] < allow_cols, 0.0, np.inf) if guard else 0.0
        Tw[ar, j] = 0.0
        Tw[ar, j, i] = 1.0
        row = Tw[ar, :, i] / piv[:, None]
        Tw[ar, :, i] = row
        col[ar, i] = 0.0
        # the outer products, each entry one rounded product as in a broadcast
        # multiply, which is slower on lanes this narrow
        Tw -= np.einsum("lc,lr->lcr", row, col)
        r -= rj[:, None] * row
        Lw[ar, j], Bw[ar, i] = Bw[ar, i], Lw[ar, j]
    else:
        for k in lanes:
            errors[int(k)] = NumericalFailure("simplex iteration limit reached")
    if not whole:
        T[lanes], labels[lanes], basis[lanes] = Tw, Lw, Bw
    return unbounded


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
    # active rows (p + i for input row i) with multiplier > tol.active
    _strong_rows: tuple[int, ...] = field(default=(), repr=False, compare=False)


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

    mults = np.zeros(nrows)
    mults[W] = lam_W
    lam, nu = mults[:p], mults[p:]

    resid = C @ u - d
    stat = u - u_des - psi_x.T @ lam + G.T @ nu
    if np.max(np.abs(stat)) > 1e-8:
        raise NumericalFailure("stationarity residual above tolerance")
    if np.min(resid) < -tol.feas:
        raise NumericalFailure("QP result violates a constraint")
    comp = mults * resid
    if np.max(np.abs(comp)) > 1e-6:
        raise NumericalFailure("complementary slackness violated")
    np.clip(lam, 0.0, None, out=lam)
    np.clip(nu, 0.0, None, out=nu)

    return _qp_solution(u, u_des, resid, mults, p, tol, iterations)


def _qp_solution(u, u_des, resid, mults, p: int, tol: Tolerances,
                 iterations: int) -> QpSolution:
    """Package a KKT point with multipliers ``mults`` = [lam, nu]: rows with
    residual at most tol.active are active, active rows whose multiplier is
    that small are weakly active, and the others are the strong rows."""
    act = (resid <= tol.active).nonzero()[0].tolist()
    small = (mults <= tol.active).tolist()
    weak = [i for i in act if small[i]]
    k, kw = bisect_left(act, p), bisect_left(weak, p)
    step = u - u_des
    return QpSolution(
        u=u, active_cbf=tuple(act[:k]), active_input=tuple([i - p for i in act[k:]]),
        lam=mults[:p], nu=mults[p:], value=float(0.5 * np.dot(step, step)),
        iterations=iterations, weakly_active_cbf=tuple(weak[:kw]),
        weakly_active_input=tuple([i - p for i in weak[kw:]]),
        _strong_rows=tuple([i for i in act if not small[i]]))


class WarmQp:
    """Warm-started projection QP for sequences of nearby states.

    Re-solving the equality system of the previous active set and checking the
    full KKT conditions is sufficient for optimality, so the common case costs
    one small solve.  Any check failure falls back to the full method, which
    tries ``hints`` as feasible starts.
    """

    def __init__(self, input_set: InputSet, tol: Tolerances = DEFAULT,
                 hints=()):
        self.input_set = input_set
        self.tol = tol
        self.hints = hints
        self._last_rows: tuple[int, ...] = ()
        self._last_u: np.ndarray | None = None
        G, b = input_set.to_polytope()
        self._neg_G, self._neg_b = -G, -b

    def solve(self, u_des, psi_x, delta_x) -> QpSolution:
        u_des = np.atleast_1d(np.asarray(u_des, dtype=float))
        psi_x = np.atleast_2d(np.asarray(psi_x, dtype=float))
        delta_x = np.atleast_1d(np.asarray(delta_x, dtype=float))
        p = psi_x.shape[0]
        C = np.concatenate([psi_x, self._neg_G])
        d = np.concatenate([-delta_x, self._neg_b])
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
                    mults = np.zeros(C.shape[0])
                    mults[W] = alpha
                    sol = _qp_solution(u, u_des, resid, mults, p, self.tol, 0)
        else:
            # Empty working set: the unconstrained optimum may just be feasible.
            resid = C @ u_des - d
            if resid.min() >= -self.tol.feas:
                sol = _qp_solution(u_des.copy(), u_des, resid,
                                   np.zeros(C.shape[0]), p, self.tol, 0)
        if sol is None:
            sol = solve_qp_projection(
                u_des, psi_x, delta_x, self.input_set, tol=self.tol,
                start=self._last_u, feasible_hints=self.hints)
        # Strong rows only: weakly active rows would poison the next warm
        # solve with a singular working set.
        self._last_rows = sol._strong_rows
        self._last_u = sol.u
        return sol
