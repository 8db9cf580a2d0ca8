"""Brute-force feasibility oracle over dense hull samples.

Independent ground truth for the certificate layer: no concavity shortcuts,
just margin LPs at many states and direct witness replay.  The oracle is a
falsifier, not a prover; between samples nothing is guaranteed.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .optcore import margin_lp, margin_lps
from .problem import Hull, InputSet, StackedMap, _row_margins
from .tolerances import DEFAULT, Tolerances


def pointwise_margin(stack: StackedMap, x, input_set: InputSet,
                     tol: Tolerances = DEFAULT):
    """Best achievable worst-row margin at one state: (margin, input).

    -inf with no input when the input set is empty, +inf when the margin is
    unbounded above (possible only for unbounded input sets).
    """
    x = np.asarray(x, dtype=float)
    status, t, u = margin_lp(stack.psi_at(x), stack.delta_at(x), input_set,
                             tol=tol)
    return t, u


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _box_grid(box, per_edge: int):
    """Axis-product grid over ``Hull.as_box()``'s (lo, hi, corner_index),
    with each point's multilinear weights on the corners."""
    lo, hi, corner_index = box
    n = lo.shape[0]
    axes = [np.linspace(lo[a], hi[a], per_edge) for a in range(n)]
    pts = np.array(list(product(*axes)))
    span = hi - lo
    w_hi = (pts - lo) / span  # [K, n]
    lams = np.zeros((pts.shape[0], len(corner_index)))
    for mask, vidx in corner_index.items():
        w = np.ones(pts.shape[0])
        for a in range(n):
            w = w * (w_hi[:, a] if (mask >> a) & 1 else 1.0 - w_hi[:, a])
        lams[:, vidx] += w
    return pts, lams


def _fan_simplices(hull: Hull):
    """Fan triangulation from the first vertex; None if it cannot be built."""
    V = hull.vertices
    N, n = V.shape
    if N == 1:
        return [(0,)]
    if N <= n + 1:
        # The vertex set is (at most) one simplex already.
        return [tuple(range(N))]
    try:
        from scipy.spatial import ConvexHull as QHull
        qh = QHull(V, qhull_options="Qt")
    except Exception:
        return None
    simplices = []
    vol = 0.0
    fact = float(math.factorial(n))
    for facet in qh.simplices:
        if 0 in facet:
            continue
        idx = (0, *map(int, facet))
        E = V[list(idx[1:])] - V[0]
        det = abs(float(np.linalg.det(E)))
        if det <= 1e-14:
            continue  # flat sliver, adds nothing
        simplices.append(idx)
        vol += det / fact
    if not simplices or abs(vol - qh.volume) > 1e-7 * max(1.0, qh.volume):
        return None
    return simplices


def sample_hull(hull: Hull, per_edge: int | None = None, n_random: int = 20000,
                seed: int = 0, mode: str | None = None):
    """Dense hull samples with their barycentric weights: (X, lams, mode).

    Modes: 'box' (axis-product grid, box hulls only), 'simplex' (per-edge
    barycentric grids over a fan triangulation, N <= 8), 'dirichlet' (random
    weights over all vertices).  Default picks box, then simplex, then
    dirichlet.
    """
    N, n = hull.N, hull.n
    if per_edge is None:
        per_edge = 61 if n == 1 else 11
    if per_edge < 2 and N > 1:
        raise ValueError("per_edge must be at least 2")
    if N == 1:
        return hull.vertices.copy(), np.ones((1, 1)), "vertex"

    box = hull.as_box() if mode in (None, "box") else None
    if box is not None:
        pts, lams = _box_grid(box, per_edge)
        return pts, lams, "box"
    if mode == "box":
        raise ValueError("hull vertices are not a full coordinate box")

    if mode in (None, "simplex") and N <= 8:
        simplices = _fan_simplices(hull)
        if simplices is not None:
            e = per_edge - 1
            pts_list, lam_list = [], []
            for idx in simplices:
                d = len(idx)
                grid = np.array(list(_compositions(e, d)), dtype=float) / e
                lams = np.zeros((grid.shape[0], N))
                lams[:, list(idx)] = grid
                pts_list.append(lams @ hull.vertices)
                lam_list.append(lams)
            return np.vstack(pts_list), np.vstack(lam_list), "simplex"
        if mode == "simplex":
            raise ValueError("fan triangulation failed for this hull")

    rng = np.random.default_rng(seed)
    lams = rng.dirichlet(np.ones(N), size=n_random)
    eye = np.eye(N)
    lams = np.vstack([lams, eye])  # always include the vertices themselves
    return lams @ hull.vertices, lams, "dirichlet"


@dataclass
class ScanReport:
    """Outcome of a dense margin scan over the hull."""

    mode: str
    n_samples: int
    min_margin: float
    argmin_x: np.ndarray
    violations: int
    per_edge: int | None
    seed: int
    points: np.ndarray = field(repr=False)
    lams: np.ndarray = field(repr=False)
    margins: np.ndarray = field(repr=False)
    witness_check: dict | None = None

    @property
    def feasible_everywhere(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "n_samples": self.n_samples,
            "min_margin": self.min_margin,
            "argmin_x": np.asarray(self.argmin_x).tolist(),
            "violations": self.violations,
            "per_edge": self.per_edge,
            "seed": self.seed,
        }
        if self.witness_check is not None:
            out["witness_check"] = self.witness_check
        return out

    def write_csv(self, path):
        """Per-sample dump: barycentric weights, state, margin."""
        N = self.lams.shape[1]
        n = self.points.shape[1]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"lam{j + 1}" for j in range(N)]
                       + [f"x{a + 1}" for a in range(n)] + ["margin"])
            for lam, x, t in zip(self.lams, self.points, self.margins):
                w.writerow([f"{v:.12g}" for v in lam]
                           + [f"{v:.12g}" for v in x] + [f"{t:.12g}"])


def grid_scan(stack: StackedMap, hull: Hull, input_set: InputSet,
              per_edge: int | None = None, n_random: int = 20000,
              seed: int = 0, mode: str | None = None,
              tol: Tolerances = DEFAULT) -> ScanReport:
    """Margin LP at every sample; the report's min margin is the ground truth
    this package's certificates are judged against.

    The stack is evaluated once for all samples and the margin LPs are
    solved in one lockstep pass (``optcore.margin_lps``), with the same bits
    as one ``pointwise_margin`` call per sample.
    """
    X, lams, mode_used = sample_hull(hull, per_edge=per_edge,
                                     n_random=n_random, seed=seed, mode=mode)
    psis, deltas = stack.eval(X)
    margins, _ = margin_lps(psis, deltas, input_set, tol=tol)
    k = int(np.argmin(margins))
    return ScanReport(
        mode=mode_used, n_samples=X.shape[0], min_margin=float(margins[k]),
        argmin_x=X[k].copy(), violations=int(np.sum(margins < -tol.feas)),
        per_edge=per_edge, seed=seed, points=X, lams=lams, margins=margins)


def replay_margins(stack: StackedMap, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Worst row margin of input U[i] at state X[i], for all i."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    aff = stack.affine_arrays()
    if aff is not None:
        psi = aff.psi_batch(X)      # [K, p, m]
        delta = aff.delta_batch(X)  # [K, p]
        vals = np.einsum("kpm,km->kp", psi, U) + delta
        return vals.min(axis=1)
    return _row_margins(*stack.eval(X), U).min(axis=1)


def check_certificate(stack: StackedMap, hull: Hull, input_set: InputSet,
                      cert, points: np.ndarray | None = None,
                      lams: np.ndarray | None = None,
                      per_edge: int | None = None,
                      tol: Tolerances = DEFAULT) -> dict:
    """Replay a certificate's witness at dense hull samples.

    Interval and endpoint certificates are replayed at every corner of their
    input box, common certificates at their single input, blend certificates
    at the sample's own barycentric blend.  Fails on any row residual below
    -tol.feas or any witness outside the input set.
    """
    if points is None or lams is None:
        points, lams, mode = sample_hull(hull, per_edge=per_edge)
    else:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        lams = np.atleast_2d(np.asarray(lams, dtype=float))
        mode = "supplied"
    K = points.shape[0]
    m = stack.m

    method = cert.method
    if method in ("cpc_interval", "endpoint_rule"):
        lo, hi = cert.lo, cert.hi
        corners = [lo] if np.array_equal(lo, hi) else [
            np.where([(mask >> k) & 1 for k in range(m)], hi, lo)
            for mask in range(2 ** m)]
        witnesses = [np.broadcast_to(c, (K, m)) for c in corners]
    elif method == "cpc_common":
        witnesses = [np.broadcast_to(cert.u, (K, m))]
    elif method == "cpc_blend":
        witnesses = [lams @ cert.vertex_inputs]
    else:
        raise ValueError(f"cannot replay certificate method {method!r}")

    worst = np.inf
    argmin = points[0]
    admissible = True
    for W in witnesses:
        vals = replay_margins(stack, points, W)
        k = int(np.argmin(vals))
        if vals[k] < worst:
            worst = float(vals[k])
            argmin = points[k].copy()
        step = max(1, K // 64)  # admissibility spot checks, corners included
        for i in list(range(0, K, step)) + [K - 1]:
            if not input_set.contains(W[i], tol=1e-7):
                admissible = False
    ok = bool(worst >= -tol.feas and admissible)
    return {"method": method, "ok": ok, "min_residual": worst,
            "argmin_x": np.asarray(argmin).tolist(), "n_samples": int(K),
            "inputs_admissible": admissible, "mode": mode}
