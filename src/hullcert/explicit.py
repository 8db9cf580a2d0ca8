"""Explicit piecewise-affine safety filter over a hull.

For constant Psi and affine delta / desired input, the projection QP's
optimizer is piecewise affine in the state: on each polyhedral critical
region (a maximal set sharing one active set) the KKT system is a fixed
linear map applied to an affine right-hand side.  This module discovers the
regions by seeding QP solves on a dense hull grid, builds each affine law
from its KKT system, bounds the region by activity boundaries, and verifies
everything at region vertices (affine residuals make vertex checks global).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .optcore import InfeasibleQP, LpProblem, WarmQp, solve_lp
from .oracle import sample_hull
from .problem import (DesiredInput, Hull, InputSet, StackedMap,
                      barycentric_lp)
from .tolerances import DEFAULT, Tolerances


class LicqViolated(RuntimeError):
    """Active constraint gradients are linearly dependent."""


class Assumption2Violated(ValueError):
    """The problem is not in constant-Psi / affine-delta form."""


class UnresolvedRegion(RuntimeError):
    """Partition synthesis could not turn a seed's active set into a
    verified region."""


class OutsideHull(ValueError):
    """Query state is not in the hull the controller was built on."""


class NoRegion(RuntimeError):
    """No region claims an in-hull state; signals a synthesis bug."""


class NotInRegion(ValueError):
    """State admits no barycentric representation over the given vertices."""


@dataclass(frozen=True)
class AffineLaw:
    """u(x) = F x + f with matching affine multiplier laws.

    ``lam_gain``/``lam0`` give the multipliers of the active barrier rows
    (in ``a_set`` order), ``nu_gain``/``nu0`` those of the active input rows
    (in ``b_set`` order).
    """

    F: np.ndarray
    f: np.ndarray
    lam_gain: np.ndarray
    lam0: np.ndarray
    nu_gain: np.ndarray
    nu0: np.ndarray
    a_set: tuple[int, ...]
    b_set: tuple[int, ...]

    def u_at(self, x) -> np.ndarray:
        return self.F @ np.asarray(x, dtype=float) + self.f

    def lam_at(self, x) -> np.ndarray:
        return self.lam_gain @ np.asarray(x, dtype=float) + self.lam0

    def nu_at(self, x) -> np.ndarray:
        return self.nu_gain @ np.asarray(x, dtype=float) + self.nu0

    def to_dict(self) -> dict:
        return {"F": self.F.tolist(), "f": self.f.tolist(),
                "lam_gain": self.lam_gain.tolist(),
                "lam0": self.lam0.tolist(),
                "nu_gain": self.nu_gain.tolist(), "nu0": self.nu0.tolist(),
                "a_set": list(self.a_set), "b_set": list(self.b_set)}

    @classmethod
    def from_dict(cls, d: dict) -> "AffineLaw":
        return cls(np.asarray(d["F"], dtype=float),
                   np.asarray(d["f"], dtype=float),
                   np.asarray(d["lam_gain"], dtype=float),
                   np.asarray(d["lam0"], dtype=float),
                   np.asarray(d["nu_gain"], dtype=float),
                   np.asarray(d["nu0"], dtype=float),
                   tuple(int(i) for i in d["a_set"]),
                   tuple(int(i) for i in d["b_set"]))


@dataclass
class CriticalRegion:
    """Polyhedron {x : rows x <= offs} on which one active set rules."""

    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    law: AffineLaw
    rows: np.ndarray
    offs: np.ndarray
    interior: np.ndarray
    radius: float
    vertices: np.ndarray

    def contains(self, x, tol: float = 1e-9) -> bool:
        return bool(np.all(self.rows @ np.asarray(x, dtype=float)
                           <= self.offs + tol))

    def to_dict(self) -> dict:
        return {"a_set": list(self.a_set), "b_set": list(self.b_set),
                "law": self.law.to_dict(), "rows": self.rows.tolist(),
                "offs": self.offs.tolist(),
                "interior": self.interior.tolist(), "radius": self.radius,
                "vertices": self.vertices.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "CriticalRegion":
        return cls(tuple(int(i) for i in d["a_set"]),
                   tuple(int(i) for i in d["b_set"]),
                   AffineLaw.from_dict(d["law"]),
                   np.asarray(d["rows"], dtype=float),
                   np.asarray(d["offs"], dtype=float),
                   np.asarray(d["interior"], dtype=float),
                   float(d["radius"]),
                   np.asarray(d["vertices"], dtype=float))


class ExplicitController:
    """Verified critical-region list with first-match point location."""

    def __init__(self, regions, hull_rows, hull_offs, n: int, m: int,
                 u_des: DesiredInput, meta: dict | None = None):
        self.regions = list(regions)
        self.hull_rows = np.asarray(hull_rows, dtype=float)
        self.hull_offs = np.asarray(hull_offs, dtype=float)
        self.n = n
        self.m = m
        self.u_des = u_des
        self.meta = dict(meta or {})

    def __call__(self, x) -> np.ndarray:
        """First region whose inequalities hold within 1e-9 wins; boundary
        ties are harmless because the filter is continuous across regions."""
        return self.region_at(x).law.u_at(x)

    def region_at(self, x, tol: float = 1e-9) -> CriticalRegion:
        x = np.asarray(x, dtype=float)
        if np.any(self.hull_rows @ x > self.hull_offs + tol):
            raise OutsideHull(f"state {x.tolist()} is outside the hull")
        for region in self.regions:
            if region.contains(x, tol):
                return region
        raise NoRegion(f"no region claims in-hull state {x.tolist()}")

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m,
                "hull_rows": self.hull_rows.tolist(),
                "hull_offs": self.hull_offs.tolist(),
                "u_des": self.u_des.to_dict(),
                "regions": [r.to_dict() for r in self.regions],
                "meta": self.meta}

    @classmethod
    def from_dict(cls, d: dict) -> "ExplicitController":
        return cls([CriticalRegion.from_dict(r) for r in d["regions"]],
                   np.asarray(d["hull_rows"], dtype=float),
                   np.asarray(d["hull_offs"], dtype=float),
                   int(d["n"]), int(d["m"]),
                   DesiredInput.from_dict(d["u_des"]),
                   d.get("meta", {}))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ExplicitController":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# --------------------------------------------------------------------------
# problem validation and KKT law construction


def assumption2_data(stack: StackedMap, hull: Hull):
    """Extract (psi_bar, d_mat, d0) or raise Assumption2Violated.

    Needs the map affine by ``StackedMap.affine_arrays`` and Psi equal to
    1e-10, absolute, across the hull vertices (an affine function constant
    on all vertices is constant on the hull).
    """
    psi_codes, delta_codes = stack._codes(1e-12)
    if psi_codes.any():
        r, k = np.argwhere(psi_codes)[0]
        raise Assumption2Violated(f"Psi entry ({r},{k}) is not affine")
    psis = stack.psi_at(hull.vertices)
    if np.abs(psis - psis[0]).max() > 1e-10:
        raise Assumption2Violated("Psi varies across the hull vertices")
    if delta_codes.any():
        raise Assumption2Violated(
            f"delta row {np.flatnonzero(delta_codes)[0]} is not affine")
    _, d_mat, d0 = stack._delta
    return psis[0], d_mat, d0


def kkt_affine_law(psi_bar, d_mat, d0, G, b, u_gain, u0,
                   a_set, b_set) -> AffineLaw:
    """Affine optimizer and multiplier laws for one active set.

    Solves the equality-constrained KKT system
        u - psi_A' lam + G_B' nu = u_des(x)
        psi_A u                  = -delta_A(x)
        G_B u                    = b_B
    whose right-hand side is affine in x, so the solution is too.
    """
    psi_bar = np.asarray(psi_bar, dtype=float)
    m = psi_bar.shape[1]
    n = np.asarray(d_mat).shape[1]
    a_set = tuple(int(i) for i in a_set)
    b_set = tuple(int(i) for i in b_set)
    psi_a = psi_bar[list(a_set)].reshape(len(a_set), m)
    g_b = np.asarray(G, dtype=float)[list(b_set)].reshape(len(b_set), m)
    na, nb = len(a_set), len(b_set)
    grads = np.vstack([psi_a, g_b])
    if na + nb:
        sv = np.linalg.svd(grads, compute_uv=False)
        if sv.size < na + nb or sv.min() <= 1e-8:
            raise LicqViolated(
                f"active gradients for A={a_set}, B={b_set} are dependent")

    dim = m + na + nb
    K = np.zeros((dim, dim))
    K[:m, :m] = np.eye(m)
    K[:m, m:m + na] = -psi_a.T
    K[:m, m + na:] = g_b.T
    K[m:m + na, :m] = psi_a
    K[m + na:, :m] = g_b

    R = np.zeros((dim, n))
    r0 = np.zeros(dim)
    R[:m] = u_gain
    r0[:m] = u0
    R[m:m + na] = -np.asarray(d_mat)[list(a_set)]
    r0[m:m + na] = -np.asarray(d0)[list(a_set)]
    r0[m + na:] = np.asarray(b, dtype=float)[list(b_set)]
    try:
        sol = np.linalg.solve(K, np.hstack([R, r0[:, None]]))
    except np.linalg.LinAlgError as exc:
        raise LicqViolated(f"KKT matrix singular for A={a_set}, B={b_set}") \
            from exc
    S, s = sol[:, :n], sol[:, n]
    return AffineLaw(F=S[:m], f=s[:m],
                     lam_gain=S[m:m + na], lam0=s[m:m + na],
                     nu_gain=S[m + na:], nu0=s[m + na:],
                     a_set=a_set, b_set=b_set)


# --------------------------------------------------------------------------
# region geometry


def hull_halfspaces(hull: Hull):
    """H-representation rows (R, s) with R x <= s describing the hull."""
    V = hull.vertices
    n = hull.n
    if n == 1:
        lo, hi = float(V.min()), float(V.max())
        return np.array([[1.0], [-1.0]]), np.array([hi, -lo])
    from scipy.spatial import ConvexHull as QHull
    qh = QHull(V, qhull_options="Qt")
    eqs = np.unique(np.round(qh.equations, 12), axis=0)
    R = eqs[:, :-1]
    s = -eqs[:, -1]
    return R, s


def _normalize_rows(rows: np.ndarray, offs: np.ndarray):
    """Unit-normal rows, trivial rows dropped. None if a row is infeasible
    on its own (zero normal, negative offset)."""
    out_r, out_s = [], []
    for row, off in zip(rows, offs):
        nrm = float(np.linalg.norm(row))
        if nrm <= 1e-12:
            if off < -1e-9:
                return None
            continue
        out_r.append(row / nrm)
        out_s.append(off / nrm)
    if not out_r:
        return np.zeros((0, rows.shape[1])), np.zeros(0)
    R = np.asarray(out_r)
    s = np.asarray(out_s)
    stacked = np.unique(np.round(np.hstack([R, s[:, None]]), 12), axis=0)
    return stacked[:, :-1], stacked[:, -1]


def _chebyshev_center(rows: np.ndarray, offs: np.ndarray, n: int):
    """Largest inscribed ball of {x: rows x <= offs} (rows unit-norm)."""
    if rows.shape[0] == 0:
        return None
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A = np.hstack([rows, np.ones((rows.shape[0], 1))])
    lo = np.concatenate([np.full(n, -np.inf), [0.0]])
    res = solve_lp(LpProblem.maximize(c, A, offs, lo, None))
    if res.status != "optimal":
        return None
    return res.z[:n], float(res.z[n])


def _region_vertices(rows: np.ndarray, offs: np.ndarray,
                     interior: np.ndarray) -> np.ndarray:
    n = rows.shape[1]
    if n == 1:
        a = rows[:, 0]
        ups = offs[a > 0] / a[a > 0]
        los = offs[a < 0] / a[a < 0]
        return np.array([[float(los.max())], [float(ups.min())]])
    from scipy.spatial import HalfspaceIntersection
    hs = np.hstack([rows, -offs[:, None]])
    pts = HalfspaceIntersection(hs, interior).intersections
    # A vertex where more than n halfspaces meet comes out once per n of
    # them.  Keep the first copy as computed: rounding would move vertices by
    # up to 5e-10, which verify_region's 1e-9 residual checks can notice.
    close = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2) <= 1e-9
    return pts[~np.triu(close, 1).any(axis=0)]


def verify_region(region: CriticalRegion, vertices: np.ndarray,
                  psi_bar, d_mat, d0, G, b, u_gain, u0,
                  tol: Tolerances = DEFAULT,
                  interior: np.ndarray | None = None):
    """Certify the region by its vertices: (ok, reason).

    All residuals of the affine law are affine in x, so nonnegativity at the
    vertices extends to the whole polytope.  Vertex checks are therefore
    non-strict (boundary vertices sit exactly on activity switches); the
    strictness conditions (positive active multipliers, strictly inactive
    rows) are checked at the interior point instead.
    """
    law = region.law
    p = psi_bar.shape[0]
    a_set, b_set = law.a_set, law.b_set
    inact_cbf = [i for i in range(p) if i not in a_set]
    inact_inp = [r for r in range(G.shape[0]) if r not in b_set]

    def residuals(x):
        u = law.u_at(x)
        lam = law.lam_at(x)
        nu = law.nu_at(x)
        cbf = psi_bar @ u + d_mat @ x + d0
        inp = G @ u - b
        stat = u - (u_gain @ x + u0)
        if len(a_set):
            stat -= psi_bar[list(a_set)].T @ lam
        if len(b_set):
            stat += G[list(b_set)].T @ nu
        return u, lam, nu, cbf, inp, stat

    for v in np.atleast_2d(vertices):
        u, lam, nu, cbf, inp, stat = residuals(v)
        if np.max(np.abs(stat)) > 1e-8:
            return False, f"KKT stationarity fails at vertex {v.tolist()}"
        if a_set and np.max(np.abs(cbf[list(a_set)])) > 1e-8:
            return False, f"active row not tight at vertex {v.tolist()}"
        if b_set and np.max(np.abs(inp[list(b_set)])) > 1e-8:
            return False, f"active bound not tight at vertex {v.tolist()}"
        if (lam.size and lam.min() < -1e-9) or (nu.size and nu.min() < -1e-9):
            return False, f"negative multiplier at vertex {v.tolist()}"
        if inact_cbf and cbf[inact_cbf].min() < -1e-9:
            return False, f"inactive row violated at vertex {v.tolist()}"
        if inact_inp and inp[inact_inp].max() > 1e-9:
            return False, f"input row violated at vertex {v.tolist()}"

    if interior is not None:
        _, lam, nu, cbf, inp, _ = residuals(interior)
        if lam.size and lam.min() <= tol.active:
            return False, "active multiplier not strictly positive at interior"
        if nu.size and nu.min() <= tol.active:
            return False, "active bound multiplier not strictly positive"
        if inact_cbf and cbf[inact_cbf].min() <= tol.active:
            return False, "inactive row not strictly positive at interior"
        if inact_inp and inp[inact_inp].max() >= -tol.active:
            return False, "inactive bound not strictly slack at interior"
    return True, ""


def partition_hull(stack: StackedMap, hull: Hull, input_set: InputSet,
                   u_des: DesiredInput | None = None,
                   seed_per_edge: int = 15,
                   tol: Tolerances = DEFAULT) -> ExplicitController:
    """Discover, bound, and verify every critical region on the hull.

    Seeds a barycentric grid with QP solves to enumerate active sets, then
    turns each distinct set into a candidate region: affine law by KKT,
    polyhedron from activity boundaries and multiplier nonnegativity
    intersected with the hull, vertex enumeration, and full verification.
    Slivers (Chebyshev radius below 1e-9) are boundary artifacts of seed
    points and are dropped.  Any unverifiable candidate or uncovered seed
    raises UnresolvedRegion.
    """
    psi_bar, d_mat, d0 = assumption2_data(stack, hull)
    m, n = stack.m, stack.n
    if u_des is None:
        u_des = DesiredInput(np.zeros((m, n)), np.zeros(m))
    if u_des.U_gain.shape != (m, n) or u_des.u0.shape != (m,):
        raise Assumption2Violated("desired-input law has wrong dimensions")
    G, b = input_set.to_polytope()

    seeds, _, _ = sample_hull(hull, per_edge=seed_per_edge)
    warm = WarmQp(input_set, tol)
    order: list[tuple] = []
    first_seed: dict[tuple, np.ndarray] = {}
    for x in seeds:
        try:
            sol = warm.solve(u_des(x), psi_bar, d_mat @ x + d0)
        except InfeasibleQP as exc:
            raise UnresolvedRegion(
                f"QP infeasible at seed {x.tolist()}; "
                "hull is not certified compatible") from exc
        a_set = tuple(i for i in sol.active_cbf
                      if i not in sol.weakly_active_cbf)
        b_set = tuple(i for i in sol.active_input
                      if i not in sol.weakly_active_input)
        key = (a_set, b_set)
        if key not in first_seed:
            first_seed[key] = x
            order.append(key)

    from scipy.spatial import QhullError

    try:
        hull_R, hull_s = hull_halfspaces(hull)
    except QhullError as exc:  # e.g. a hull of lower dimension than n
        raise UnresolvedRegion(
            f"hull facets: qhull failed ({str(exc).splitlines()[0]})") from exc
    regions = []
    for a_set, b_set in order:
        try:
            law = kkt_affine_law(psi_bar, d_mat, d0, G, b,
                                 u_des.U_gain, u_des.u0, a_set, b_set)
        except LicqViolated as exc:
            raise UnresolvedRegion(
                f"LICQ fails for active set A={a_set}, B={b_set} "
                f"(seed {first_seed[(a_set, b_set)].tolist()})") from exc
        rows = []
        offs = []
        for i in range(stack.p):
            if i in a_set:
                continue
            # psi_i (Fx+f) + d_i x + d0_i >= 0
            rows.append(-(psi_bar[i] @ law.F + d_mat[i]))
            offs.append(float(psi_bar[i] @ law.f + d0[i]))
        for r in range(G.shape[0]):
            if r in b_set:
                continue
            rows.append(G[r] @ law.F)
            offs.append(float(b[r] - G[r] @ law.f))
        for j in range(len(a_set)):
            rows.append(-law.lam_gain[j])
            offs.append(float(law.lam0[j]))
        for j in range(len(b_set)):
            rows.append(-law.nu_gain[j])
            offs.append(float(law.nu0[j]))
        rows = np.vstack([np.asarray(rows).reshape(-1, n), hull_R])
        offs = np.concatenate([np.asarray(offs, dtype=float), hull_s])
        cleaned = _normalize_rows(rows, offs)
        if cleaned is None:
            continue  # a constant condition already fails: empty candidate
        rows, offs = cleaned
        cheb = _chebyshev_center(rows, offs, n)
        if cheb is None or cheb[1] <= 1e-9:
            continue  # sliver: seeds sat exactly on an activity boundary
        center, radius = cheb
        try:
            verts = _region_vertices(rows, offs, center)
        except QhullError as exc:
            raise UnresolvedRegion(
                f"region A={a_set}, B={b_set} vertex enumeration: qhull "
                f"failed ({str(exc).splitlines()[0]})") from exc
        region = CriticalRegion(a_set=a_set, b_set=b_set, law=law,
                                rows=rows, offs=offs, interior=center,
                                radius=radius, vertices=verts)
        ok, why = verify_region(region, verts, psi_bar, d_mat, d0, G, b,
                                u_des.U_gain, u_des.u0, tol, interior=center)
        if not ok:
            raise UnresolvedRegion(
                f"region A={a_set}, B={b_set} failed verification: {why}")
        regions.append(region)

    controller = ExplicitController(
        regions, hull_R, hull_s, n, m, u_des,
        meta={"seed_per_edge": seed_per_edge, "n_seeds": int(len(seeds)),
              "active_sets": [[list(a), list(bb)] for a, bb in order]})
    for x in seeds:
        if not any(reg.contains(x, 1e-9) for reg in regions):
            raise UnresolvedRegion(
                f"seed {x.tolist()} is covered by no verified region")
    return controller


def interpolate_on_region(x, region_vertices, vertex_optima,
                          tol: float = 1e-9) -> np.ndarray:
    """Barycentric interpolation of vertex optima: sum lam_j u*(x^j).

    Any feasible lam works: on a single critical region the law is affine,
    so the blend is independent of which barycentric representation the LP
    returns.  Raises NotInRegion when x has no such representation.
    """
    x = np.asarray(x, dtype=float)
    V = np.atleast_2d(np.asarray(region_vertices, dtype=float))
    U = np.atleast_2d(np.asarray(vertex_optima, dtype=float))
    if V.shape[0] != U.shape[0]:
        raise ValueError("vertex and optimum counts differ")
    lam = barycentric_lp(V, x, tol)
    if lam is None:
        raise NotInRegion(
            f"{x.tolist()} is not in the convex hull of the region vertices")
    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    return lam @ U
