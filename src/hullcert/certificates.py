"""Hull-wide compatibility certificates for stacked control-barrier rows.

A certificate asserts that every state in the hull admits an input that keeps
all barrier rows nonnegative, and backs the claim with an explicit input (a
constant, a box of constants, or a vertex-blended law).  Four constructions
are provided, ordered roughly by cost:

  endpoint_rule        pick each input coordinate at the bound its uniform
                       column sign favors, then check the hull vertices
  cpc_interval         intersect per-vertex safe half-lines into a box of
                       inputs valid across the hull
  cpc_common           one LP for a single constant input with maximal margin
  cpc_blend_joint      one LP for per-vertex inputs whose barycentric blends
                       stay valid (couples vertices unless Psi is constant)

Every construction re-verifies its own witness at the hull vertices before
reporting success, so a returned certificate never rests on caller-supplied
data alone.  All of them are sufficient conditions: an invalid outcome means
"not established", not "incompatible".
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import A3Violated, _column_signs, sign_cone
from .optcore import LpProblem, _vertex_pairs, margin_problem, solve_lp
from .problem import Hull, InputSet, StackedMap, _row_margins
from .tolerances import DEFAULT, Tolerances


# --------------------------------------------------------------------------
# certificate containers


@dataclass(frozen=True)
class IntervalCert:
    """Box of constant inputs valid at every hull state. lo == hi for the
    endpoint rule."""

    lo: np.ndarray
    hi: np.ndarray
    margin: float
    kind: str = "interval"

    @property
    def method(self) -> str:
        return "endpoint_rule" if self.kind == "endpoint" else "cpc_interval"

    def input_at(self, lam=None) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def to_dict(self) -> dict:
        return {"method": self.method, "lo": self.lo.tolist(),
                "hi": self.hi.tolist(), "margin": self.margin}


@dataclass(frozen=True)
class CommonCert:
    """Single constant input with hull-wide margin at least ``margin``."""

    u: np.ndarray
    margin: float

    @property
    def method(self) -> str:
        return "cpc_common"

    def input_at(self, lam=None) -> np.ndarray:
        return self.u.copy()

    def to_dict(self) -> dict:
        return {"method": self.method, "u": self.u.tolist(),
                "margin": self.margin}


@dataclass(frozen=True)
class BlendCert:
    """Per-vertex inputs whose barycentric blend is valid across the hull."""

    vertex_inputs: np.ndarray  # [N, m]
    margin: float
    pairwise_max: float
    joint: bool = True  # False only in files from per-vertex-LP versions

    @property
    def method(self) -> str:
        return "cpc_blend"

    def input_at(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.vertex_inputs.shape[0],):
            raise ValueError("barycentric weight has the wrong length")
        return lam @ self.vertex_inputs

    def to_dict(self) -> dict:
        return {"method": self.method,
                "vertex_inputs": self.vertex_inputs.tolist(),
                "margin": self.margin, "pairwise_max": self.pairwise_max,
                "joint": self.joint}


def cert_from_dict(data: dict):
    method = data.get("method")
    if method in ("cpc_interval", "endpoint_rule"):
        kind = "endpoint" if method == "endpoint_rule" else "interval"
        return IntervalCert(np.asarray(data["lo"], dtype=float),
                            np.asarray(data["hi"], dtype=float),
                            float(data["margin"]), kind=kind)
    if method == "cpc_common":
        return CommonCert(np.asarray(data["u"], dtype=float),
                          float(data["margin"]))
    if method == "cpc_blend":
        return BlendCert(np.asarray(data["vertex_inputs"], dtype=float),
                         float(data["margin"]), float(data["pairwise_max"]),
                         bool(data.get("joint", True)))
    raise ValueError(f"unknown certificate method {method!r}")


@dataclass
class CertificateOutcome:
    """Result of one certificate attempt, valid or not."""

    method: str
    valid: bool
    certificate: object | None = None
    margin: float | None = None
    reason: str = ""
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"method": self.method, "valid": self.valid,
               "margin": self.margin, "reason": self.reason}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        if self.detail:
            out["detail"] = {k: v for k, v in self.detail.items()}
        return out


# --------------------------------------------------------------------------
# shared helpers


def _box_inside_input_set(input_set: InputSet, lo, hi, tol: Tolerances) -> bool:
    blo, bhi = input_set.bounds()
    if np.any(lo < blo - tol.feas) or np.any(hi > bhi + tol.feas):
        return False
    if input_set.polytope is not None:
        G, b = input_set.polytope
        worst = np.maximum(G * lo, G * hi).sum(axis=1)
        if np.any(worst > b + tol.feas):
            return False
    return True


def _solve_margin(method: str, stack: StackedMap, hull: Hull,
                  input_set: InputSet, per_vertex: bool, tol: Tolerances):
    """The LP stage of cpc_common and, ``per_vertex``, cpc_blend_joint.

    Clips the admissible box to the sign cone and solves the margin LP over
    the hull vertices.  Returns (z, psis, deltas) at an optimum, else the
    failed outcome under ``method``.  The margin can grow without bound only
    along unbounded inputs, and any feasible point already certifies, so an
    unbounded LP is solved again for a feasible point with t <= 0.
    """
    try:
        cone = sign_cone(stack, tol=tol.eig)
    except A3Violated as exc:
        return CertificateOutcome(method, False, reason=str(exc))
    blo, bhi = input_set.bounds()
    ulo, uhi = np.maximum(blo, cone.lo), np.minimum(bhi, cone.hi)
    if np.any(ulo > uhi):
        return CertificateOutcome(
            method, False, reason="input set does not meet the sign cone")
    psis, deltas = stack.eval(hull.vertices)
    prob = margin_problem(psis, deltas, input_set, ulo, uhi, per_vertex)
    res = solve_lp(prob, tol)
    if res.status == "unbounded":
        res = solve_lp(LpProblem.maximize(
            np.zeros_like(prob.c), np.vstack([prob.a_ineq, prob.c[None, :]]),
            np.concatenate([prob.b_ineq, [0.0]]), prob.lo, prob.hi), tol)
        if res.status != "optimal":
            return CertificateOutcome(method, False,
                                      reason="degenerate unbounded margin")
    elif res.status != "optimal":
        return CertificateOutcome(
            method, False, margin=-np.inf,
            reason="no admissible vertex inputs" if per_vertex
            else "no admissible input at all")
    return res.z, psis, deltas


def _pairwise_max(psis: np.ndarray, U: np.ndarray) -> float:
    """max over vertex pairs i<j and rows of (psi_r^i - psi_r^j).(u^i - u^j),
    from the stack evaluated at the vertices (``psis`` [N, p, m])."""
    if len(psis) <= 1:
        return 0.0
    i, j, D = _vertex_pairs(psis)
    return float((D @ (U[i] - U[j])[:, :, None]).max())


def pairwise_check(stack: StackedMap, hull: Hull,
                   vertex_inputs: np.ndarray) -> float:
    """max over vertex pairs i<j and rows of (psi_r(x^i)-psi_r(x^j)).(u^i-u^j).

    Nonpositive is the coupling condition under which barycentric blends of
    per-vertex inputs stay valid.  Identically zero when Psi is constant.
    """
    psis = stack.psi_at(hull.vertices)
    return _pairwise_max(psis, np.asarray(vertex_inputs, dtype=float))


# --------------------------------------------------------------------------
# certificate constructions


def endpoint_rule(stack: StackedMap, hull: Hull, input_set: InputSet,
                  tol: Tolerances = DEFAULT) -> CertificateOutcome:
    """Constant input with each coordinate pushed to its favorable bound.

    A column whose entries keep one sign over the hull is monotone in the
    margins, so the best constant choice for that coordinate sits at a bound
    of the admissible interval.  Works only when every column has a uniform
    sign and the bounds are finite on the favored side.
    """
    psis, deltas = stack.eval(hull.vertices)
    nonneg, nonpos = _column_signs(stack, psis, tol)
    lo, hi = input_set.bounds()
    u = np.where(nonneg, hi, lo)
    no_sign = ~(nonneg | nonpos)
    # the favored side of [lo, hi] is empty, or its bound is infinite
    no_end = (np.where(nonneg, np.maximum(lo, 0.0), lo)
              > np.where(nonneg, hi, np.minimum(hi, 0.0))) | ~np.isfinite(u)
    if (no_sign | no_end).any():
        k = int(np.argmax(no_sign | no_end))
        return CertificateOutcome(
            "endpoint_rule", False,
            reason=f"column {k} has no uniform sign over the hull" if no_sign[k]
            else f"column {k}: admissible interval has no usable endpoint")
    if not input_set.contains(u, tol=tol.feas):
        return CertificateOutcome(
            "endpoint_rule", False,
            reason="endpoint input violates the polytope part of the input set")
    worst = float(_row_margins(psis, deltas, u).min())
    if worst < -tol.feas:
        return CertificateOutcome("endpoint_rule", False, margin=worst,
                                  reason="endpoint input fails at a hull vertex")
    cert = IntervalCert(u.copy(), u.copy(), worst, kind="endpoint")
    return CertificateOutcome("endpoint_rule", True, cert, worst)


def cpc_interval(stack: StackedMap, hull: Hull, input_set: InputSet,
                 vertex_inputs: np.ndarray,
                 tol: Tolerances = DEFAULT) -> CertificateOutcome:
    """Box of constant inputs distilled from per-vertex inputs.

    At a vertex where column k helps every row, feasibility survives any
    increase of u_k, so the box floor for coordinate k is the largest such
    vertex input; symmetrically for hurting columns and the ceiling.  The
    box is then clipped to the input set and the sign cone and re-verified
    against the worst corner at every vertex, which is what actually makes
    the certificate sound (the supplied vertex inputs are hints, not trusted
    data).
    """
    U = np.asarray(vertex_inputs, dtype=float)
    if U.shape != (hull.N, stack.m):
        raise ValueError("vertex_inputs must be [N, m]")
    try:
        cone = sign_cone(stack, tol=tol.eig)
    except A3Violated as exc:
        return CertificateOutcome("cpc_interval", False, reason=str(exc))
    blo, bhi = input_set.bounds()
    psis, deltas = stack.eval(hull.vertices)  # [N, p, m], [N, p]

    helpful = np.all(psis >= -tol.sign, axis=1)  # [N, m]
    harmful = np.all(psis <= tol.sign, axis=1)
    mixed = ~(helpful | harmful)
    # Zero columns land in both sets; both bounds then equal (u^j)_k.  On a
    # tie (0.0 against -0.0) np.maximum and np.minimum return their second
    # operand, so the vertex bound nests last and wins ties, then the box's.
    lo = np.maximum(cone.lo, np.maximum(
        blo, np.max(U, axis=0, where=helpful, initial=-np.inf)))
    hi = np.minimum(cone.hi, np.minimum(
        bhi, np.min(U, axis=0, where=harmful, initial=np.inf)))
    failed = mixed.any(axis=0) | (lo > hi + tol.feas)
    if failed.any():
        k = int(np.argmax(failed))
        return CertificateOutcome(
            "cpc_interval", False,
            reason=f"column {k} is not sign-coherent at vertex "
            f"{np.argmax(mixed[:, k])}" if mixed[:, k].any()
            else f"coordinate {k}: interval is empty after clipping")
    hi = np.maximum(lo, hi)
    if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
        return CertificateOutcome(
            "cpc_interval", False,
            reason="interval is unbounded; no finite box to verify")
    if not _box_inside_input_set(input_set, lo, hi, tol):
        return CertificateOutcome(
            "cpc_interval", False,
            reason="interval box leaves the input polytope")
    # [N, p] worst-case row margins over the box, exactly: min over the box
    # of psi_r . u is separable, sum_k min(psi_rk lo_k, psi_rk hi_k)
    margins = np.minimum(psis * lo, psis * hi).sum(axis=2) + deltas
    worst = float(margins.min())
    if worst < -tol.feas:
        return CertificateOutcome(
            "cpc_interval", False, margin=worst,
            reason="box corner fails at a hull vertex")
    cert = IntervalCert(lo, hi, worst)
    return CertificateOutcome("cpc_interval", True, cert, worst)


def cpc_common(stack: StackedMap, hull: Hull, input_set: InputSet,
               tol: Tolerances = DEFAULT) -> CertificateOutcome:
    """Best single constant input over all hull vertices, by one LP."""
    lp = _solve_margin("cpc_common", stack, hull, input_set, False, tol)
    if isinstance(lp, CertificateOutcome):
        return lp
    z, psis, deltas = lp
    u, t = z[:-1], float(z[-1])
    worst = float(_row_margins(psis, deltas, u).min())
    if t < -tol.feas or worst < -tol.feas:
        return CertificateOutcome(
            "cpc_common", False, margin=t,
            reason="best common margin is negative")
    cert = CommonCert(u, worst)
    return CertificateOutcome("cpc_common", True, cert, worst,
                              detail={"lp_margin": t})


def cpc_blend_joint(stack: StackedMap, hull: Hull, input_set: InputSet,
                    tol: Tolerances = DEFAULT) -> CertificateOutcome:
    """Per-vertex inputs from one joint LP, blendable across the hull.

    Variables are (u^1, ..., u^N, t).  Margin rows hold at each vertex, and
    coupling rows (psi_r(x^i) - psi_r(x^j)) . (u^i - u^j) <= 0 make every
    barycentric blend inherit the worst vertex margin.  With constant Psi the
    coupling rows vanish identically and are skipped.
    """
    lp = _solve_margin("cpc_blend", stack, hull, input_set, True, tol)
    if isinstance(lp, CertificateOutcome):
        return lp
    z, psis, deltas = lp
    U, t = z[:-1].reshape(hull.N, stack.m), float(z[-1])
    worst = float(_row_margins(psis, deltas, U).min())
    pmax = _pairwise_max(psis, U)
    if t < -tol.feas or worst < -tol.feas or pmax > tol.feas:
        return CertificateOutcome(
            "cpc_blend", False, margin=t,
            reason="joint margin is negative" if t < -tol.feas
            else "witness re-verification failed",
            detail={"pairwise_max": pmax})
    cert = BlendCert(U, worst, pmax)
    return CertificateOutcome("cpc_blend", True, cert, worst,
                              detail={"lp_margin": t, "pairwise_max": pmax})


_DEFAULT_ORDER = ("endpoint", "interval", "common", "blend")


def certify(stack: StackedMap, hull: Hull, input_set: InputSet,
            vertex_inputs: np.ndarray | None = None,
            order=None, tol: Tolerances = DEFAULT):
    """Run the certificate cascade, cheapest first.

    Returns (certificate | None, diagnostics).  The diagnostics dict records
    every attempt in order with its validity, margin, and failure reason, and
    names the winning method (or None).  ``vertex_inputs`` feeds the interval
    construction; without them that stage is skipped.
    """
    order = tuple(order) if order is not None else _DEFAULT_ORDER
    attempts = []
    winner = None
    cert = None
    for name in order:
        if name == "endpoint":
            out = endpoint_rule(stack, hull, input_set, tol)
        elif name == "interval":
            if vertex_inputs is None:
                attempts.append({"method": "cpc_interval", "valid": False,
                                 "margin": None,
                                 "reason": "skipped: no vertex inputs supplied"})
                continue
            out = cpc_interval(stack, hull, input_set, vertex_inputs, tol)
        elif name == "common":
            out = cpc_common(stack, hull, input_set, tol)
        elif name == "blend":
            out = cpc_blend_joint(stack, hull, input_set, tol)
        else:
            raise ValueError(f"unknown cascade stage {name!r}")
        attempts.append(out.to_dict())
        if out.valid:
            winner = out.method
            cert = out.certificate
            break
    diagnostics = {"order": list(order), "attempts": attempts,
                   "method": winner,
                   "certified": cert is not None}
    return cert, diagnostics
