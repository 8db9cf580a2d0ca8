"""Curvature classification and the sign-aligned input cone.

A column of the stacked map whose entries are all concave admits inputs
u_k >= 0 without breaking concavity of x -> Psi(x) u; an all-convex column
admits u_k <= 0; an affine column admits any sign.  The product of these
per-column intervals is the sign-aligned cone: for u inside it, every row of
x -> Psi(x) u + delta(x) is concave whenever delta is concave.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .problem import Hull, InputSet, QuadFunc, StackedMap
from .tolerances import DEFAULT, Tolerances


class CurvatureClass(Enum):
    AFFINE = "affine"
    CONCAVE = "concave"
    CONVEX = "convex"
    INDEFINITE = "indefinite"


class A3Violated(ValueError):
    """Some input column mixes concave and convex entries."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} has indefinite curvature")


class ConeViolation(ValueError):
    """An input falls outside the sign-aligned cone."""


def classify_quadratic(q: QuadFunc, tol: float = DEFAULT.eig) -> CurvatureClass:
    """Classify by the eigenvalues of Q: affine, concave, convex, or indefinite."""
    if q.Q.size == 0 or np.max(np.abs(q.Q)) <= tol:
        return CurvatureClass.AFFINE
    eigs = np.linalg.eigvalsh(q.Q)
    if eigs[-1] <= tol:
        return CurvatureClass.CONCAVE
    if eigs[0] >= -tol:
        return CurvatureClass.CONVEX
    return CurvatureClass.INDEFINITE


def _aggregate(classes) -> CurvatureClass:
    """Combine entry classes; affine entries are compatible with either side."""
    classes = list(classes)
    has_concave = any(c is CurvatureClass.CONCAVE for c in classes)
    has_convex = any(c is CurvatureClass.CONVEX for c in classes)
    if any(c is CurvatureClass.INDEFINITE for c in classes):
        return CurvatureClass.INDEFINITE
    if has_concave and has_convex:
        return CurvatureClass.INDEFINITE
    if has_concave:
        return CurvatureClass.CONCAVE
    if has_convex:
        return CurvatureClass.CONVEX
    return CurvatureClass.AFFINE


def column_curvature(stack: StackedMap, k: int, tol: float = DEFAULT.eig) -> CurvatureClass:
    """Aggregate curvature class of column k across all p rows."""
    if not 0 <= k < stack.m:
        raise IndexError(f"column {k} out of range for m={stack.m}")
    return _aggregate(classify_quadratic(stack.psi[i][k], tol) for i in range(stack.p))


@dataclass(frozen=True)
class SignCone:
    """Per-coordinate sign restrictions as interval bounds (entries 0 or +-inf)."""

    lo: np.ndarray
    hi: np.ndarray

    def contains(self, u, tol: float = 1e-12) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.lo - tol) and np.all(u <= self.hi + tol))


def sign_cone(stack: StackedMap, tol: float = DEFAULT.eig) -> SignCone:
    """Sign-aligned cone of the map; raises A3Violated on an indefinite column."""
    lo = np.full(stack.m, -np.inf)
    hi = np.full(stack.m, np.inf)
    for k in range(stack.m):
        cls = column_curvature(stack, k, tol)
        if cls is CurvatureClass.INDEFINITE:
            raise A3Violated(k)
        if cls is CurvatureClass.CONCAVE:
            lo[k] = 0.0
        elif cls is CurvatureClass.CONVEX:
            hi[k] = 0.0
    lo.setflags(write=False)
    hi.setflags(write=False)
    return SignCone(lo, hi)


def uniform_column_sign(stack: StackedMap, hull: Hull, k: int,
                        tol: Tolerances = DEFAULT) -> str:
    """'nonneg' / 'nonpos' / 'inconclusive' for column k over the whole hull.

    Vertex nonnegativity of a concave entry propagates to the hull, and vertex
    nonpositivity of a convex entry does the same, so the vertex values plus
    the entry classes certify a uniform sign.  Zero columns resolve to nonneg.
    """
    cls = column_curvature(stack, k, tol.eig)
    vals = stack.psi_at(hull.vertices)[:, :, k]
    if vals.min() >= -tol.sign and cls in (CurvatureClass.AFFINE,
                                           CurvatureClass.CONCAVE):
        return "nonneg"
    if vals.max() <= tol.sign and cls in (CurvatureClass.AFFINE,
                                          CurvatureClass.CONVEX):
        return "nonpos"
    return "inconclusive"


def concavity_witness(stack: StackedMap, u, hull: Hull, trials: int = 1000,
                      seed: int = 0, rng: np.random.Generator | None = None) -> float:
    """Largest observed concavity violation of x -> Psi(x) u over random mixes.

    Draws random vertex subsets and barycentric weights, then compares the
    mixed value against the mixture of vertex values rowwise.  Nonpositive
    output (up to roundoff) is what concavity predicts.  Raises ConeViolation
    when u falls outside the sign-aligned cone.
    """
    u = np.asarray(u, dtype=float)
    cone = sign_cone(stack)
    if not cone.contains(u):
        raise ConeViolation(f"input {u.tolist()} leaves the sign-aligned cone")
    rng = rng if rng is not None else np.random.default_rng(seed)
    V = hull.vertices
    if hull.N == 1:
        return 0.0
    draws, x_mix = [], np.empty((trials, hull.n))
    for t in range(trials):
        k = int(rng.integers(2, hull.N + 1))
        idx = rng.choice(hull.N, size=k, replace=False)
        lam = rng.dirichlet(np.ones(k))
        x_mix[t] = lam @ V[idx]
        draws.append((idx, lam))
    phi_vertices = stack.psi_at(V) @ u  # [N, p]
    mixed = stack.psi_at(x_mix) @ u  # [trials, p]
    return max((float(np.max(lam @ phi_vertices[idx] - mix))
                for (idx, lam), mix in zip(draws, mixed)), default=-np.inf)


@dataclass
class AssumptionReport:
    """Which structural hypotheses hold: concave drift (A2) and sign-coherent columns (A3)."""

    delta_classes: list[CurvatureClass]
    column_classes: list[CurvatureClass]
    a2_ok: bool
    a3_ok: bool

    def to_dict(self) -> dict:
        return {
            "delta_classes": [c.value for c in self.delta_classes],
            "column_classes": [c.value for c in self.column_classes],
            "a2_ok": self.a2_ok,
            "a3_ok": self.a3_ok,
        }


def validate_problem(stack: StackedMap, hull: Hull, input_set: InputSet,
                     tol: Tolerances = DEFAULT) -> AssumptionReport:
    """Classify every drift entry and every input column of the map.

    Classification is global (curvature of the quadratic itself), which is
    sufficient for hull-wide claims and never reports a false positive.
    """
    if stack.n != hull.n:
        raise ValueError("hull dimension does not match the stacked map")
    if stack.m != input_set.m:
        raise ValueError("input set dimension does not match the stacked map")
    delta_classes = [classify_quadratic(q, tol.eig) for q in stack.delta]
    column_classes = [column_curvature(stack, k, tol.eig) for k in range(stack.m)]
    a2_ok = all(c in (CurvatureClass.AFFINE, CurvatureClass.CONCAVE)
                for c in delta_classes)
    a3_ok = all(c is not CurvatureClass.INDEFINITE for c in column_classes)
    return AssumptionReport(delta_classes, column_classes, a2_ok, a3_ok)
