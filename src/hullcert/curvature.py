"""Curvature classification and the sign-aligned input cone.

A column of the stacked map whose entries are all concave admits inputs
u_k >= 0 without breaking concavity of x -> Psi(x) u; an all-convex column
admits u_k <= 0; an affine column admits any sign.  The product of these
per-column intervals is the sign-aligned cone: for u inside it, every row of
x -> Psi(x) u + delta(x) is concave whenever delta is concave.

One rule decides every class: ``problem._class_codes``, with one batched
``eigvalsh`` over a stack's curved entries.  For a symmetric Q:

  0 affine      every |Q_ij| <= tol
  1 concave     else, largest eigenvalue <= tol
  2 convex      else, smallest eigenvalue >= -tol
  3 indefinite  else

A column's class is the bitwise or of its entries' codes: affine sides with
either, and concave beside convex is indefinite.  ``tol.eig`` serves the
sign cone, the column signs and ``validate_problem``; 1e-12 serves
``StackedMap.affine_arrays``, ``QuadFunc.is_affine`` and explicit's
Assumption 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .problem import Hull, InputSet, QuadFunc, StackedMap, _class_codes
from .tolerances import DEFAULT, Tolerances


class CurvatureClass(Enum):
    AFFINE = "affine"
    CONCAVE = "concave"
    CONVEX = "convex"
    INDEFINITE = "indefinite"


_CLASSES = tuple(CurvatureClass)  # indexed by curvature code 0..3


class A3Violated(ValueError):
    """Some input column mixes concave and convex entries."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} has indefinite curvature")


class ConeViolation(ValueError):
    """An input falls outside the sign-aligned cone."""


def classify_quadratic(q: QuadFunc, tol: float = DEFAULT.eig) -> CurvatureClass:
    """Classify by the eigenvalues of Q: affine, concave, convex, or indefinite."""
    return _CLASSES[_class_codes(q.Q[None], tol)[0]]


def _column_codes(stack: StackedMap, tol: float) -> np.ndarray:
    """Curvature code [m] of each column: the bitwise or of its entries'."""
    return np.bitwise_or.reduce(stack._codes(tol)[0], axis=0)


def column_curvature(stack: StackedMap, k: int, tol: float = DEFAULT.eig) -> CurvatureClass:
    """Aggregate curvature class of column k across all p rows."""
    if not 0 <= k < stack.m:
        raise IndexError(f"column {k} out of range for m={stack.m}")
    return _CLASSES[_column_codes(stack, tol)[k]]


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
    codes = _column_codes(stack, tol)
    if (codes == 3).any():
        raise A3Violated(int(np.argmax(codes == 3)))
    lo = np.where(codes == 1, 0.0, -np.inf)
    hi = np.where(codes == 2, 0.0, np.inf)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return SignCone(lo, hi)


def _column_signs(stack: StackedMap, psis: np.ndarray,
                  tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """(nonneg [m], nonpos [m]): the columns whose sign is uniform over the
    hull, from the stack evaluated at the vertices (``psis`` [N, p, m]).

    Vertex nonnegativity of a concave entry propagates to the hull, and
    vertex nonpositivity of a convex entry does the same, so the vertex
    values plus the column classes certify a uniform sign.  A zero column
    is both.
    """
    codes = _column_codes(stack, tol.eig)
    nonneg = (psis.min(axis=(0, 1)) >= -tol.sign) & ((codes & 2) == 0)
    nonpos = (psis.max(axis=(0, 1)) <= tol.sign) & ((codes & 1) == 0)
    return nonneg, nonpos


def uniform_column_sign(stack: StackedMap, hull: Hull, k: int,
                        tol: Tolerances = DEFAULT) -> str:
    """'nonneg' / 'nonpos' / 'inconclusive' for column k over the whole hull
    (see ``_column_signs``); a zero column resolves to nonneg."""
    if not 0 <= k < stack.m:
        raise IndexError(f"column {k} out of range for m={stack.m}")
    nonneg, nonpos = _column_signs(stack, stack.psi_at(hull.vertices), tol)
    return "nonneg" if nonneg[k] else "nonpos" if nonpos[k] else "inconclusive"


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
    column_codes = _column_codes(stack, tol.eig)
    delta_codes = stack._codes(tol.eig)[1]
    return AssumptionReport([_CLASSES[c] for c in delta_codes],
                            [_CLASSES[c] for c in column_codes],
                            a2_ok=bool(((delta_codes & 2) == 0).all()),
                            a3_ok=bool((column_codes != 3).all()))
