"""Problem data model: quadratic entries, stacked constraint maps, hulls, input sets.

A stacked constraint map collects p scalar rows Psi_i(x) u + delta_i(x) >= 0,
u in R^m, x in R^n, where every Psi entry and every delta entry is a quadratic
function of the state.  The admissible states form the convex hull of a finite
vertex list; the admissible inputs form a box, a polytope, or their
intersection.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .optcore import LpProblem, solve_lp


def _ro(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


class QuadFunc:
    """Scalar polynomial x -> x'Qx + c'x + d with symmetric Q (no 1/2 factor).

    Q is symmetrized on construction, which leaves the quadratic form
    unchanged.  Instances are immutable; the stored arrays are read-only.
    """

    __slots__ = ("Q", "c", "d")

    def __init__(self, Q=None, c=None, d: float = 0.0, n: int | None = None):
        if Q is not None:
            Q = np.atleast_2d(np.asarray(Q, dtype=float))
            n = Q.shape[0]
            if Q.shape != (n, n):
                raise ValueError(f"Q must be square, got shape {Q.shape}")
        if c is not None:
            c = np.atleast_1d(np.asarray(c, dtype=float))
            if n is None:
                n = c.shape[0]
            elif c.shape != (n,):
                raise ValueError(f"c has length {c.shape[0]}, expected {n}")
        if n is None:
            raise ValueError("cannot infer dimension: pass Q, c, or n")
        if Q is None:
            Q = np.zeros((n, n))
        if c is None:
            c = np.zeros(n)
        if not (np.all(np.isfinite(Q)) and np.all(np.isfinite(c)) and np.isfinite(d)):
            raise ValueError("QuadFunc coefficients must be finite")
        self.Q = _ro((Q + Q.T) / 2.0)
        self.c = _ro(c)
        self.d = float(d)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.Q @ x + self.c @ x + self.d)

    def is_affine(self, tol: float = 1e-12) -> bool:
        return not _class_codes(self.Q[None], tol)[0]

    def affine_coeffs(self, tol: float = 1e-12) -> tuple[np.ndarray, float]:
        if not self.is_affine(tol):
            raise ValueError("entry is not affine")
        return self.c, self.d

    def to_dict(self) -> dict:
        return {"Q": self.Q.tolist(), "c": self.c.tolist(), "d": self.d}

    @classmethod
    def from_dict(cls, data: dict, n: int | None = None) -> "QuadFunc":
        if not isinstance(data, dict):
            raise ValueError(f"quadratic entry must be an object, got {type(data).__name__}")
        extra = set(data) - {"Q", "c", "d"}
        if extra:
            raise ValueError(f"quadratic entry has unknown keys {sorted(extra)}; "
                             "only degree <= 2 terms (Q, c, d) are representable")
        return cls(Q=data.get("Q"), c=data.get("c"), d=data.get("d", 0.0), n=n)

    def __repr__(self) -> str:
        return f"QuadFunc(n={self.n}, affine={self.is_affine()})"


def _coeff_arrays(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (Q [E, n, n], c [E, n], d [E]) of a sequence of entries."""
    return (_ro([q.Q for q in entries]), _ro([q.c for q in entries]),
            _ro([q.d for q in entries]))


def _class_codes(Q: np.ndarray, tol: float) -> np.ndarray:
    """Curvature code [E] of each symmetric Q [E, n, n] by the table in
    ``curvature``'s docstring; ``eigvalsh`` runs once, on the curved Q only."""
    codes = np.zeros(len(Q), dtype=np.uint8)
    curved = np.abs(Q).max(axis=(1, 2), initial=0.0) > tol
    if curved.any():
        eigs = np.linalg.eigvalsh(Q[curved])
        codes[curved] = np.where(eigs[:, -1] <= tol, 1, 2 + (eigs[:, 0] < -tol))
    return codes


def _entries_at(coeffs, x) -> np.ndarray:
    """Each entry of ``coeffs`` at one state x [n] -> [E], or at each row of
    X [K, n] -> [K, E], with the bits of ``QuadFunc.__call__`` on a
    contiguous copy of the state: the matmuls sum in its order, (x Q) x +
    c x + d, where ``einsum`` or ``((X @ Q) * X).sum`` would not."""
    Q, c, d = coeffs
    X = np.ascontiguousarray(x, dtype=float)
    rows, cols = X[..., None, None, :], X[..., None, :, None]
    return (np.matmul(rows, Q) @ cols + rows @ c[:, :, None])[..., 0, 0] + d


def _row_margins(psis: np.ndarray, deltas: np.ndarray, U: np.ndarray) -> np.ndarray:
    """[K, p] row margins Psi u + delta at K evaluated states (``psis``
    [K, p, m], ``deltas`` [K, p]) of one input U [m], or of U[k] at state k."""
    return (psis @ U[..., None])[..., 0] + deltas


@dataclass(frozen=True)
class AffineStack:
    """Dense affine form Psi(x) = P0 + P1.x, delta(x) = D0 + D1 x: faster than
    ``StackedMap``'s reads, with other last bits (see README)."""

    P0: np.ndarray  # [p, m]
    P1: np.ndarray  # [p, m, n]
    D0: np.ndarray  # [p]
    D1: np.ndarray  # [p, n]

    def psi_at(self, x: np.ndarray) -> np.ndarray:
        return self.P0 + self.P1 @ np.asarray(x, dtype=float)

    def delta_at(self, x: np.ndarray) -> np.ndarray:
        return self.D0 + self.D1 @ np.asarray(x, dtype=float)

    def psi_batch(self, X: np.ndarray) -> np.ndarray:
        """[K, n] -> [K, p, m]."""
        return np.einsum("pmn,kn->kpm", self.P1, np.asarray(X, dtype=float)) + self.P0

    def delta_batch(self, X: np.ndarray) -> np.ndarray:
        """[K, n] -> [K, p]."""
        return np.asarray(X, dtype=float) @ self.D1.T + self.D0


class StackedMap:
    """p x m grid of input-coefficient entries plus p drift entries, all on R^n."""

    def __init__(self, psi, delta):
        psi = tuple(tuple(row) for row in psi)
        delta = tuple(delta)
        if len(psi) == 0 or len(delta) == 0:
            raise ValueError("stacked map needs at least one row")
        if len(psi) != len(delta):
            raise ValueError(f"psi has {len(psi)} rows but delta has {len(delta)}")
        m = len(psi[0])
        if m == 0 or any(len(row) != m for row in psi):
            raise ValueError("psi rows must share a common positive length")
        n = delta[0].n
        entries = [q for row in psi for q in row]
        if any(q.n != n for q in entries + list(delta)):
            raise ValueError("all entries must share the state dimension")
        self.psi = psi
        self.delta = delta
        self.n = n
        self.m = m
        self.p = len(psi)
        self._psi = _coeff_arrays(entries)
        self._delta = _coeff_arrays(delta)

    def psi_at(self, x) -> np.ndarray:
        """Psi at one state x [n] -> [p, m], or at each row of X [K, n] ->
        [K, p, m]."""
        vals = _entries_at(self._psi, x)
        return vals.reshape(vals.shape[:-1] + (self.p, self.m))

    def delta_at(self, x) -> np.ndarray:
        """delta at one state x [n] -> [p], or at each row of X [K, n] -> [K, p]."""
        return _entries_at(self._delta, x)

    def eval(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(Psi [K, p, m], delta [K, p]) at each row of X [K, n]."""
        return self.psi_at(X), self.delta_at(X)

    def _codes(self, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """``_class_codes`` of the Psi [p, m] and delta [p] entries."""
        return (_class_codes(self._psi[0], tol).reshape(self.p, self.m),
                _class_codes(self._delta[0], tol))

    def affine_arrays(self) -> AffineStack | None:
        """Dense affine form, or None when any entry is genuinely quadratic."""
        if any(codes.any() for codes in self._codes(1e-12)):
            return None
        (_, cp, dp), (_, cd, dd) = self._psi, self._delta
        return AffineStack(dp.reshape(self.p, self.m),
                           cp.reshape(self.p, self.m, self.n), dd, cd)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "psi": [[q.to_dict() for q in row] for row in self.psi],
            "delta": [q.to_dict() for q in self.delta],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StackedMap":
        n = data.get("n")
        psi = [[QuadFunc.from_dict(q, n=n) for q in row] for row in data["psi"]]
        delta = [QuadFunc.from_dict(q, n=n) for q in data["delta"]]
        return cls(psi, delta)

    def __repr__(self) -> str:
        return f"StackedMap(n={self.n}, m={self.m}, p={self.p})"


def barycentric_lp(V: np.ndarray, x: np.ndarray, tol: float):
    """Weights lam in [0, 1]^N with lam'V = x and sum lam = 1, each to within
    tol, found by a feasibility LP; None when x is outside the hull of V."""
    N = V.shape[0]
    A = np.vstack([V.T, -V.T, np.ones((1, N)), -np.ones((1, N))])
    b = np.concatenate([x + tol, -(x - tol), [1.0 + tol], [-(1.0 - tol)]])
    res = solve_lp(LpProblem.maximize(np.zeros(N), a_ineq=A, b_ineq=b,
                                      lo=np.zeros(N), hi=np.ones(N)))
    return res.z if res.status == "optimal" else None


class Hull:
    """Ordered vertex list; the represented state set is the convex hull."""

    def __init__(self, vertices):
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        if V.ndim != 2 or V.shape[0] < 1:
            raise ValueError("hull needs a [N, n] vertex array")
        if V.shape[1] < 1:
            raise ValueError("hull states need at least one dimension")
        if not np.all(np.isfinite(V)):
            raise ValueError("hull vertices must be finite")
        for i in range(V.shape[0] - 1):
            same = np.flatnonzero(np.abs(V[i + 1:] - V[i]).max(axis=1) <= 1e-12)
            if same.size:
                raise ValueError(f"hull vertices {i} and {i + 1 + same[0]} coincide")
        self.vertices = _ro(V)
        self.N = V.shape[0]
        self.n = V.shape[1]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def as_box(self):
        """(lo, hi, corner_index) when the vertex set is exactly an axis box, else None.

        corner_index maps each corner bitmask (bit a set means axis a sits at hi)
        to the index of the matching vertex.
        """
        lo, hi = self.bounding_box()
        if self.N != 2 ** self.n or np.any(hi - lo <= 1e-12):
            return None
        corner_index = {}
        for j, v in enumerate(self.vertices):
            bits = 0
            for a in range(self.n):
                if abs(v[a] - hi[a]) <= 1e-12:
                    bits |= 1 << a
                elif abs(v[a] - lo[a]) > 1e-12:
                    return None
            if bits in corner_index:
                return None
            corner_index[bits] = j
        return lo, hi, corner_index

    def barycentric(self, x, tol: float = 1e-9):
        """Coefficients lam >= 0, sum lam = 1, lam'V = x, or None when x is outside."""
        return barycentric_lp(self.vertices, np.asarray(x, dtype=float), tol)

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.barycentric(x, tol) is not None

    def to_dict(self) -> dict:
        return {"vertices": self.vertices.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Hull":
        return cls(data["vertices"])

    def __repr__(self) -> str:
        return f"Hull(N={self.N}, n={self.n})"


class InputSet:
    """Admissible inputs: an axis box, polytope rows G u <= b, or their intersection."""

    def __init__(self, box=None, polytope=None):
        if box is None and polytope is None:
            raise ValueError("input set needs a box, a polytope, or both")
        m = None
        if box is not None:
            lo = np.atleast_1d(np.asarray(box[0], dtype=float))
            hi = np.atleast_1d(np.asarray(box[1], dtype=float))
            if lo.shape != hi.shape or lo.ndim != 1:
                raise ValueError("box bounds must be two vectors of equal length")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError("box bounds must be finite")
            if np.any(lo > hi):
                raise ValueError("box is empty: some lower bound exceeds its upper bound")
            box = (_ro(lo), _ro(hi))
            m = lo.shape[0]
        if polytope is not None:
            G = np.atleast_2d(np.asarray(polytope[0], dtype=float))
            b = np.atleast_1d(np.asarray(polytope[1], dtype=float))
            if G.shape[0] != b.shape[0]:
                raise ValueError("polytope rows and offsets disagree")
            if not (np.all(np.isfinite(G)) and np.all(np.isfinite(b))):
                raise ValueError("polytope data must be finite")
            if m is not None and G.shape[1] != m:
                raise ValueError("box and polytope input dimensions disagree")
            m = G.shape[1]
            polytope = (_ro(G), _ro(b))
        self.box = box
        self.polytope = polytope
        self.m = m
        if polytope is not None:
            self._check_nonempty()

    def _check_nonempty(self):
        lo, hi = self.bounds()
        G, b = self.polytope
        res = solve_lp(LpProblem.maximize(np.zeros(self.m), a_ineq=G, b_ineq=b,
                                          lo=lo, hi=hi))
        if res.status != "optimal":
            raise ValueError("input set is empty")

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box bounds as arrays, +-inf where no box is present."""
        if self.box is not None:
            return self.box[0].copy(), self.box[1].copy()
        return np.full(self.m, -np.inf), np.full(self.m, np.inf)

    def to_polytope(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical row form G u <= b; box rows [I; -I] come first."""
        rows = []
        offs = []
        if self.box is not None:
            lo, hi = self.box
            rows.append(np.eye(self.m))
            offs.append(hi)
            rows.append(-np.eye(self.m))
            offs.append(-lo)
        if self.polytope is not None:
            rows.append(self.polytope[0])
            offs.append(self.polytope[1])
        return np.vstack(rows), np.concatenate(offs)

    def contains(self, u, tol: float = 1e-9) -> bool:
        u = np.asarray(u, dtype=float)
        G, b = self.to_polytope()
        return bool(np.all(G @ u - b <= tol))

    def to_dict(self) -> dict:
        out: dict = {}
        if self.box is not None:
            out["box"] = {"umin": self.box[0].tolist(), "umax": self.box[1].tolist()}
        if self.polytope is not None:
            out["polytope"] = {"G": self.polytope[0].tolist(),
                               "b": self.polytope[1].tolist()}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "InputSet":
        box = None
        poly = None
        if data.get("box"):
            box = (data["box"]["umin"], data["box"]["umax"])
        if data.get("polytope"):
            poly = (data["polytope"]["G"], data["polytope"]["b"])
        return cls(box=box, polytope=poly)

    def __repr__(self) -> str:
        parts = []
        if self.box is not None:
            parts.append("box")
        if self.polytope is not None:
            parts.append(f"{self.polytope[0].shape[0]} rows")
        return f"InputSet(m={self.m}, {'+'.join(parts)})"


@dataclass(frozen=True)
class DesiredInput:
    """Affine desired-input law u_des(x) = U_gain x + u0."""

    U_gain: np.ndarray
    u0: np.ndarray

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.U_gain, dtype=float))
        u0 = np.atleast_1d(np.asarray(self.u0, dtype=float))
        if U.shape[0] != u0.shape[0]:
            raise ValueError("gain rows and offset length disagree")
        object.__setattr__(self, "U_gain", _ro(U))
        object.__setattr__(self, "u0", _ro(u0))

    @property
    def m(self) -> int:
        return self.u0.shape[0]

    @property
    def n(self) -> int:
        return self.U_gain.shape[1]

    def __call__(self, x) -> np.ndarray:
        return self.U_gain @ np.asarray(x, dtype=float) + self.u0

    def to_dict(self) -> dict:
        return {"U": self.U_gain.tolist(), "u0": self.u0.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "DesiredInput":
        return cls(np.asarray(data["U"], dtype=float), np.asarray(data["u0"], dtype=float))


def build_from_lti(A, B, cbf_rows, input_set: InputSet | None = None) -> StackedMap:
    """Stack affine barrier rows for dynamics xdot = A x + B u.

    Each row of ``cbf_rows`` is (a, b, kappa) describing the half-space barrier
    h(x) = a'x + b with linear decay rate kappa >= 0.  The resulting row reads
    (a'B) u + a'A x + kappa (a'x + b) >= 0, so the input coefficients are
    constant and the drift entry is affine.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if B.shape[0] != n:
        raise ValueError("B row count must match the state dimension")
    m = B.shape[1]
    if input_set is not None and input_set.m != m:
        raise ValueError("input set dimension does not match B")
    psi = []
    delta = []
    for a, b, kappa in cbf_rows:
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if a.shape != (n,):
            raise ValueError("barrier normal has the wrong length")
        kappa = float(kappa)
        if kappa < 0:
            raise ValueError("decay rate kappa must be nonnegative")
        row_coeffs = a @ B
        psi.append([QuadFunc(c=np.zeros(n), d=float(row_coeffs[k])) for k in range(m)])
        delta.append(QuadFunc(c=A.T @ a + kappa * a, d=kappa * float(b)))
    return StackedMap(psi, delta)


@dataclass
class Problem:
    """A loaded problem file: map, hull, input set, optional desired input."""

    stack: StackedMap
    hull: Hull
    input_set: InputSet
    u_des: DesiredInput | None = None
    lti: dict | None = None
    source_hash: str | None = None


def problem_to_dict(stack: StackedMap, hull: Hull, input_set: InputSet,
                    u_des: DesiredInput | None = None,
                    lti: dict | None = None) -> dict:
    out = stack.to_dict()
    out["input_set"] = input_set.to_dict()
    out["hull"] = hull.to_dict()
    if u_des is not None:
        out["u_des"] = u_des.to_dict()
    if lti is not None:
        out["lti"] = {
            "A": np.asarray(lti["A"], dtype=float).tolist(),
            "B": np.asarray(lti["B"], dtype=float).tolist(),
            "cbfs": [{"a": np.asarray(a, dtype=float).tolist(), "b": float(b),
                      "kappa": float(k)} for (a, b, k) in lti["cbfs"]],
        }
    return out


def dict_to_problem(data: dict, source_hash: str | None = None) -> Problem:
    if not isinstance(data, dict):
        raise ValueError("a problem file must hold a JSON object, not a "
                         f"{type(data).__name__}")
    try:
        input_set = InputSet.from_dict(data["input_set"])
        hull = Hull.from_dict(data["hull"])
        lti = data.get("lti")
        if lti:
            # rows as (a, b, kappa), the form the built-in cases carry
            lti = {**lti, "cbfs": [(row["a"], row["b"], row["kappa"])
                                   for row in lti["cbfs"]]}
            stack = build_from_lti(lti["A"], lti["B"], lti["cbfs"], input_set)
        else:
            stack = StackedMap.from_dict(data)
        u_des = DesiredInput.from_dict(data["u_des"]) if data.get("u_des") else None
    except KeyError as exc:
        raise ValueError(f"problem file is missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"problem file has a field of the wrong type: {exc}") from exc
    if stack.m != input_set.m:
        raise ValueError("input set dimension does not match the stacked map")
    if stack.n != hull.n:
        raise ValueError("hull dimension does not match the stacked map")
    if u_des is not None and (u_des.m != stack.m or u_des.n != stack.n):
        raise ValueError("desired-input dimensions do not match the stacked map")
    declared_p = data.get("p")
    if declared_p is not None and declared_p != stack.p:
        raise ValueError(f"declared p={declared_p} but {stack.p} rows were parsed")
    # every LP and QP of the package reads the stack at or between the
    # vertices, so an overflow there has to stop the load
    with np.errstate(over="ignore", invalid="ignore"):
        psis, deltas = stack.eval(hull.vertices)
    bad = ~(np.isfinite(psis).all(axis=(1, 2)) & np.isfinite(deltas).all(axis=1))
    if bad.any():
        raise ValueError("the stacked map is not finite at hull vertex "
                         f"{hull.vertices[bad.argmax()].tolist()}")
    return Problem(stack, hull, input_set, u_des=u_des, lti=lti,
                   source_hash=source_hash)


def load_problem(path: str) -> Problem:
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return dict_to_problem(data, source_hash=digest)


def save_problem(path: str, stack: StackedMap, hull: Hull, input_set: InputSet,
                 u_des: DesiredInput | None = None, lti: dict | None = None) -> str:
    data = problem_to_dict(stack, hull, input_set, u_des=u_des, lti=lti)
    blob = json.dumps(data, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(blob + "\n")
    return hashlib.sha256((blob + "\n").encode()).hexdigest()
