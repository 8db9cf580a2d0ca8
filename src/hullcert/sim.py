"""Closed-loop simulation: fixed-step RK4 with zero-order-hold controllers.

Controllers are callables x -> u evaluated once per step; the input is held
across the step's four RK4 stages.  Controller exceptions terminate the run
with a partial trajectory and a failure flag rather than propagating, so
batch studies always produce inspectable output.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .explicit import ExplicitController, NoRegion, OutsideHull
from .optcore import InfeasibleQP, NumericalFailure, WarmQp
from .problem import InputSet, StackedMap
from .tolerances import DEFAULT, Tolerances


class ControllerFailure(RuntimeError):
    """A controller could not produce an input at the current state."""


class Dynamics:
    """Control-affine dynamics x' = f(x) + g(x) u with affine f and g.

    f(x) = A x + b0 and g(x) = G0 + G1 . x (entrywise affine input gain),
    which covers LTI systems (G1 = 0) and the three-room conduction model.
    """

    def __init__(self, A, b0, G0, G1=None):
        self.A = np.asarray(A, dtype=float)
        self.b0 = np.asarray(b0, dtype=float)
        self.G0 = np.asarray(G0, dtype=float)
        n = self.A.shape[0]
        self.n, self.m = self.G0.shape
        if self.A.shape != (n, n) or self.b0.shape != (n,) or self.n != n:
            raise ValueError("dynamics dimensions are inconsistent")
        self.G1 = (np.zeros((self.n, self.m, n)) if G1 is None
                   else np.asarray(G1, dtype=float))
        if self.G1.shape != (self.n, self.m, n):
            raise ValueError("input-gain tensor has the wrong shape")
        self._constant_g = not np.any(self.G1)
        # (n, n, m) layout so held_affine contracts u with one matmul
        self._G1_swap = np.ascontiguousarray(self.G1.transpose(0, 2, 1))

    @classmethod
    def lti(cls, A, B, b0=None) -> "Dynamics":
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if b0 is None:
            b0 = np.zeros(A.shape[0])
        return cls(A, b0, B)

    @classmethod
    def three_room(cls, a: float, b: float, c: float, t_e: float,
                   t_h: float) -> "Dynamics":
        """Cyclic three-room conduction with heater valves:
        x_i' = a(x_{i+1} + x_{i-1} - 2 x_i) + b(t_e - x_i) + c(t_h - x_i) u_i
        """
        A = np.full((3, 3), a) - np.eye(3) * (3 * a + b)
        b0 = np.full(3, b * t_e)
        G0 = c * t_h * np.eye(3)
        G1 = np.zeros((3, 3, 3))
        for i in range(3):
            G1[i, i, i] = -c
        return cls(A, b0, G0, G1)

    def g_at(self, x) -> np.ndarray:
        if self._constant_g:
            return self.G0
        return self.G0 + self.G1 @ np.asarray(x, dtype=float)

    def rhs(self, x, u) -> np.ndarray:
        return self.A @ x + self.b0 + self.g_at(x) @ u

    def held_affine(self, u) -> tuple[np.ndarray, np.ndarray]:
        """rhs as M x + c for a fixed input; exact since f and g are affine.

        Collapses g(x) u = G0 u + (G1 . x) u into (G1 . u) x + G0 u so a
        zero-order-hold integrator pays the tensor contraction once per step
        instead of once per stage.
        """
        c = self.b0 + self.G0 @ u
        if self._constant_g:
            return self.A, c
        return self.A + self._G1_swap @ u, c


@dataclass
class Trajectory:
    """Uniform-grid rollout record; one status string per step."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    h_values: np.ndarray | None
    status: list[str]
    completed: bool
    note: str = ""

    def min_h(self) -> float:
        if self.h_values is None or self.h_values.size == 0:
            raise ValueError("no CBF values were recorded")
        return float(self.h_values.min())

    def write_csv(self, path):
        n = self.states.shape[1]
        m = self.inputs.shape[1]
        p = 0 if self.h_values is None else self.h_values.shape[1]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"x{i + 1}" for i in range(n)]
                       + [f"u{k + 1}" for k in range(m)]
                       + [f"h{r + 1}" for r in range(p)] + ["status"])
            for i, t in enumerate(self.times):
                row = [f"{t:.6f}"]
                row += [f"{v:.10g}" for v in self.states[i]]
                row += [f"{v:.10g}" for v in self.inputs[i]]
                if p:
                    row += [f"{v:.10g}" for v in self.h_values[i]]
                row.append(self.status[i])
                w.writerow(row)


def safety_margin(traj: Trajectory, cbf_rows=None) -> float:
    """min over time and rows of h_i(x(t)); rows are (a, b) with h = a.x + b."""
    if cbf_rows is None:
        return traj.min_h()
    vals = [np.asarray(a, dtype=float) @ traj.states.T + float(b)
            for a, b in cbf_rows]
    return float(np.min(vals))


def integrate(dyn: Dynamics, controller, x0, T: float, dt: float,
              cbf_rows=None) -> Trajectory:
    """Classical RK4 rollout with the input held over each step.

    ``controller`` is a callable x -> u; a ``status`` attribute set during
    the call (e.g. "clipped") is picked up per step.  InfeasibleQP or an
    out-of-domain explicit lookup ends the run early with completed=False.
    """
    if dt <= 0 or T < dt:
        raise ValueError("need dt > 0 and T >= dt")
    steps = int(round(T / dt))
    x = np.asarray(x0, dtype=float).copy()
    n = x.shape[0]
    m = dyn.m
    rows = None
    if cbf_rows is not None:
        rows = [(np.asarray(a, dtype=float), float(b)) for a, b in cbf_rows]
        h_mat = np.array([a for a, _ in rows])
        h_off = np.array([b for _, b in rows])

    states = np.empty((steps + 1, n))
    inputs = np.zeros((steps + 1, m))
    hvals = np.empty((steps + 1, len(rows))) if rows else None
    status: list[str] = []
    states[0] = x
    half, sixth = 0.5 * dt, dt / 6.0
    completed = True
    note = ""
    for k in range(steps):
        try:
            u = np.asarray(controller(x), dtype=float)
        except (InfeasibleQP, OutsideHull, NoRegion, NumericalFailure,
                ControllerFailure) as exc:
            completed = False
            note = f"controller failed at step {k}: {exc}"
            break
        status.append(getattr(controller, "status", "ok"))
        M, cvec = dyn.held_affine(u)
        k1 = M @ x + cvec
        k2 = M @ (x + half * k1) + cvec
        k3 = M @ (x + half * k2) + cvec
        k4 = M @ (x + dt * k3) + cvec
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        inputs[k] = u
        states[k + 1] = x
    done = len(status)  # steps actually integrated; rows filled to index done
    status.append("failed" if not completed
                  else (status[-1] if status else "ok"))
    inputs[done] = inputs[max(done - 1, 0)]
    end = done + 1
    if rows:
        # one gemv per state, the bits of h_mat @ x; states @ h_mat.T differs
        np.matmul(h_mat, states[:end, :, None], out=hvals[:end, :, None])
        hvals[:end] += h_off
    return Trajectory(times=np.arange(end) * dt, states=states[:end],
                      inputs=inputs[:end],
                      h_values=None if hvals is None else hvals[:end],
                      status=status, completed=completed, note=note)


# --------------------------------------------------------------------------
# controllers


class ConstantController:
    """u(x) = u, fixed."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.status = "ok"

    def __call__(self, x) -> np.ndarray:
        return self.u


class AffineClipController:
    """u(x) = clip(K x + k0, lo, hi); clipping is recorded per call."""

    def __init__(self, K, k0, lo, hi):
        self.K = np.asarray(K, dtype=float)
        self.k0 = np.asarray(k0, dtype=float)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.status = "ok"

    def __call__(self, x) -> np.ndarray:
        raw = self.K @ np.asarray(x, dtype=float) + self.k0
        u = np.clip(raw, self.lo, self.hi)
        self.status = "clipped" if np.any(u != raw) else "ok"
        return u


class QpFilterController:
    """Online safety filter: project u_des(x) onto the feasible input set."""

    def __init__(self, stack: StackedMap, input_set: InputSet, u_des,
                 tol: Tolerances = DEFAULT, feasible_hint=None):
        self.stack = stack
        self.input_set = input_set
        self.u_des = u_des
        hints = () if feasible_hint is None else (
            np.asarray(feasible_hint, dtype=float),)
        self.solver = WarmQp(input_set, tol, hints)
        self.status = "ok"
        self.last_solution = None
        # the dense affine arrays when every entry is affine
        self._src = stack.affine_arrays() or stack

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ud = self.u_des(x) if callable(self.u_des) else self.u_des
        sol = self.solver.solve(ud, self._src.psi_at(x), self._src.delta_at(x))
        self.last_solution = sol
        self.status = "active" if (sol.active_cbf or sol.active_input) \
            else "ok"
        return sol.u


class ExplicitPwaController:
    """Point-locate in a verified partition and apply the region's law.

    Point location uses a loosened containment tolerance so integration
    round-off at an invariant-set boundary cannot kick the state out of
    every region's closed half-spaces.
    """

    def __init__(self, controller: ExplicitController, tol: float = 1e-6):
        self.controller = controller
        self.tol = tol
        self.status = "ok"

    def __call__(self, x) -> np.ndarray:
        region = self.controller.region_at(x, tol=self.tol)
        self.status = "ok" if not region.a_set and not region.b_set \
            else "active"
        return region.law.u_at(x)
