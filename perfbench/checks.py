"""Output checks that run outside the timed region.

Each check returns None when the output is right, or a one-line reason.
LP values are re-solved with scipy's HiGHS (``linprog``), a solver that
shares no code with the library's simplex.  HiGHS presolve has been seen
to call an unbounded LP infeasible, so a disagreement is re-solved with
presolve off before it counts.
"""
from __future__ import annotations

import numpy as np

import hullcert as hc

from tracing import Rebinder

LP_TOL = 1e-6
EXPLICIT_TOL = 1e-7
SAFE_SLACK = -1e-6
SCAN_CHECKS = 16  # stride subsample size per scan, plus the argmin


def highs(c, A, b, lo, hi, presolve=True):
    """(status, value) of maximize c'z s.t. A z <= b, lo <= z <= hi."""
    from scipy.optimize import linprog

    bounds = [(None if not np.isfinite(l) else l, None if not np.isfinite(h) else h)
              for l, h in zip(lo, hi)]
    res = linprog(-np.asarray(c), A_ub=A if A.shape[0] else None,
                  b_ub=b if A.shape[0] else None, bounds=bounds, method="highs",
                  options={"presolve": presolve})
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "error")
    return status, (-float(res.fun) if status == "optimal" else None)


def _agree(status, value, ref_status, ref_value) -> bool:
    if status != ref_status:
        return False
    if status != "optimal":
        return True
    return abs(value - ref_value) <= LP_TOL * max(1.0, abs(ref_value))


def highs_disagrees(status, value, c, A, b, lo, hi) -> str | None:
    """None when HiGHS, with presolve or without, finds the same status
    and optimal value; else what HiGHS found."""
    args = (c, A, b, lo, hi)
    if _agree(status, value, *highs(*args)):
        return None
    ref = highs(*args, presolve=False)
    if _agree(status, value, *ref):
        return None
    return (f"LP {A.shape[0]}x{c.shape[0]}: {status} {value} "
            f"vs HiGHS {ref[0]} {ref[1]}")


def certify_output(stack, hull, input_set, out, run) -> str | None:
    """Replay the certificate densely; re-run the cascade with every LP
    captured and compare each LP with HiGHS."""
    cert, diag = out
    if (cert is None) == diag["certified"]:
        return "certificate and diagnostics disagree"
    if cert is not None:
        replay = hc.check_certificate(stack, hull, input_set, cert)
        if not replay["ok"]:
            return f"certificate replay failed (min residual {replay['min_residual']:.3g})"
    captured = []

    def capture(fn):
        def wrapper(prob, *args, **kwargs):
            res = fn(prob, *args, **kwargs)
            captured.append((prob, res))
            return res
        return wrapper

    rebind = Rebinder()
    rebind.function("hullcert.optcore", "solve_lp", capture)
    try:
        again = run()
    finally:
        rebind.restore()
    if again[1]["method"] != diag["method"]:
        return "verdict changed on re-run"
    for prob, res in captured:
        why = highs_disagrees(res.status, res.value, prob.c, prob.a_ineq,
                              prob.b_ineq, prob.lo, prob.hi)
        if why:
            return why
    return None


def _eval_quad(q, x):
    return float(x @ q.Q @ x + q.c @ x + q.d)


def scan_output(stack, input_set, rep) -> str | None:
    """Recompute a stride subsample of sample margins, argmin included,
    from the raw quadratic coefficients and HiGHS."""
    K = rep.n_samples
    if rep.points.shape[0] != K or rep.margins.shape[0] != K:
        return "sample count mismatch"
    k_min = int(np.argmin(rep.margins))
    if rep.min_margin != rep.margins[k_min]:
        return "reported min margin is not the sample minimum"
    idx = sorted(set(np.linspace(0, K - 1, min(SCAN_CHECKS, K)).astype(int)) | {k_min})
    lo, hi = input_set.bounds()
    m = stack.m
    for i in idx:
        x = rep.points[i]
        psi = np.array([[_eval_quad(q, x) for q in row] for row in stack.psi])
        delta = np.array([_eval_quad(q, x) for q in stack.delta])
        # maximize t s.t. -psi u + t <= delta
        A = np.hstack([-psi, np.ones((stack.p, 1))])
        c = np.zeros(m + 1)
        c[m] = 1.0
        why = highs_disagrees("optimal", float(rep.margins[i]), c, A, delta,
                              np.append(lo, -np.inf), np.append(hi, np.inf))
        if why:
            return f"sample {i}: {why}"
    return None


def explicit_output(stack, hull, input_set, u_des, ctrl, rng, count) -> str | None:
    """The explicit law equals the online QP at seeded in-hull states."""
    X = rng.dirichlet(np.ones(hull.N), size=count) @ hull.vertices
    for x in X:
        u_exp = ctrl(x)
        sol = hc.solve_qp_projection(u_des(x), stack.psi_at(x), stack.delta_at(x),
                                     input_set)
        err = float(np.max(np.abs(u_exp - sol.u)))
        if err > EXPLICIT_TOL:
            return f"explicit law off the QP by {err:.3g} at {x.tolist()}"
    return None


def rollout_output(traj, expect_exit: bool) -> str | None:
    """Filtered rollouts finish in the safe set; the nominal law leaves it."""
    if not traj.completed:
        return f"rollout incomplete: {traj.note}"
    min_h = traj.min_h()
    if expect_exit and min_h >= 0.0:
        return f"unfiltered rollout stayed in the safe set (min h {min_h:.3g})"
    if not expect_exit and min_h < SAFE_SLACK:
        return f"rollout left the safe set (min h {min_h:.3g})"
    return None
