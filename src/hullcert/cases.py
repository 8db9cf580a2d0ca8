"""Worked problem setups and the end-to-end study runner.

Four fixtures are bundled:

  example1   one-dimensional two-row problem where every vertex is feasible
             but compatibility fails inside the hull (the falsification case)
  case1      three-room heating, keep-warm rows only; endpoint and interval
             certificates apply
  case2      three-room heating with two-sided temperature bands; a common
             constant input exists
  case3      damped double integrator with a corridor constraint; only
             vertex-blended inputs work, and the explicit filter has three
             regions

run_case_study wires a fixture through certificates, oracle scans, explicit
synthesis, and closed-loop simulation, optionally writing all artifacts.
"""
from __future__ import annotations

import os
from itertools import product

import numpy as np

from .certificates import (cpc_blend_joint, cpc_common, cpc_interval,
                           certify, endpoint_rule, pairwise_check)
from .curvature import validate_problem
from .explicit import partition_hull
from .oracle import check_certificate, grid_scan, sample_hull
from .problem import (DesiredInput, Hull, InputSet, Problem, QuadFunc,
                      StackedMap, _row_margins, build_from_lti, save_problem)
from .reporting import write_report
from .sim import (AffineClipController, ConstantController, Dynamics,
                  ExplicitPwaController, QpFilterController, integrate)
from .tolerances import DEFAULT, Tolerances

# three-room thermal parameters: conduction a, leakage b, heater gain c,
# environment and heater temperatures
A_COND = 0.05
B_COND = 0.06
C_HEAT = 0.08
T_ENV = -1.0
T_HEAT = 50.0
ROOM_LO = 25.0
ROOM_HI = 30.0

CASE_NAMES = ("example1", "case1", "case2", "case3")


def _unit(i, n=3):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _room_drift_row(i: int):
    """Gradient and offset of f_i(x) for the three-room model."""
    c = np.full(3, A_COND)
    c[i] = -2.0 * A_COND - B_COND
    return c, B_COND * T_ENV


def _three_room_stack(two_sided: bool) -> StackedMap:
    """Stacked barrier rows for the heating model, alpha(s) = s.

    Keep-warm row i:  (c(t_h - x_i)) u_i + f_i(x) + (x_i - 25) >= 0.
    Keep-cool row i (two_sided): -(c(t_h - x_i)) u_i - f_i(x) + (30 - x_i) >= 0.
    Two-sided rows interleave as (warm_1, cool_1, warm_2, cool_2, ...).
    """
    psi_rows = []
    delta_rows = []
    for i in range(3):
        cf, df = _room_drift_row(i)
        gain = QuadFunc(c=-C_HEAT * _unit(i), d=C_HEAT * T_HEAT, n=3)
        zero = QuadFunc(n=3)
        warm_psi = [gain if k == i else zero for k in range(3)]
        warm_delta = QuadFunc(c=cf + _unit(i), d=df - ROOM_LO, n=3)
        psi_rows.append(warm_psi)
        delta_rows.append(warm_delta)
        if two_sided:
            anti = QuadFunc(c=C_HEAT * _unit(i), d=-C_HEAT * T_HEAT, n=3)
            cool_psi = [anti if k == i else zero for k in range(3)]
            cool_delta = QuadFunc(c=-(cf + _unit(i)), d=-df + ROOM_HI, n=3)
            psi_rows.append(cool_psi)
            delta_rows.append(cool_delta)
    return StackedMap(psi_rows, delta_rows)


def _room_hull() -> Hull:
    corners = np.array(list(product((ROOM_LO, ROOM_HI), repeat=3)))
    return Hull(corners)


def three_room_dynamics() -> Dynamics:
    return Dynamics.three_room(A_COND, B_COND, C_HEAT, T_ENV, T_HEAT)


def _nominal_room_gain():
    """Valve law u_i = a(x_{i+1} + x_{i-1}) - 3a x_i + a*25: neighbor
    balancing with an aggressive setpoint pull whose closed-loop equilibrium
    sits well below 25, so it drifts out of the safe band on its own."""
    K = A_COND * (np.full((3, 3), 1.0) - 4.0 * np.eye(3))
    k0 = np.full(3, A_COND * ROOM_LO)
    return K, k0


def nominal_room_controller() -> AffineClipController:
    K, k0 = _nominal_room_gain()
    return AffineClipController(K, k0, np.zeros(3), np.ones(3))


def nominal_room_desired() -> DesiredInput:
    return DesiredInput(*_nominal_room_gain())


# --------------------------------------------------------------------------
# fixtures


def example1_problem() -> Problem:
    psi = [[QuadFunc(Q=[[-1.0]], c=[8.0], d=-16.0)],
           [QuadFunc(d=1.0, n=1)]]
    delta = [QuadFunc(c=[-1.0], d=10.0), QuadFunc(c=[-1.0], d=0.0)]
    stack = StackedMap(psi, delta)
    hull = Hull([[0.0], [3.0]])
    input_set = InputSet(box=(np.array([0.0]), np.array([10.0])))
    return Problem(stack=stack, hull=hull, input_set=input_set)


def example1_reference_vertex_inputs() -> np.ndarray:
    """Vertex-feasible inputs quoted for this fixture: 0.5 at x=0, 3 at x=3."""
    return np.array([[0.5], [3.0]])


def case1_problem() -> Problem:
    stack = _three_room_stack(two_sided=False)
    hull = _room_hull()
    input_set = InputSet(box=(np.zeros(3), np.ones(3)))
    return Problem(stack=stack, hull=hull, input_set=input_set)


def case1_reference_vertex_inputs() -> np.ndarray:
    """Reference vertex inputs: 0.78 on every valve at the all-25 corner,
    zero elsewhere.  (Zero is not itself feasible at mixed corners; the
    interval construction only reads these as per-coordinate bounds and the
    resulting box is re-verified independently.)"""
    hull = _room_hull()
    U = np.zeros((hull.N, 3))
    all_lo = np.flatnonzero(
        np.all(np.isclose(hull.vertices, ROOM_LO, rtol=0), axis=1))[0]
    U[all_lo] = 0.78
    return U


def case2_problem() -> Problem:
    stack = _three_room_stack(two_sided=True)
    hull = _room_hull()
    input_set = InputSet(box=(np.zeros(3), np.ones(3)))
    return Problem(stack=stack, hull=hull, input_set=input_set,
                   u_des=nominal_room_desired())


def case2_reference_witness() -> np.ndarray:
    return np.full(3, 0.78)


def case3_problem() -> Problem:
    A = np.array([[0.0, 1.0], [0.1, -0.1]])
    B = np.array([[0.0], [1.0]])
    rows = [(np.array([1.0, 1.0]), 1.0, 1.0),
            (np.array([-1.0, -1.0]), 1.0, 1.0)]
    stack = build_from_lti(A, B, rows)
    hull = Hull([[-1.0, 0.0], [-1.0, 1.0], [0.0, -1.0],
                 [0.0, 1.0], [1.0, 0.0], [1.0, -1.0]])
    input_set = InputSet(box=(np.array([-1.0]), np.array([1.0])))
    u_des = DesiredInput(np.zeros((1, 2)), np.zeros(1))
    return Problem(stack=stack, hull=hull, input_set=input_set,
                   u_des=u_des, lti={"A": A, "B": B, "cbfs": rows})


def case3_reference_vertex_inputs() -> np.ndarray:
    """Joint-LP vertex inputs quoted for this fixture, in hull vertex order
    (-1,0), (-1,1), (0,-1), (0,1), (1,0), (1,-1)."""
    return np.array([[0.1], [0.0], [0.9], [-0.9], [-0.1], [0.0]])


def case3_dynamics() -> Dynamics:
    return Dynamics.lti([[0.0, 1.0], [0.1, -0.1]], [[0.0], [1.0]])


def cbf_rows(name: str):
    """(a, b) pairs with h_i(x) = a.x + b, for logging along trajectories."""
    if name in ("case1", "case2"):
        rows = []
        for i in range(3):
            rows.append((_unit(i), -ROOM_LO))
            if name == "case2":
                rows.append((-_unit(i), ROOM_HI))
        return rows
    if name == "case3":
        return [(np.array([1.0, 1.0]), 1.0), (np.array([-1.0, -1.0]), 1.0)]
    raise ValueError(f"unknown case {name!r}")


def get_problem(name: str) -> Problem:
    builders = {"example1": example1_problem, "case1": case1_problem,
                "case2": case2_problem, "case3": case3_problem}
    if name not in builders:
        raise ValueError(
            f"unknown case {name!r}; expected one of {CASE_NAMES}")
    return builders[name]()


# Vertex inputs that ``certify`` feeds to its interval stage, by fixture name.
REFERENCE_VERTEX_INPUTS = {"example1": example1_reference_vertex_inputs,
                           "case1": case1_reference_vertex_inputs}


# --------------------------------------------------------------------------
# full studies


def _maybe_write(out_dir, fname, writer):
    if out_dir is None:
        return None
    path = os.path.join(out_dir, fname)
    writer(path)
    return fname


def _trajectory_summary(trajs):
    return [{"min_h": float(t.min_h()), "completed": t.completed,
             "final_state": t.states[-1].tolist(), "note": t.note}
            for t in trajs]


def run_case_study(name: str, out_dir=None, seed: int = 7,
                   tol: Tolerances = DEFAULT) -> dict:
    """Full pipeline for one fixture; returns the in-memory bundle.

    With ``out_dir`` set, also writes problem/certificate/scan artifacts,
    trajectory CSVs, and a manifest with the recorded seed.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    prob = get_problem(name)
    stack, hull, input_set = prob.stack, prob.hull, prob.input_set
    report = validate_problem(stack, hull, input_set, tol)
    bundle: dict = {"name": name, "seed": seed,
                    "assumptions": report.to_dict(),
                    "tolerances": tol.to_dict()}
    files: list[str] = []
    scan = None
    winning = None
    f = _maybe_write(out_dir, "problem.json",
                     lambda p: save_problem(
                         p, stack, hull, input_set, u_des=prob.u_des,
                         lti=prob.lti))
    if f:
        files.append(f)

    if name == "example1":
        ref = example1_reference_vertex_inputs()
        cert, diag = certify(stack, hull, input_set, vertex_inputs=ref,
                             tol=tol)
        diag["pairwise_reference_inputs"] = float(
            pairwise_check(stack, hull, ref))
        scan = grid_scan(stack, hull, input_set, per_edge=61, tol=tol)
        bundle["certify"] = diag
        bundle["scan"] = scan.to_dict()
        bundle["falsified"] = bool(cert is None and scan.violations > 0)
    elif name == "case1":
        ep = endpoint_rule(stack, hull, input_set, tol)
        iv = cpc_interval(stack, hull, input_set,
                          case1_reference_vertex_inputs(), tol)
        scan = grid_scan(stack, hull, input_set, per_edge=11, tol=tol)
        bundle["endpoint"] = ep.to_dict()
        bundle["interval"] = iv.to_dict()
        bundle["scan"] = scan.to_dict()
        winning = iv.certificate if iv.valid else (
            ep.certificate if ep.valid else None)
        if iv.valid:
            bundle["interval_witness_check"] = check_certificate(
                stack, hull, input_set, iv.certificate,
                points=scan.points, lams=scan.lams, tol=tol)
            lo = float(iv.certificate.lo[0])
            bundle["notes"] = [
                "interval lower bound %.2f follows from the largest supplied "
                "vertex input; a circulated reference lists 0.72" % lo]
    elif name == "case2":
        out = cpc_common(stack, hull, input_set, tol)
        scan = grid_scan(stack, hull, input_set, per_edge=11, tol=tol)
        bundle["common"] = out.to_dict()
        bundle["scan"] = scan.to_dict()
        winning = out.certificate if out.valid else None
        witness = case2_reference_witness()
        wm = _row_margins(*stack.eval(hull.vertices), witness).min(axis=1)
        bundle["reference_witness"] = {"u": witness.tolist(),
                                       "vertex_margins": wm.tolist(),
                                       "min_margin": float(wm.min())}
        if out.valid:
            bundle["witness_check"] = check_certificate(
                stack, hull, input_set, out.certificate,
                points=scan.points, lams=scan.lams, tol=tol)
        bundle.update(_case2_simulations(stack, input_set, out_dir, seed,
                                         files, tol))
    elif name == "case3":
        bj = cpc_blend_joint(stack, hull, input_set, tol)
        bundle["blend"] = bj.to_dict()
        winning = bj.certificate if bj.valid else None
        ref = case3_reference_vertex_inputs()
        margins = _row_margins(*stack.eval(hull.vertices), ref).min(axis=1)
        bundle["reference_vertex_inputs"] = {
            "inputs": ref.tolist(), "margins": margins.tolist(),
            "pairwise_max": float(pairwise_check(stack, hull, ref))}
        pts, lams, _ = sample_hull(hull, n_random=20000, seed=seed,
                                   mode="dirichlet")
        if bj.valid:
            bundle["witness_check"] = check_certificate(
                stack, hull, input_set, bj.certificate,
                points=pts, lams=lams, tol=tol)
        controller = partition_hull(stack, hull, input_set, prob.u_des,
                                    tol=tol)
        bundle["explicit"] = {
            "n_regions": len(controller.regions),
            "regions": [{"a_set": list(r.a_set), "b_set": list(r.b_set),
                         "F": r.law.F.tolist(), "f": r.law.f.tolist()}
                        for r in controller.regions]}
        f = _maybe_write(out_dir, "explicit.json",
                         lambda p: controller.save(p))
        if f:
            files.append(f)
        bundle.update(_case3_simulations(stack, hull, input_set, prob.u_des,
                                         controller, bj, out_dir, seed,
                                         files, tol))

    if scan is not None:
        f = _maybe_write(out_dir, "scan.csv", scan.write_csv)
        if f:
            files.append(f)
    if winning is not None:
        f = _maybe_write(out_dir, "certificate.json",
                         lambda p: write_report(p, winning.to_dict()))
        if f:
            files.append(f)
    if out_dir is not None:
        f = "report.json"
        write_report(os.path.join(out_dir, f), bundle)
        files.append(f)
        manifest = {"case": name, "seed": seed, "files": sorted(files)}
        write_report(os.path.join(out_dir, "manifest.json"), manifest)
    return bundle


def _case2_simulations(stack, input_set, out_dir, seed, files,
                       tol) -> dict:
    dyn = three_room_dynamics()
    rows = cbf_rows("case2")
    rng = np.random.default_rng(seed)
    x0s = rng.uniform(ROOM_LO, ROOM_HI, size=(10, 3))
    witness = case2_reference_witness()
    controllers = {
        "nominal": lambda: nominal_room_controller(),
        "constant": lambda: ConstantController(witness),
        "qp": lambda: QpFilterController(stack, input_set,
                                         nominal_room_desired(), tol=tol,
                                         feasible_hint=witness),
    }
    out = {"sim": {"T": 40.0, "dt": 0.01, "x0": x0s.tolist()}}
    results = {}
    for label, make in controllers.items():
        trajs = []
        for i, x0 in enumerate(x0s):
            traj = integrate(dyn, make(), x0, T=40.0, dt=0.01, cbf_rows=rows)
            trajs.append(traj)
            f = _maybe_write(out_dir, f"traj_case2_{label}_{i}.csv",
                             traj.write_csv)
            if f:
                files.append(f)
        results[label] = _trajectory_summary(trajs)
    out["trajectories"] = results
    return out


def _case3_simulations(stack, hull, input_set, u_des, controller, blend_out,
                       out_dir, seed, files, tol) -> dict:
    dyn = case3_dynamics()
    rows = cbf_rows("case3")
    rng = np.random.default_rng(seed)
    lam0 = rng.dirichlet(np.ones(hull.N), size=10)
    x0s = lam0 @ hull.vertices
    hint = None
    if blend_out.valid:
        hint = blend_out.certificate.input_at(np.full(hull.N, 1.0 / hull.N))
    results = {}
    deviations = []
    explicit_trajs = []
    for i, x0 in enumerate(x0s):
        traj = integrate(dyn, ExplicitPwaController(controller), x0,
                         T=15.0, dt=0.01, cbf_rows=rows)
        explicit_trajs.append(traj)
        f = _maybe_write(out_dir, f"traj_case3_explicit_{i}.csv",
                         traj.write_csv)
        if f:
            files.append(f)
        qp = QpFilterController(stack, input_set, u_des, tol=tol,
                                feasible_hint=hint)
        dev = 0.0
        for x, u_exp in zip(traj.states[:-1], traj.inputs[:-1]):
            dev = max(dev, float(np.max(np.abs(qp(x) - u_exp))))
        deviations.append(dev)
    qp_trajs = []
    for i, x0 in enumerate(x0s):
        qp = QpFilterController(stack, input_set, u_des, tol=tol,
                                feasible_hint=hint)
        traj = integrate(dyn, qp, x0, T=15.0, dt=0.01, cbf_rows=rows)
        qp_trajs.append(traj)
        f = _maybe_write(out_dir, f"traj_case3_qp_{i}.csv", traj.write_csv)
        if f:
            files.append(f)
    return {"sim": {"T": 15.0, "dt": 0.01, "x0": x0s.tolist()},
            "trajectories": {"explicit": _trajectory_summary(explicit_trajs),
                             "qp": _trajectory_summary(qp_trajs)},
            "explicit_vs_qp_max_dev": [float(d) for d in deviations]}
