"""The bits of seeded closed-loop rollouts, pinned by digest, and the warm
QP's packaging along a rollout.

``tests/data/rollout_digests.json`` holds, per rollout, the sha256 of the
raw bytes of every ``Trajectory`` field.  The rollouts cover case2 under the
nominal clip law, the constant witness and the QP filter, case3 under the
explicit law and the QP filter, one run without CBF rows, and three runs
that end early: an explicit law started outside its hull, one driven out of
it mid-way by sign-flipped inputs, and a QP that is infeasible at the start.

Regenerate the file (only when a change is meant to move rollout bits) with

    PYTHONPATH=src python tests/test_rollout_bits.py --write
"""
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import hullcert as hc
from hullcert import cases, optcore
from hullcert.sim import (ConstantController, Dynamics, ExplicitPwaController,
                          QpFilterController, integrate)

DIGESTS = Path(__file__).parent / "data" / "rollout_digests.json"


def rollouts():
    """[(label, run)] where run() returns one seeded Trajectory."""
    rng = np.random.default_rng(2025)
    c2, c3 = cases.case2_problem(), cases.case3_problem()
    dyn2, rows2 = cases.three_room_dynamics(), cases.cbf_rows("case2")
    dyn3, rows3 = cases.case3_dynamics(), cases.cbf_rows("case3")
    witness = cases.case2_reference_witness()
    explicit = hc.partition_hull(c3.stack, c3.hull, c3.input_set, c3.u_des)
    flipped = Dynamics.lti([[0.0, 1.0], [0.1, -0.1]], [[0.0], [-1.0]])

    laws2 = {
        "nominal": cases.nominal_room_controller,
        "constant": lambda: ConstantController(witness),
        "qp": lambda: QpFilterController(c2.stack, c2.input_set,
                                         cases.nominal_room_desired(),
                                         feasible_hint=witness),
    }
    laws3 = {
        "explicit": lambda: ExplicitPwaController(explicit),
        "qp": lambda: QpFilterController(c3.stack, c3.input_set, c3.u_des),
    }
    out = []
    for i, x0 in enumerate(rng.uniform(cases.ROOM_LO, cases.ROOM_HI, (2, 3))):
        for label, make in laws2.items():
            out.append((f"case2-{label}-{i}", lambda make=make, x0=x0: integrate(
                dyn2, make(), x0, T=10.0, dt=0.01, cbf_rows=rows2)))
    for i, x0 in enumerate(rng.dirichlet(np.ones(c3.hull.N), 2) @ c3.hull.vertices):
        for label, make in laws3.items():
            out.append((f"case3-{label}-{i}", lambda make=make, x0=x0: integrate(
                dyn3, make(), x0, T=5.0, dt=0.01, cbf_rows=rows3)))
    out += [
        ("case2-constant-no-rows", lambda: integrate(
            dyn2, ConstantController(witness), np.full(3, 26.0), T=1.0, dt=0.01)),
        ("case3-explicit-outside", lambda: integrate(
            dyn3, ExplicitPwaController(explicit), np.array([0.5, 0.6]),
            T=1.0, dt=0.01, cbf_rows=rows3)),
        ("case3-explicit-flipped", lambda: integrate(
            flipped, ExplicitPwaController(explicit), np.array([-0.45, -0.09]),
            T=5.0, dt=0.01, cbf_rows=rows3)),
        ("case3-qp-infeasible", lambda: integrate(
            dyn3, laws3["qp"](), np.array([0.9, 0.9]), T=1.0, dt=0.01,
            cbf_rows=rows3)),
    ]
    return out


def trajectory_digest(traj) -> dict:
    """{field: sha256} over the raw bytes of each Trajectory field."""
    raw = {name: np.ascontiguousarray(getattr(traj, name)).tobytes()
           for name in ("times", "states", "inputs")}
    raw["h_values"] = (b"none" if traj.h_values is None
                       else np.ascontiguousarray(traj.h_values).tobytes())
    raw["status"] = "\n".join(traj.status).encode()
    raw["completed"] = str(traj.completed).encode()
    raw["note"] = traj.note.encode()
    return {name: hashlib.sha256(b).hexdigest() for name, b in raw.items()}


def all_digests(monkeypatch) -> tuple[dict, dict]:
    """Digests of every rollout, and what the rollouts reached: the warm
    working-set sizes the QP filters met, the labels of the QP solves that
    fell back to the cold method, and the steps done by each early stop."""
    sizes: Counter = Counter()
    cold: list = []
    stopped = {}
    label = ""  # partition_hull solves QPs while the rollouts are built
    warm_solve, cold_solve = optcore.WarmQp.solve, optcore.solve_qp_projection

    def warm_spy(self, *args):
        sizes[len(self._last_rows)] += 1
        return warm_solve(self, *args)

    def cold_spy(*args, **kwargs):
        cold.append(label)
        return cold_solve(*args, **kwargs)

    monkeypatch.setattr(optcore.WarmQp, "solve", warm_spy)
    monkeypatch.setattr(optcore, "solve_qp_projection", cold_spy)
    out = {}
    for label, run in rollouts():
        traj = run()
        out[label] = trajectory_digest(traj)
        if not traj.completed:
            stopped[label] = len(traj.status) - 1
    return out, {"sizes": sizes, "cold": cold, "stopped": stopped}


def test_rollout_bits_match_the_pinned_digests(monkeypatch):
    want = json.loads(DIGESTS.read_text())
    got, reached = all_digests(monkeypatch)
    assert got.keys() == want.keys()
    for label, entry in want.items():
        assert got[label] == entry, label
    # the pinned set reaches the warm path at every working-set size the
    # closed-loop workload meets often, the cold fallback, a stop at the
    # first step and one mid-way, which truncates the CBF log
    assert {0, 1, 3} <= set(reached["sizes"]), reached["sizes"]
    assert any(lab.startswith("case2-qp-") for lab in reached["cold"]), reached
    stops = sorted(reached["stopped"].values())
    assert len(stops) == 3 and stops[0] == 0 and 0 < stops[-1] < 500, stops


def test_warm_qp_packages_like_the_cold_solve():
    prob = cases.case2_problem()
    tol = hc.DEFAULT
    witness = cases.case2_reference_witness()
    ctrl = QpFilterController(prob.stack, prob.input_set,
                              cases.nominal_room_desired(), feasible_hint=witness)
    seen = Counter()

    def checked(x):
        u = ctrl(x)
        w = ctrl.last_solution
        c = hc.solve_qp_projection(ctrl.u_des(x), prob.stack.psi_at(x),
                                   prob.stack.delta_at(x), prob.input_set,
                                   tol=tol, feasible_hints=(witness,))
        assert w.active_cbf == c.active_cbf
        assert w.active_input == c.active_input
        assert w.weakly_active_cbf == c.weakly_active_cbf
        assert w.weakly_active_input == c.weakly_active_input
        assert np.allclose(w.lam, c.lam, rtol=0.0, atol=1e-9)
        assert np.allclose(w.nu, c.nu, rtol=0.0, atol=1e-9)
        # the next warm solve starts from the rows with a multiplier
        # strictly above tol.active, never from a weakly active one
        p = len(w.lam)
        want = [i for i in w.active_cbf if w.lam[i] > tol.active]
        want += [p + i for i in w.active_input if w.nu[i] > tol.active]
        assert ctrl.solver._last_rows == tuple(want)
        seen[len(want)] += 1
        return u

    traj = integrate(cases.three_room_dynamics(), checked, np.full(3, 25.5),
                     T=3.0, dt=0.01)
    assert traj.completed
    assert seen[3] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_rollout_bits.py --write")
    import pytest

    with pytest.MonkeyPatch.context() as mp:
        digests, _ = all_digests(mp)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
