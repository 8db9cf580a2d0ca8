"""Workload definitions: seeded inputs, the timed op, and its output check.

Each workload is a fixed list of ops of one type.  ``make(name, seed, tiny)``
builds the list from the seed alone; the library only ever sees the
generated problems.  The slot layout of every generated family (dimensions,
row counts, hull shapes, radius levels) is fixed, and the seed moves only
coefficients, geometry and start states, so op costs and verdict classes
stay comparable from seed to seed.

Why these four workloads, and what each one loads and bypasses:

certify-mix      one ``certify()`` cascade call per op (default order, joint
                 blend).  Loads ``optcore.solve_lp`` through the cascade
                 stages, ``curvature`` and stack evaluation.  The tail is set
                 by the joint-blend LPs of state-varying Psi problems with
                 n=4, m=2, p=8: 16 vertices give 120 vertex pairs and 960
                 coupling rows.  Bypasses every QP, the simulator and scipy
                 geometry.
oracle-scan      one ``grid_scan()`` per op.  The same LP layer used the
                 opposite way: thousands of tiny margin LPs, each paid with
                 per-call overhead, plus per-entry ``QuadFunc`` evaluation
                 of genuinely quadratic stacks.  Box, simplex-fan and
                 Dirichlet sampling all run.  Bypasses certificates, QPs and
                 the simulator.
explicit-synth   one ``partition_hull()`` per op.  Loads the seed-grid
                 ``WarmQp`` sweep, ``kkt_affine_law``, Chebyshev LPs, scipy
                 ``HalfspaceIntersection``/``ConvexHull`` and
                 ``verify_region``: the code an mpQP exploration would
                 replace.  Bypasses certificates, the oracle and the
                 simulator.
closed-loop      one ``integrate()`` rollout per op.  Per-step cost is the
                 controller plus RK4: the warm ``WarmQp`` path, explicit
                 point location, clip and constant laws.  Almost no LP work.

explicit-synth is not listed in BENCHMARK.json: most of its generated
problems raise UnresolvedRegion, because ``explicit._region_vertices``
rounds region vertices to 9 decimals while ``verify_region`` checks
residuals to 1e-9, so its op costs and verified-partition counts depend on
where each synthesis gives up and vary too much from seed to seed.  It
stays runnable, and reports those failures, until that is fixed.

The n=5 state-varying-Psi blend problem is left out of every workload: one
certify call on it takes about 42 s (dense tableau, about 5,300 coupling
rows), and every run of a workload must finish well inside three minutes.
It belongs in the benchmark once a change brings it under a second.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from time import perf_counter

import numpy as np

import hullcert as hc
from hullcert import cases

import checks

# ``--tiny`` keeps every TINY_STRIDE-th generated problem (self-check only)
TINY_STRIDE = 9


@dataclass
class Op:
    """One timed call: ``run()`` does the work, the rest feeds the checks."""

    label: str
    run: object                 # zero-argument callable, the timed op
    items: object               # output -> work items done (for items_per_s)
    summary: object             # output -> hashable digest, equal across rounds
    check: object               # output -> None, or the reason it is wrong


@dataclass
class Workload:
    item: str                   # what items_per_s counts
    ops: list
    extra: object = None        # outputs -> {name: (value, unit)} for the detail line
    filter_log: list | None = None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _box_hull(half: np.ndarray) -> hc.Hull:
    return hc.Hull(np.array(list(product(*[(-h, h) for h in half]))))


# --------------------------------------------------------------------------
# certify-mix


def _corridor_problem(rng, n: int, m: int, rho: float, varying: bool):
    """Box hull around the origin with 2m two-sided corridor barriers.

    Corridor i keeps |a_i'x| <= 1 with decay rate 1.  The hull half-widths
    are scaled so that rho = 1 is exactly the radius up to which the zero
    input satisfies every row at every vertex, which is where the common
    certificate stops existing for constant Psi.  Constant Psi comes from
    ``build_from_lti``; varying Psi adds an input gain that is affine in
    the state (x' = A x + (B0 + B1.x) u).
    """
    A = rng.normal(0.0, 0.5, (n, n))
    B0 = rng.normal(0.0, 1.0, (n, m))
    a = rng.normal(size=(2 * m, n))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    shape = rng.uniform(0.7, 1.3, n)
    drift = np.abs(a @ (A + np.eye(n))) @ shape
    half = shape * rho / drift.max()
    hull = _box_hull(half)
    input_set = hc.InputSet(box=(-np.ones(m), np.ones(m)))
    rows = [(s * ai, 1.0, 1.0) for ai in a for s in (1.0, -1.0)]
    if not varying:
        return hc.build_from_lti(A, B0, rows), hull, input_set
    # gain variation across the hull stays a fixed share of B0
    B1 = rng.normal(0.0, 1.0, (n, m, n)) * 0.3 / (n * half.max())
    psi, delta = [], []
    for sa, b, kappa in rows:
        psi.append([hc.QuadFunc(c=sa @ B1[:, k, :], d=float(sa @ B0[:, k]), n=n)
                    for k in range(m)])
        delta.append(hc.QuadFunc(c=A.T @ sa + kappa * sa, d=kappa * b, n=n))
    return hc.StackedMap(psi, delta), hull, input_set


def _certify_slots(tiny: bool):
    """(n, m, rho, varying) per seeded problem.

    Constant Psi: rho 0.6 gives cpc_common, rho 1.2 a blend certificate in
    most draws, rho 3 no certificate.  Varying Psi with two-sided rows
    forces equal blended inputs, so it is either common (rho 0.6) or
    inconclusive after a full joint-blend LP.  The 26 n=4, m=2 varying
    problems are the costly blend LPs.  With 106 ops the tail percentile is
    p90 (10.6 ops beyond it), which falls in the middle of those 26, and
    the median falls among the 80 cheap ops.
    """
    combos = [(n, m) for n in (2, 3, 4) for m in (1, 2)]
    slots = [(n, m, rho, False) for n, m in combos for rho in (0.6, 1.2, 3.0)] * 3
    slots += [(n, m, 0.6, True) for n, m in combos if (n, m) != (4, 2)] * 3
    slots += [(2, 2, 0.6, True)]
    slots += [(2, 2, 1.5, True), (3, 2, 1.5, True), (4, 1, 1.5, True)] * 2
    slots += [(4, 2, float(rho), True) for rho in np.linspace(1.2, 4.0, 26)]
    return slots[::TINY_STRIDE] if tiny else slots


def _certify_op(label, prob, vertex_inputs=None) -> Op:
    stack, hull, input_set = prob

    def run():
        return hc.certify(stack, hull, input_set, vertex_inputs=vertex_inputs)

    def check(out):
        return checks.certify_output(stack, hull, input_set, out, run)

    return Op(label, run, items=lambda out: 1,
              summary=lambda out: (out[1]["method"],
                                   tuple(a["valid"] for a in out[1]["attempts"])),
              check=check)


def _builtin(name):
    prob = hc.get_problem(name)
    return prob.stack, prob.hull, prob.input_set


def certify_mix(seed: int, tiny: bool) -> Workload:
    ops = [
        _certify_op("example1", _builtin("example1"),
                    cases.example1_reference_vertex_inputs()),
        _certify_op("case1", _builtin("case1"),
                    cases.case1_reference_vertex_inputs()),
        _certify_op("case2", _builtin("case2")),
        _certify_op("case3", _builtin("case3")),
    ]
    rng = _rng(seed, 1)
    for n, m, rho, varying in _certify_slots(tiny):
        prob = _corridor_problem(rng, n, m, rho, varying)
        kind = "varying" if varying else "const"
        ops.append(_certify_op(f"corridor-n{n}m{m}-{kind}-rho{rho:.2f}", prob))

    def extra(outs):
        certified = [out[1]["certified"] for out in outs]
        return {"certified_frac": (float(np.mean(certified)), "ratio")}

    return Workload("certify call", ops, extra=extra)


# --------------------------------------------------------------------------
# oracle-scan


def _quad(rng, n, scale, offset):
    Q = rng.normal(0.0, scale, (n, n))
    return hc.QuadFunc(Q=Q, c=rng.normal(0.0, 0.5, n), d=offset + rng.normal(0.0, 0.2))


def _quadratic_stack(rng, n: int, m: int, p: int) -> hc.StackedMap:
    """Every Psi and delta entry genuinely quadratic (indefinite Q)."""
    psi = [[_quad(rng, n, 0.15, rng.choice([-1.0, 1.0])) for _ in range(m)]
           for _ in range(p)]
    delta = [_quad(rng, n, 0.15, 0.5) for _ in range(p)]
    return hc.StackedMap(psi, delta)


def _sphere_points(rng, n: int, N: int) -> np.ndarray:
    """N points on a sphere (all extreme), so the hull keeps every vertex."""
    if n == 2:
        # evenly spread angles, jittered, keep the polygon far from degenerate
        ang = np.linspace(0, 2 * np.pi, N, endpoint=False) + rng.uniform(0, 0.3, N)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    X = rng.normal(size=(N, n))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _oracle_slots(tiny: bool):
    """(n, hull kind, N) per seeded problem.  The slot fixes the sample
    count: an 11^n box grid, C(10+n, n) points per fan simplex, or
    DIRICHLET_SAMPLES + N random weights.  The 42 ops put the tail
    percentile (p75, 10.5 ops beyond it) among the 264-286 sample scans."""
    slots = [(2, "box", 4)] * 6
    slots += [(2, "fan", 3)] * 10 + [(2, "fan", 6)] * 4
    slots += [(2, "dirichlet", 10)] * 4 + [(3, "dirichlet", 12)] * 4
    slots += [(3, "fan", 4)] * 8
    slots += [(4, "fan", 5)] * 2
    return slots[::TINY_STRIDE] if tiny else slots


DIRICHLET_SAMPLES = 150


def _scan_op(label, prob, mode=None) -> Op:
    stack, hull, input_set = prob

    def run():
        return hc.grid_scan(stack, hull, input_set, mode=mode,
                            n_random=DIRICHLET_SAMPLES)

    return Op(label, run, items=lambda rep: rep.n_samples,
              summary=lambda rep: (rep.n_samples, rep.mode, rep.violations,
                                   round(rep.min_margin, 9)),
              check=lambda rep: checks.scan_output(stack, input_set, rep))


def oracle_scan(seed: int, tiny: bool) -> Workload:
    names = ("example1", "case3") if tiny else ("example1", "case1", "case2", "case3")
    ops = [_scan_op(name, _builtin(name)) for name in names]
    rng = _rng(seed, 2)
    for i, (n, kind, N) in enumerate(_oracle_slots(tiny)):
        # LP size cycles with the slot index, not with the seed
        m, p = 1 + i % 2, 2 + i % 3
        stack = _quadratic_stack(rng, n, m, p)
        if kind == "box":
            hull = _box_hull(rng.uniform(0.5, 1.5, n))
        else:
            center = rng.normal(0.0, 0.3, n)
            hull = hc.Hull(center + rng.uniform(0.6, 1.4) * _sphere_points(rng, n, N))
        input_set = hc.InputSet(box=(-np.ones(m), np.ones(m)))
        mode = "dirichlet" if kind == "dirichlet" else None
        ops.append(_scan_op(f"quad-n{n}-{kind}-N{N}", (stack, hull, input_set),
                            mode))
    return Workload("hull sample", ops)


# --------------------------------------------------------------------------
# explicit-synth


def _explicit_slots(tiny: bool):
    """(n, m, gain) per seeded problem.  Gain 0 leaves the desired input
    feasible everywhere (one region); larger gains push it through more
    barrier rows and input bounds.  Twelve n=3 problems (15^3 seed QPs
    each) hold the tail percentile of the 40 ops."""
    gains2 = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0)
    gains3 = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    slots = [(2, m, g) for m in (1, 2) for g in gains2] + [(2, 1, 1.25)]
    slots += [(3, m, g) for m in (1, 2) for g in gains3]
    return slots[::TINY_STRIDE] if tiny else slots


def _explicit_problem(rng, n: int, m: int, gain: float):
    """LTI corridor problem (constant Psi, affine delta) inside the radius
    where the zero input is feasible everywhere, so every seed QP is
    feasible, with an affine desired-input law of the given gain."""
    stack, hull, input_set = _corridor_problem(rng, n, m, 0.8, varying=False)
    K = gain * rng.normal(0.0, 1.0, (m, n)) / np.abs(hull.vertices).max()
    u_des = hc.DesiredInput(K, rng.normal(0.0, 0.2 * min(gain, 1.0), m))
    return stack, hull, input_set, u_des


EXPLICIT_CHECK_STATES = 64


def _partition_op(label, prob, seed) -> Op:
    stack, hull, input_set, u_des = prob

    def run():
        return hc.partition_hull(stack, hull, input_set, u_des)

    def check(ctrl):
        return checks.explicit_output(stack, hull, input_set, u_des, ctrl,
                                      _rng(seed, 5), EXPLICIT_CHECK_STATES)

    return Op(label, run, items=lambda ctrl: 1,
              summary=lambda ctrl: tuple((r.a_set, r.b_set) for r in ctrl.regions),
              check=check)


def explicit_synth(seed: int, tiny: bool) -> Workload:
    prob = hc.get_problem("case3")
    ops = [_partition_op("case3", (prob.stack, prob.hull, prob.input_set,
                                   prob.u_des), seed)]
    rng = _rng(seed, 3)
    for n, m, gain in _explicit_slots(tiny):
        ops.append(_partition_op(f"lti-n{n}m{m}-gain{gain:g}",
                                 _explicit_problem(rng, n, m, gain), seed))

    def extra(outs):
        regions = [len(ctrl.regions) for ctrl in outs] or [0]
        return {"regions_min": (min(regions), "count"),
                "regions_max": (max(regions), "count")}

    return Workload("verified partition", ops, extra=extra)


# --------------------------------------------------------------------------
# closed-loop


class FilterShim:
    """Times each call of a filtering controller; forwards ``status``."""

    def __init__(self, inner, log: list):
        self.inner = inner
        self.log = log

    def __call__(self, x):
        t0 = perf_counter()
        u = self.inner(x)
        self.log.append(perf_counter() - t0)
        return u

    @property
    def status(self):
        return self.inner.status


def _rollout_op(label, dyn, make_controller, x0, T, rows, expect_exit,
                filter_log) -> Op:
    def run():
        ctrl = make_controller()
        if filter_log is not None:
            ctrl = FilterShim(ctrl, filter_log)
        return hc.integrate(dyn, ctrl, x0, T=T, dt=0.01, cbf_rows=rows)

    return Op(label, run, items=lambda traj: len(traj.status) - 1,
              summary=lambda traj: (traj.completed, len(traj.status),
                                    round(traj.min_h(), 9)),
              check=lambda traj: checks.rollout_output(traj, expect_exit))


def closed_loop(seed: int, tiny: bool) -> Workload:
    """case2 rollouts under the clip law, the constant witness and the QP
    filter; case3 rollouts under the explicit PWA filter and the QP
    filter.  Ten seeded starts per case, as ``run_case_study`` uses."""
    starts = 2 if tiny else 10
    T2, T3 = (10.0, 1.5) if tiny else (40.0, 15.0)
    rng = _rng(seed, 4)
    filter_log: list = []
    ops = []

    c2 = hc.get_problem("case2")
    dyn2, rows2 = cases.three_room_dynamics(), cases.cbf_rows("case2")
    witness = cases.case2_reference_witness()
    x0s = rng.uniform(cases.ROOM_LO, cases.ROOM_HI, size=(starts, 3))
    laws = {
        "nominal": (cases.nominal_room_controller, True, None),
        "constant": (lambda: hc.ConstantController(witness), False, None),
        "qp": (lambda: hc.QpFilterController(c2.stack, c2.input_set,
                                             cases.nominal_room_desired(),
                                             feasible_hint=witness),
               False, filter_log),
    }
    for label, (make, leaves, log) in laws.items():
        for i, x0 in enumerate(x0s):
            ops.append(_rollout_op(f"case2-{label}-{i}", dyn2, make, x0, T2,
                                   rows2, leaves, log))

    c3 = hc.get_problem("case3")
    dyn3, rows3 = cases.case3_dynamics(), cases.cbf_rows("case3")
    explicit = hc.partition_hull(c3.stack, c3.hull, c3.input_set, c3.u_des)
    blend = hc.cpc_blend_joint(c3.stack, c3.hull, c3.input_set)
    hint = blend.certificate.input_at(np.full(c3.hull.N, 1.0 / c3.hull.N))
    x0s = rng.dirichlet(np.ones(c3.hull.N), size=starts) @ c3.hull.vertices
    laws3 = {
        "explicit": lambda: hc.ExplicitPwaController(explicit),
        "qp": lambda: hc.QpFilterController(c3.stack, c3.input_set, c3.u_des,
                                            feasible_hint=hint),
    }
    for label, make in laws3.items():
        for i, x0 in enumerate(x0s):
            ops.append(_rollout_op(f"case3-{label}-{i}", dyn3, make, x0, T3,
                                   rows3, False, filter_log))

    return Workload("control step", ops, filter_log=filter_log)


GENERATORS = {"certify-mix": certify_mix, "oracle-scan": oracle_scan,
            "explicit-synth": explicit_synth, "closed-loop": closed_loop}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return GENERATORS[name](seed, tiny)
