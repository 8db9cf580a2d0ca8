"""Layer tracing from outside the library.

``Rebinder`` swaps a library callable for a wrapper at every place it is
bound: the defining module and every ``hullcert`` module that imported the
name directly (``certificates``, ``explicit`` and ``problem`` use
``solve_lp``; ``WarmQp.solve`` calls the module-global
``solve_qp_projection``), or the class attribute for methods.  ``Tracer``
uses it to record one span per call (name, start, end, parent span, op id)
in flat in-memory arrays, written out once when the run ends.  Self time is
a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np


class Rebinder:
    """Installs wrappers around library callables and restores them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module: str, attr: str, wrap):
        orig = getattr(sys.modules[module], attr)
        new = wrap(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "hullcert" or name.startswith("hullcert.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, new)

    def method(self, cls, attr: str, wrap):
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, wrap(orig))

    def restore(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def _functions():
    """(span name, module, attribute) for every traced module-level function."""
    return [
        ("optcore.solve_lp", "hullcert.optcore", "solve_lp"),
        ("optcore.margin_lp", "hullcert.optcore", "margin_lp"),
        ("optcore.solve_qp_projection", "hullcert.optcore", "solve_qp_projection"),
        ("curvature.sign_cone", "hullcert.curvature", "sign_cone"),
        ("curvature.uniform_column_sign", "hullcert.curvature", "uniform_column_sign"),
        ("certificates.certify", "hullcert.certificates", "certify"),
        ("certificates.endpoint_rule", "hullcert.certificates", "endpoint_rule"),
        ("certificates.cpc_interval", "hullcert.certificates", "cpc_interval"),
        ("certificates.cpc_common", "hullcert.certificates", "cpc_common"),
        ("certificates.cpc_blend_joint", "hullcert.certificates", "cpc_blend_joint"),
        ("certificates.pairwise_check", "hullcert.certificates", "pairwise_check"),
        ("oracle.sample_hull", "hullcert.oracle", "sample_hull"),
        ("oracle.grid_scan", "hullcert.oracle", "grid_scan"),
        ("explicit.partition_hull", "hullcert.explicit", "partition_hull"),
        ("explicit.kkt_affine_law", "hullcert.explicit", "kkt_affine_law"),
        ("explicit.verify_region", "hullcert.explicit", "verify_region"),
        ("explicit.hull_halfspaces", "hullcert.explicit", "hull_halfspaces"),
        ("sim.integrate", "hullcert.sim", "integrate"),
    ]


def _methods():
    from hullcert import explicit, optcore, problem
    return [
        ("optcore.WarmQp.solve", optcore.WarmQp, "solve"),
        ("problem.StackedMap.psi_at", problem.StackedMap, "psi_at"),
        ("problem.StackedMap.delta_at", problem.StackedMap, "delta_at"),
        ("problem.AffineStack.psi_at", problem.AffineStack, "psi_at"),
        ("problem.AffineStack.delta_at", problem.AffineStack, "delta_at"),
        ("problem.AffineStack.psi_batch", problem.AffineStack, "psi_batch"),
        ("problem.AffineStack.delta_batch", problem.AffineStack, "delta_batch"),
        ("problem.Hull.barycentric", problem.Hull, "barycentric"),
        ("explicit.ExplicitController.region_at", explicit.ExplicitController,
         "region_at"),
    ]


class Tracer:
    """Span recorder over the library's public layer functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op = -1
        self.lp_cells = 0
        self.lp_nonoptimal = 0
        self._rebind = Rebinder()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self._id(name)
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _count_lp(self, args, res):
        prob = args[0]
        self.lp_cells += int(prob.a_ineq.shape[0] * prob.c.shape[0])
        self.lp_nonoptimal += res.status != "optimal"

    def _trace_controller(self, args):
        """integrate(dyn, controller, ...): time each controller call."""
        inner = args[1]
        ctrl = _ControllerSpan(inner, self.wrap("sim.controller", inner))
        return (args[0], ctrl) + tuple(args[2:])

    def install(self):
        hooks = {"optcore.solve_lp": (None, self._count_lp),
                 "sim.integrate": (self._trace_controller, None)}
        for name, module, attr in _functions():
            before, after = hooks.get(name, (None, None))
            self._rebind.function(
                module, attr,
                lambda fn, name=name, before=before, after=after:
                self.wrap(name, fn, before, after))
        for name, cls, attr in _methods():
            self._rebind.method(cls, attr, lambda fn, name=name: self.wrap(name, fn))

    def remove(self):
        self._rebind.restore()

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.shape[0])
        return name_id, parent, dur, dur - child

    def layer_totals(self):
        """{span name: (calls, self seconds)} plus the cold-fallback count."""
        name_id, parent, dur, self_s = self.arrays()
        calls = np.bincount(name_id, minlength=len(self.names))
        selfs = np.bincount(name_id, weights=self_s, minlength=len(self.names))
        totals = {name: (int(calls[i]), float(selfs[i]))
                  for i, name in enumerate(self.names)}
        cold = 0
        if "optcore.solve_qp_projection" in self._ids and "optcore.WarmQp.solve" in self._ids:
            qp = name_id == self._ids["optcore.solve_qp_projection"]
            nested = parent[qp]
            cold = int(np.sum(name_id[nested[nested >= 0]]
                              == self._ids["optcore.WarmQp.solve"]))
        return totals, cold

    def save(self, path):
        name_id, parent, dur, self_s = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent,
                            op=np.frombuffer(self.op_id, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float))


class _ControllerSpan:
    """Controller proxy whose calls are spans; forwards ``status``."""

    def __init__(self, inner, traced_call):
        self._inner = inner
        self._call = traced_call

    def __call__(self, x):
        return self._call(x)

    @property
    def status(self):
        return getattr(self._inner, "status", "ok")
