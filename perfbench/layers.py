"""Traced run: per-layer metrics from spans around the library's layers.

Every metric is given per traced pass over the workload's op list, so
counts repeat exactly from run to run.  Each metric should move one end-to-end
metric on the workloads named here (a layer a workload never calls reads 0):

  import.hullcert_s, import.scipy_spatial_s        setup_s, all workloads
  optcore.solve_lp.{calls,self_s,lp_cells,nonoptimal}
                                                   op_tail_ms, items_per_s on
                                                   certify-mix (a little on
                                                   explicit-synth)
  optcore.margin_lp.{calls,self_s}                 items_per_s on oracle-scan
  problem.StackedMap.eval.{calls,self_s}           oracle-scan, certify-mix
  problem.Hull.barycentric.calls                   op_p50_ms where called
  curvature.self_s                                 op_p50_ms on certify-mix
  certificates.<stage>.self_s                      op_tail_ms (blend) and
                                                   op_p50_ms (common) on
                                                   certify-mix
  certificates.stages_per_verdict                  items_per_s on certify-mix
  oracle.{sample_hull,grid_scan}.self_s            items_per_s on oracle-scan
  optcore.WarmQp.solve.*, optcore.WarmQp.cold_ratio,
  optcore.solve_qp_projection.*                    closed-loop (steps, filter
                                                   latency), explicit-synth
  explicit.*                                       items_per_s on explicit-synth;
                                                   region_at on closed-loop
  sim.*                                            items_per_s on closed-loop

Nothing contends for resources, so a faster layer saves at most its self
time along the op's blocking path.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from tracing import Tracer

OUT_DIR = ".perfbench-out"

# metrics that sum several spans; every other metric is one span's name
SPAN_GROUPS = {
    "problem.StackedMap.eval": [
        "problem.StackedMap.psi_at", "problem.StackedMap.delta_at",
        "problem.AffineStack.psi_at", "problem.AffineStack.delta_at",
        "problem.AffineStack.psi_batch", "problem.AffineStack.delta_batch"],
    "curvature": ["curvature.sign_cone", "curvature.uniform_column_sign"],
}
CALLS = ("optcore.solve_lp", "optcore.margin_lp", "problem.StackedMap.eval",
         "problem.Hull.barycentric", "optcore.WarmQp.solve",
         "optcore.solve_qp_projection", "explicit.kkt_affine_law",
         "explicit.ExplicitController.region_at")
SELF = ("optcore.solve_lp", "optcore.margin_lp", "problem.StackedMap.eval",
        "curvature", "certificates.endpoint_rule", "certificates.cpc_interval",
        "certificates.cpc_common", "certificates.cpc_blend_joint",
        "certificates.pairwise_check", "oracle.sample_hull", "oracle.grid_scan",
        "optcore.WarmQp.solve", "optcore.solve_qp_projection",
        "explicit.partition_hull", "explicit.verify_region",
        "explicit.hull_halfspaces", "explicit.ExplicitController.region_at",
        "sim.integrate", "sim.controller")
STAGES = ("certificates.endpoint_rule", "certificates.cpc_interval",
          "certificates.cpc_common", "certificates.cpc_blend_joint")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    totals, cold = tracer.layer_totals()

    def calls(names):
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    def self_s(names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    out = {}
    for metric in CALLS:
        spans = SPAN_GROUPS.get(metric, [metric])
        out[f"{metric}.calls"] = (calls(spans) / passes, "count")
    for metric in SELF:
        spans = SPAN_GROUPS.get(metric, [metric])
        out[f"{metric}.self_s"] = (self_s(spans) / passes, "s")
    out["optcore.solve_lp.lp_cells"] = (tracer.lp_cells / passes, "count")
    out["optcore.solve_lp.nonoptimal"] = (tracer.lp_nonoptimal / passes, "count")
    verdicts = calls(["certificates.certify"])
    out["certificates.stages_per_verdict"] = (
        calls(STAGES) / verdicts if verdicts else 0.0, "ratio")
    warm = calls(["optcore.WarmQp.solve"])
    out["optcore.WarmQp.cold_ratio"] = (cold / warm if warm else 0.0, "ratio")
    return out


def output_metrics(outputs: list) -> dict:
    """Layer figures read off one pass of op outputs (partitions, rollouts)."""
    from hullcert import ExplicitController, Trajectory

    regions = sets = steps = active = incomplete = 0
    for out in outputs:
        if isinstance(out, ExplicitController):
            regions += len(out.regions)
            sets += len(out.meta["active_sets"])
        elif isinstance(out, Trajectory):
            n = len(out.status) - 1
            steps += n
            active += sum(s == "active" for s in out.status[:n])
            incomplete += not out.completed
    return {
        "explicit.region_yield": (regions / sets if sets else 0.0, "ratio"),
        "sim.steps": (steps, "count"),
        "sim.active_frac": (active / steps if steps else 0.0, "ratio"),
        "sim.rollouts_incomplete": (incomplete, "count"),
    }


def traced_run(args, wl, import_times, run_rounds, check_ops, metadata) -> int:
    """Untraced and traced passes in turn until the time is spent.

    The tracing overhead compares the two sides op by op (best pass of
    each), so drift of the machine's speed over the run mostly cancels.
    """
    tracer = Tracer()

    def on_op(i):
        tracer.op = i

    plain, traced, digests, errors = [], [], [], {}
    first = traced_first = None
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < args.seconds:
        lat, _, out, dig, err, _ = run_rounds(wl, 0.0, 1)
        plain += lat
        first = first or out
        tracer.install()
        try:
            lat, _, out, dig2, err2, _ = run_rounds(wl, 0.0, 1, on_op=on_op)
        finally:
            tracer.remove()
        traced += lat
        traced_first = traced_first or out
        digests += dig + dig2
        errors = {**err, **err2, **errors}
    passes = len(traced)
    bad = check_ops(wl, first, digests, errors)

    base = float(np.nanmin(plain, axis=0).sum())
    with_trace = float(np.nanmin(traced, axis=0).sum())
    metrics = {**{k: (v, "s") for k, v in import_times.items()},
               **layer_metrics(tracer, passes),
               **output_metrics(traced_first)}
    metrics["trace.overhead_s"] = (with_trace - base, "s")
    metrics["trace.overhead_frac"] = ((with_trace - base) / base, "ratio")
    metrics["trace.spans"] = (len(tracer.start) / passes, "count")

    out_dir = Path(OUT_DIR)
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")

    runs = 2 * passes
    info = metadata(args, wl, passes)
    info["failures"] = {wl.ops[i].label: why for i, why in sorted(bad.items())}
    info["untraced_pass_s"] = base
    print(json.dumps({"metadata": info}))
    print(json.dumps({"correct": not bad, "attempted": runs * len(wl.ops),
                      "failed": runs * len(bad),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0
