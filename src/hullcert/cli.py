"""Command-line front end.

Subcommands: certify, explicit, oracle, simulate, demo.  Exit codes follow a
CI-friendly contract:

  0  certificate validated / run completed safely
  1  usage or input error
  2  inconclusive (no certificate, synthesis unresolved, controller failed)
  3  falsified (oracle found a violation, or a trajectory left the safe set)

Built-in fixture names (example1, case1, case2, case3) are accepted wherever
a problem file path is, so the worked studies can be driven without files.
Reports embed the tolerance set and a content hash of the problem data;
identical config and seed give byte-identical reports apart from the
timestamp line.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

import numpy as np

from . import cases
from .certificates import certify
from .explicit import (Assumption2Violated, UnresolvedRegion, partition_hull)
from .optcore import NumericalFailure
from .oracle import grid_scan
from .problem import Problem, load_problem, problem_to_dict
from .reporting import jsonable, write_report
from .sim import Dynamics, QpFilterController, integrate
from .tolerances import DEFAULT

SAFE_SIM_SLACK = -1e-6


class UsageError(Exception):
    """Bad flags or unreadable inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sp):
    sp.add_argument("--problem", required=True,
                    help="problem JSON file, or a built-in name "
                         f"({', '.join(cases.CASE_NAMES)})")
    sp.add_argument("--tol-feas", type=float, default=None,
                    help="feasibility slack override (> 0)")
    sp.add_argument("--tol-active", type=float, default=None,
                    help="active-constraint threshold override (> 0)")
    sp.add_argument("--out", default=None,
                    help="output directory; omit to print the report")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> _Parser:
    p = _Parser(prog="hullcert",
                description="Certify stacked control-barrier compatibility "
                            "over a vertex hull, synthesize explicit QP "
                            "filters, and cross-check by brute force.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("certify", parents=[], help="run the certificate "
                        "cascade on a problem")
    _add_common(sp)
    sp.add_argument("--cascade", default=None,
                    help="comma-separated stage order from "
                         "{endpoint,interval,common,blend}")

    sp = sub.add_parser("oracle", help="dense margin scan over the hull")
    _add_common(sp)
    sp.add_argument("--grid", type=int, default=None,
                    help="samples per hull edge")

    sp = sub.add_parser("explicit", help="synthesize and save the "
                        "piecewise-affine filter")
    _add_common(sp)
    sp.add_argument("--grid", type=int, default=15,
                    help="seed resolution per hull edge")

    sp = sub.add_parser("simulate", help="closed-loop QP-filter rollouts "
                        "from 10 sampled starts")
    _add_common(sp)

    sp = sub.add_parser("demo", help="full study for one built-in fixture")
    sp.add_argument("name", choices=cases.CASE_NAMES)
    sp.add_argument("--out", default=None,
                    help="artifact directory (default artifacts/<name>)")
    sp.add_argument("--seed", type=int, default=7)
    return p


def _resolve_tol(args):
    for label in ("tol_feas", "tol_active"):
        v = getattr(args, label, None)
        if v is not None and not 0 < v < np.inf:
            raise UsageError(f"--{label.replace('_', '-')} must be positive and finite")
    return DEFAULT.with_overrides(feas=getattr(args, "tol_feas", None),
                                  active=getattr(args, "tol_active", None))


def _resolve_problem(spec: str) -> Problem:
    if spec in cases.CASE_NAMES:
        return cases.get_problem(spec)
    if not os.path.exists(spec):
        raise UsageError(f"problem file {spec!r} does not exist and is not "
                         "a built-in name")
    try:
        return load_problem(spec)
    except ValueError as exc:
        raise UsageError(f"cannot load {spec}: {exc}") from exc


def _digest(prob: Problem) -> str:
    if prob.source_hash:
        return prob.source_hash
    blob = json.dumps(problem_to_dict(prob.stack, prob.hull, prob.input_set,
                                      u_des=prob.u_des, lti=prob.lti),
                      indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(blob.encode()).hexdigest()


def _setup(args) -> tuple:
    """(tol, problem, report header) shared by the report subcommands.

    Tolerance and grid flags are checked before the problem is loaded, so a
    bad flag is reported even when the problem is unreadable too.
    """
    tol = _resolve_tol(args)
    if getattr(args, "grid", None) is not None and args.grid < 2:
        raise UsageError("--grid must be at least 2")
    prob = _resolve_problem(args.problem)
    header = {"command": args.command, "problem": args.problem,
              "problem_sha256": _digest(prob), "tolerances": tol.to_dict()}
    return tol, prob, header


def _emit(report: dict, out_dir, fname: str) -> None:
    if out_dir is None:
        json.dump(jsonable(report), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        os.makedirs(out_dir, exist_ok=True)
        write_report(os.path.join(out_dir, fname), report)


def cmd_certify(args) -> int:
    tol, prob, report = _setup(args)
    order = None
    if args.cascade:
        order = tuple(s.strip() for s in args.cascade.split(",") if s.strip())
        bad = set(order) - {"endpoint", "interval", "common", "blend"}
        if bad or not order:
            raise UsageError(f"unknown cascade stages {sorted(bad)}")
    reference = cases.REFERENCE_VERTEX_INPUTS.get(args.problem)
    vertex_inputs = reference() if reference else None
    cert, diag = certify(prob.stack, prob.hull, prob.input_set,
                         vertex_inputs=vertex_inputs, order=order, tol=tol)
    report["result"] = diag
    if cert is not None:
        report["certificate"] = cert.to_dict()
    _emit(report, args.out, "certify.json")
    if args.out and args.format == "csv":
        with open(os.path.join(args.out, "certify.csv"), "w",
                  newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "valid", "margin", "reason"])
            for a in diag["attempts"]:
                w.writerow([a["method"], a["valid"],
                            "" if a["margin"] is None else a["margin"],
                            a.get("reason", "")])
    if cert is None:
        print("inconclusive: no certificate validated", file=sys.stderr)
        return 2
    print(f"certified via {diag['method']}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    tol, prob, report = _setup(args)
    scan = grid_scan(prob.stack, prob.hull, prob.input_set,
                     per_edge=args.grid, seed=args.seed, tol=tol)
    report["scan"] = scan.to_dict()
    _emit(report, args.out, "scan.json")
    if args.out and args.format == "csv":
        scan.write_csv(os.path.join(args.out, "scan.csv"))
    if not scan.feasible_everywhere:
        print(f"falsified: {scan.violations} of {scan.n_samples} samples "
              f"infeasible, min margin {scan.min_margin:.6g} at "
              f"x={np.asarray(scan.argmin_x).tolist()}", file=sys.stderr)
        return 3
    print(f"feasible at all {scan.n_samples} samples "
          f"(min margin {scan.min_margin:.6g})", file=sys.stderr)
    return 0


def cmd_explicit(args) -> int:
    tol, prob, report = _setup(args)
    try:
        controller = partition_hull(prob.stack, prob.hull, prob.input_set,
                                    prob.u_des, seed_per_edge=args.grid,
                                    tol=tol)
    except (Assumption2Violated, UnresolvedRegion) as exc:
        print(f"explicit synthesis failed: {exc}", file=sys.stderr)
        return 2
    report["n_regions"] = len(controller.regions)
    report["active_sets"] = [[list(r.a_set), list(r.b_set)]
                             for r in controller.regions]
    _emit(report, args.out, "explicit_report.json")
    if args.out:
        controller.save(os.path.join(args.out, "explicit.json"))
    print(f"synthesized {len(controller.regions)} regions", file=sys.stderr)
    return 0


def _dynamics_for(prob: Problem, name: str) -> tuple[Dynamics, list, float]:
    if name in ("case1", "case2"):
        return cases.three_room_dynamics(), cases.cbf_rows(name), 40.0
    if prob.lti is not None:
        dyn = Dynamics.lti(prob.lti["A"], prob.lti["B"])
        rows = [(np.asarray(a, dtype=float), float(b))
                for a, b, _ in prob.lti["cbfs"]]
        return dyn, rows, 15.0
    raise UsageError(f"no dynamics available for {name!r}; simulate needs a "
                     "built-in case or a problem file with an lti block")


def cmd_simulate(args) -> int:
    tol, prob, report = _setup(args)
    dyn, rows, T = _dynamics_for(prob, args.problem)
    dt = 0.01
    rng = np.random.default_rng(args.seed)
    lam = rng.dirichlet(np.ones(prob.hull.N), size=10)
    x0s = lam @ prob.hull.vertices
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    summary = []
    worst = np.inf
    all_completed = True
    for i, x0 in enumerate(x0s):
        ctrl = QpFilterController(prob.stack, prob.input_set,
                                  prob.u_des or (lambda x: np.zeros(dyn.m)),
                                  tol=tol)
        traj = integrate(dyn, ctrl, x0, T=T, dt=dt, cbf_rows=rows)
        worst = min(worst, traj.min_h())
        all_completed = all_completed and traj.completed
        summary.append({"x0": x0.tolist(), "min_h": traj.min_h(),
                        "completed": traj.completed, "note": traj.note})
        if args.out:
            traj.write_csv(os.path.join(args.out, f"traj_{i}.csv"))
    report.update(seed=args.seed, T=T, dt=dt, min_h=worst,
                  trajectories=summary)
    _emit(report, args.out, "simulate.json")
    if not all_completed:
        print("controller failed mid-run", file=sys.stderr)
        return 2
    if worst < SAFE_SIM_SLACK:
        print(f"falsified: trajectory left the safe set (min h {worst:.6g})",
              file=sys.stderr)
        return 3
    print(f"10 rollouts safe (min h {worst:.6g})", file=sys.stderr)
    return 0


def cmd_demo(args) -> int:
    out = args.out or os.path.join("artifacts", args.name)
    bundle = cases.run_case_study(args.name, out_dir=out, seed=args.seed)
    keys = sorted(k for k in bundle if k not in ("name", "seed"))
    print(f"wrote {args.name} study to {out} (sections: {', '.join(keys)})",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"certify": cmd_certify, "oracle": cmd_oracle,
                   "explicit": cmd_explicit, "simulate": cmd_simulate,
                   "demo": cmd_demo}[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"inconclusive: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
