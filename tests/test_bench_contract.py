"""The benchmark's traced mode rebinds library callables by name and puts
them back; a rename or deletion of a traced name breaks ``--trace 1``."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from hullcert import cases, certificates, optcore, problem  # noqa: E402


def test_tracer_installs_traces_and_restores():
    solve_lp = optcore.solve_lp
    psi_at = problem.AffineStack.__dict__["psi_at"]
    prob = cases.case3_problem()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cert, diag = certificates.certify(prob.stack, prob.hull,
                                          prob.input_set)
    finally:
        tracer.remove()
    assert diag["method"] == "cpc_blend"
    totals, _ = tracer.layer_totals()
    assert totals["optcore.solve_lp"][0] > 0
    assert totals["problem.StackedMap.psi_at"][0] > 0
    assert optcore.solve_lp is solve_lp
    assert certificates.solve_lp is solve_lp
    assert problem.AffineStack.__dict__["psi_at"] is psi_at
