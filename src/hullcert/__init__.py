"""Compatibility certificates and explicit safety filters over vertex hulls.

The package answers one question offline: given stacked control-barrier rows
Psi(x) u + delta(x) >= 0 and a state region given as the convex hull of
sampled states, does every state in the region admit an admissible input
satisfying all rows at once, and if so, which input law realizes that?  The
main entry points are ``certify`` (cascade of sufficient certificates),
``grid_scan``/``check_certificate`` (brute-force falsifier), and
``partition_hull`` (explicit piecewise-affine QP filter).
"""
from .tolerances import DEFAULT, Tolerances
from .problem import (AffineStack, DesiredInput, Hull, InputSet, Problem,
                      QuadFunc, StackedMap, build_from_lti, dict_to_problem,
                      eval_stack, load_problem, problem_to_dict, save_problem)
from .curvature import (A3Violated, AssumptionReport, ConeViolation,
                        CurvatureClass, SignCone, classify_quadratic,
                        column_curvature, concavity_witness, sign_cone,
                        uniform_column_sign, validate_problem)
from .optcore import (InfeasibleQP, LpProblem, LpResult, NumericalFailure,
                      QpSolution, WarmQp, margin_lp, solve_lp,
                      solve_qp_projection)
from .certificates import (BlendCert, CertificateOutcome, CommonCert,
                           IntervalCert, VertexIncompatible, blend_input,
                           cert_from_dict, certify, cpc_blend_joint,
                           cpc_blend_vertexwise, cpc_common, cpc_interval,
                           endpoint_rule, find_vertex_inputs, pairwise_check)
from .oracle import (ScanReport, check_certificate, grid_scan,
                     pointwise_margin, replay_margins, sample_hull)
from .explicit import (AffineLaw, Assumption2Violated, CriticalRegion,
                       ExplicitController, LicqViolated, NoRegion,
                       NotInRegion, OutsideHull, UnresolvedRegion,
                       eval_explicit, hull_halfspaces, interpolate_on_region,
                       kkt_affine_law, partition_hull, verify_region)
from .sim import (AffineClipController, ConstantController,
                  ControllerFailure, Dynamics, ExplicitPwaController,
                  QpFilterController, Trajectory, integrate, safety_margin)
from .reporting import jsonable, write_report
from .cases import (CASE_NAMES, case1_problem, case2_problem, case3_problem,
                    case3_dynamics, cbf_rows, example1_problem, get_problem,
                    run_case_study, three_room_dynamics)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT", "Tolerances",
    "AffineStack", "DesiredInput", "Hull", "InputSet",
    "Problem", "QuadFunc", "StackedMap", "build_from_lti", "dict_to_problem",
    "eval_stack", "load_problem", "problem_to_dict", "save_problem",
    "A3Violated", "AssumptionReport", "ConeViolation", "CurvatureClass",
    "SignCone", "classify_quadratic", "column_curvature",
    "concavity_witness", "sign_cone", "uniform_column_sign",
    "validate_problem",
    "InfeasibleQP", "LpProblem", "LpResult", "NumericalFailure",
    "QpSolution", "WarmQp", "margin_lp", "solve_lp", "solve_qp_projection",
    "BlendCert", "CertificateOutcome", "CommonCert", "IntervalCert",
    "VertexIncompatible", "blend_input", "cert_from_dict", "certify",
    "cpc_blend_joint", "cpc_blend_vertexwise", "cpc_common", "cpc_interval",
    "endpoint_rule", "find_vertex_inputs", "pairwise_check",
    "ScanReport", "check_certificate", "grid_scan", "pointwise_margin",
    "replay_margins", "sample_hull",
    "AffineLaw", "Assumption2Violated", "CriticalRegion",
    "ExplicitController", "LicqViolated", "NoRegion", "NotInRegion",
    "OutsideHull", "UnresolvedRegion", "eval_explicit",
    "hull_halfspaces", "interpolate_on_region", "kkt_affine_law",
    "partition_hull", "verify_region",
    "AffineClipController", "ConstantController", "ControllerFailure",
    "Dynamics", "ExplicitPwaController", "QpFilterController", "Trajectory",
    "integrate", "safety_margin",
    "jsonable", "write_report",
    "CASE_NAMES", "case1_problem", "case2_problem", "case3_problem",
    "case3_dynamics", "cbf_rows", "example1_problem", "get_problem",
    "run_case_study", "three_room_dynamics",
    "__version__",
]
