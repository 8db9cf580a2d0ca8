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
from .problem import (DesiredInput, Hull, InputSet, Problem, QuadFunc,
                      StackedMap, build_from_lti, dict_to_problem,
                      load_problem, problem_to_dict, save_problem)
from .curvature import (A3Violated, ConeViolation, CurvatureClass,
                        classify_quadratic, column_curvature,
                        concavity_witness, sign_cone, uniform_column_sign,
                        validate_problem)
from .optcore import (InfeasibleQP, LpProblem, NumericalFailure, WarmQp,
                      margin_lp, solve_lp, solve_qp_projection)
from .certificates import (BlendCert, CommonCert, IntervalCert,
                           cert_from_dict, certify, cpc_blend_joint,
                           cpc_common, cpc_interval, endpoint_rule,
                           pairwise_check)
from .oracle import (check_certificate, grid_scan, pointwise_margin,
                     sample_hull)
from .explicit import (Assumption2Violated, ExplicitController, NoRegion,
                       NotInRegion, OutsideHull, UnresolvedRegion,
                       interpolate_on_region, partition_hull)
from .sim import (AffineClipController, ConstantController,
                  ControllerFailure, Dynamics, ExplicitPwaController,
                  QpFilterController, Trajectory, integrate, safety_margin)
from .cases import (CASE_NAMES, case1_problem, case2_problem, case3_problem,
                    case3_dynamics, cbf_rows, example1_problem, get_problem,
                    run_case_study, three_room_dynamics)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT", "Tolerances",
    "DesiredInput", "Hull", "InputSet", "Problem", "QuadFunc", "StackedMap",
    "build_from_lti", "dict_to_problem", "load_problem", "problem_to_dict",
    "save_problem",
    "A3Violated", "ConeViolation", "CurvatureClass", "classify_quadratic",
    "column_curvature", "concavity_witness", "sign_cone",
    "uniform_column_sign", "validate_problem",
    "InfeasibleQP", "LpProblem", "NumericalFailure", "WarmQp", "margin_lp",
    "solve_lp", "solve_qp_projection",
    "BlendCert", "CommonCert", "IntervalCert", "cert_from_dict", "certify",
    "cpc_blend_joint", "cpc_common", "cpc_interval", "endpoint_rule",
    "pairwise_check",
    "check_certificate", "grid_scan", "pointwise_margin", "sample_hull",
    "Assumption2Violated", "ExplicitController", "NoRegion", "NotInRegion",
    "OutsideHull", "UnresolvedRegion", "interpolate_on_region",
    "partition_hull",
    "AffineClipController", "ConstantController", "ControllerFailure",
    "Dynamics", "ExplicitPwaController", "QpFilterController", "Trajectory",
    "integrate", "safety_margin",
    "CASE_NAMES", "case1_problem", "case2_problem", "case3_problem",
    "case3_dynamics", "cbf_rows", "example1_problem", "get_problem",
    "run_case_study", "three_room_dynamics",
    "__version__",
]
