"""The package's public surface, pinned: adding or removing an export
shows up as a change to this file."""
import hullcert

PUBLIC = {
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
}


def test_every_export_resolves():
    missing = [name for name in hullcert.__all__
               if not hasattr(hullcert, name)]
    assert missing == []


def test_exports_are_listed_once():
    assert len(hullcert.__all__) == len(set(hullcert.__all__))


def test_exports_match_the_pinned_surface():
    exported = set(hullcert.__all__)
    assert exported - PUBLIC == set(), "new exports"
    assert PUBLIC - exported == set(), "removed exports"
