"""Property-based invariants: quadratic algebra, concavity of row margins
over vertex mixtures, and certificate soundness on randomized problems."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hullcert import cases
from hullcert.certificates import certify
from hullcert.curvature import (CurvatureClass, classify_quadratic,
                                concavity_witness, sign_cone)
from hullcert.oracle import check_certificate, grid_scan
from hullcert.problem import Hull, InputSet, QuadFunc, build_from_lti

finite = {"allow_nan": False, "allow_infinity": False,
          "allow_subnormal": False}
mat2 = hnp.arrays(np.float64, (2, 2),
                  elements=st.floats(-3.0, 3.0, **finite))
vec2 = hnp.arrays(np.float64, (2,),
                  elements=st.floats(-3.0, 3.0, **finite))


@given(Q=mat2, c=vec2, d=st.floats(-3.0, 3.0, **finite), x=vec2)
def test_quadfunc_symmetrization_is_invisible(Q, c, d, x):
    q = QuadFunc(Q, c, d)
    sym = QuadFunc(0.5 * (Q + Q.T), c, d)
    want = x @ (0.5 * (Q + Q.T)) @ x + c @ x + d
    assert q(x) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert q(x) == pytest.approx(sym(x), rel=1e-12, abs=1e-12)


@given(Q=mat2, c=vec2, d=st.floats(-3.0, 3.0, **finite))
def test_negation_mirrors_the_curvature_class(Q, c, d):
    q = QuadFunc(Q, c, d)
    neg = QuadFunc(-Q, -c, -d)
    mirror = {CurvatureClass.CONCAVE: CurvatureClass.CONVEX,
              CurvatureClass.CONVEX: CurvatureClass.CONCAVE,
              CurvatureClass.AFFINE: CurvatureClass.AFFINE,
              CurvatureClass.INDEFINITE: CurvatureClass.INDEFINITE}
    assert classify_quadratic(neg) is mirror[classify_quadratic(q)]


@settings(max_examples=50)
@given(lam=hnp.arrays(np.float64, (6,),
                      elements=st.floats(0.0, 1.0, **finite)))
def test_barycentric_points_stay_in_the_hull(lam):
    total = lam.sum()
    if total <= 1e-9:
        return
    lam = lam / total
    hull = cases.case3_problem().hull
    assert hull.contains(lam @ hull.vertices, tol=1e-9)


# --------------------------------------------------------------------------
# margins of cone-aligned inputs are concave over vertex mixtures


@pytest.mark.parametrize("name", cases.CASE_NAMES)
def test_cone_inputs_never_beat_their_vertex_mixture(name):
    prob = cases.get_problem(name)
    cone = sign_cone(prob.stack)
    blo, bhi = prob.input_set.bounds()
    lo = np.maximum(blo, cone.lo)
    hi = np.minimum(bhi, cone.hi)
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = rng.uniform(lo, hi)
        w = concavity_witness(prob.stack, u, prob.hull, trials=200, rng=rng)
        assert w <= 1e-9


# --------------------------------------------------------------------------
# randomized problems: a certificate implies oracle agreement


def _random_lti_problem(rng):
    m = int(rng.integers(1, 3))
    A = rng.uniform(-1, 1, size=(2, 2))
    B = rng.uniform(-1, 1, size=(2, m))
    rows = [(rng.uniform(-1, 1, size=2), float(rng.uniform(0.5, 2.0)),
             float(rng.uniform(0.5, 2.0)))
            for _ in range(int(rng.integers(1, 4)))]
    st_map = build_from_lti(A, B, rows)
    r = float(rng.uniform(0.2, 1.0))
    hull = Hull(np.array([[-r, -r], [-r, r], [r, -r], [r, r]]))
    ub = float(rng.uniform(0.5, 3.0))
    input_set = InputSet(box=(np.full(m, -ub), np.full(m, ub)))
    return st_map, hull, input_set


def test_certificates_are_sound_on_random_lti_problems():
    rng = np.random.default_rng(123)
    certified = 0
    methods = set()
    for _ in range(50):
        st_map, hull, input_set = _random_lti_problem(rng)
        cert, diag = certify(st_map, hull, input_set)
        scan = grid_scan(st_map, hull, input_set, per_edge=5)
        if cert is None:
            continue
        certified += 1
        methods.add(diag["method"])
        # the witness replays cleanly on a denser grid
        chk = check_certificate(st_map, hull, input_set, cert, per_edge=7)
        assert chk["ok"], (diag["method"], chk)
        # and the LP oracle agrees the hull is compatible
        assert scan.feasible_everywhere, (diag["method"], scan.min_margin)
    # the sweep has to exercise the cascade, not just decline everything
    assert certified >= 40
    assert len(methods) >= 2
