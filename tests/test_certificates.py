"""Certificate constructions and the cascade on the bundled fixtures.

Frozen numbers were computed by hand or with the margin LP before being
asserted here; see the matching comments.
"""
import numpy as np
import pytest

from hullcert import cases
from hullcert.certificates import (BlendCert, CommonCert, IntervalCert,
                                   cert_from_dict, certify, cpc_blend_joint,
                                   cpc_common, cpc_interval, endpoint_rule,
                                   pairwise_check)
from hullcert.oracle import check_certificate, grid_scan
from hullcert.problem import Hull, InputSet, QuadFunc, StackedMap


# --------------------------------------------------------------------------
# scalar example: every construction must decline


def test_example1_endpoint_fails_on_mixed_column():
    prob = cases.example1_problem()
    out = endpoint_rule(prob.stack, prob.hull, prob.input_set)
    assert not out.valid
    assert out.reason == "column 0 has no uniform sign over the hull"


def test_example1_interval_fails_sign_coherence():
    prob = cases.example1_problem()
    ref = cases.example1_reference_vertex_inputs()
    out = cpc_interval(prob.stack, prob.hull, prob.input_set, ref)
    assert not out.valid
    # -(x-4)^2 < 0 while the constant row is +1, at either vertex
    assert out.reason == "column 0 is not sign-coherent at vertex 0"


def test_example1_common_margin_is_minus_38_over_17():
    prob = cases.example1_problem()
    out = cpc_common(prob.stack, prob.hull, prob.input_set)
    assert not out.valid
    # max-min margin of a constant input: rows -16u+10 >= t (at x=0) and
    # u - 3 >= t (at x=3) cross at u = 13/17, t = -38/17
    assert out.margin == pytest.approx(-38 / 17, abs=1e-9)
    assert out.reason == "best common margin is negative"


def test_example1_blend_margin_matches_common():
    prob = cases.example1_problem()
    out = cpc_blend_joint(prob.stack, prob.hull, prob.input_set)
    assert not out.valid
    # coupling rows force u(0) = u(3) here, so the joint LP degenerates to
    # the common one
    assert out.margin == pytest.approx(-38 / 17, abs=1e-9)
    assert out.reason == "joint margin is negative"


def test_example1_cascade_reports_every_failure():
    prob = cases.example1_problem()
    cert, diag = certify(prob.stack, prob.hull, prob.input_set,
                         vertex_inputs=cases.example1_reference_vertex_inputs())
    assert cert is None
    assert not diag["certified"]
    assert diag["method"] is None
    methods = [a["method"] for a in diag["attempts"]]
    assert methods == ["endpoint_rule", "cpc_interval", "cpc_common",
                       "cpc_blend"]
    assert all(not a["valid"] for a in diag["attempts"])


# --------------------------------------------------------------------------
# three-room heating fixtures


def test_case1_endpoint_all_heaters_on():
    prob = cases.case1_problem()
    out = endpoint_rule(prob.stack, prob.hull, prob.input_set)
    assert out.valid
    cert = out.certificate
    assert cert.kind == "endpoint"
    assert np.allclose(cert.lo, 1.0) and np.allclose(cert.hi, 1.0)
    # worst vertex is the all-cold corner: 2*1 - 0.06*26 = 0.44
    assert out.margin == pytest.approx(0.44, abs=1e-12)
    assert cert.input_at() == pytest.approx([1.0, 1.0, 1.0])


def test_case1_interval_box():
    prob = cases.case1_problem()
    ref = cases.case1_reference_vertex_inputs()
    out = cpc_interval(prob.stack, prob.hull, prob.input_set, ref)
    assert out.valid
    cert = out.certificate
    assert np.allclose(cert.lo, 0.78, atol=1e-12)
    assert np.allclose(cert.hi, 1.0, atol=1e-12)
    # the floor corner sits exactly on the boundary at the all-cold vertex
    assert abs(out.margin) < 1e-12
    assert cert.method == "cpc_interval"


def test_case1_interval_grows_with_the_input_box():
    prob = cases.case1_problem()
    ref = cases.case1_reference_vertex_inputs()
    base = cpc_interval(prob.stack, prob.hull, prob.input_set, ref)
    wide = InputSet(box=(np.full(3, -1.0), np.full(3, 2.0)))
    grown = cpc_interval(prob.stack, prob.hull, wide, ref)
    assert base.valid and grown.valid
    # floors come from the vertex inputs, ceilings from the box
    assert np.allclose(grown.certificate.lo, base.certificate.lo)
    assert np.all(grown.certificate.hi >= base.certificate.hi - 1e-12)
    assert np.allclose(grown.certificate.hi, 2.0)


def test_case1_interval_rejects_corrupted_hints():
    # all-zero vertex inputs pass the shape check but the re-verified floor
    # corner fails at the all-cold vertex, so no certificate is issued
    prob = cases.case1_problem()
    bad = np.zeros_like(cases.case1_reference_vertex_inputs())
    out = cpc_interval(prob.stack, prob.hull, prob.input_set, bad)
    assert not out.valid
    assert out.reason == "box corner fails at a hull vertex"
    assert out.margin == pytest.approx(-1.56, abs=1e-12)


def test_case1_interval_shape_check():
    prob = cases.case1_problem()
    with pytest.raises(ValueError, match=r"\[N, m\]"):
        cpc_interval(prob.stack, prob.hull, prob.input_set, np.zeros((2, 3)))


def test_case2_common_input():
    prob = cases.case2_problem()
    out = cpc_common(prob.stack, prob.hull, prob.input_set)
    assert out.valid
    cert = out.certificate
    # warm rows at the cold corner and cool rows at the hot corner balance
    # at u = 0.95: 2u - 1.56 = -1.6u + 1.86 = 0.34
    assert np.allclose(cert.u, 0.95, atol=1e-9)
    assert out.margin == pytest.approx(0.34, abs=1e-9)
    assert out.detail["lp_margin"] == pytest.approx(0.34, abs=1e-9)


def test_case2_blend_is_at_least_as_good_as_common():
    # a common input is a feasible joint witness with all coupling rows at
    # zero, so the joint margin can never be worse
    prob = cases.case2_problem()
    com = cpc_common(prob.stack, prob.hull, prob.input_set)
    ble = cpc_blend_joint(prob.stack, prob.hull, prob.input_set)
    assert com.valid and ble.valid
    assert ble.margin >= com.margin - 1e-9


def test_case2_reference_witness_margins():
    prob = cases.case2_problem()
    u = cases.case2_reference_witness()
    margins = np.array([prob.stack.psi_at(v) @ u + prob.stack.delta_at(v)
                        for v in prob.hull.vertices])
    assert margins.min() >= -1e-9


# --------------------------------------------------------------------------
# double integrator fixture


def test_case3_cascade_lands_on_blend():
    prob = cases.case3_problem()
    cert, diag = certify(prob.stack, prob.hull, prob.input_set)
    assert diag["certified"]
    assert diag["method"] == "cpc_blend"
    by = {a["method"]: a for a in diag["attempts"]}
    assert by["endpoint_rule"]["reason"] == (
        "column 0 has no uniform sign over the hull")
    assert by["cpc_interval"]["reason"] == "skipped: no vertex inputs supplied"
    assert by["cpc_common"]["margin"] == pytest.approx(-0.9, abs=1e-9)
    assert cert.margin == pytest.approx(0.1, abs=1e-9)
    assert cert.pairwise_max == 0.0


def test_case3_reference_inputs_blend_cleanly():
    prob = cases.case3_problem()
    U = cases.case3_reference_vertex_inputs()
    assert pairwise_check(prob.stack, prob.hull, U) == 0.0
    rng = np.random.default_rng(11)
    for _ in range(50):
        lam = rng.dirichlet(np.ones(prob.hull.N))
        x = lam @ prob.hull.vertices
        u = lam @ U
        res = prob.stack.psi_at(x) @ u + prob.stack.delta_at(x)
        assert res.min() >= -1e-9


# --------------------------------------------------------------------------
# failure modes and guard rails


def test_endpoint_needs_a_finite_favorable_bound():
    st = StackedMap(psi=[[QuadFunc(d=1.0, n=1)]],
                    delta=[QuadFunc(d=0.0, n=1)])
    hull = Hull(np.array([[0.0]]))
    free = InputSet(polytope=(np.zeros((1, 1)), np.ones(1)))
    out = endpoint_rule(st, hull, free)
    assert not out.valid
    assert "no usable endpoint" in out.reason


def test_endpoint_respects_the_input_polytope():
    st = StackedMap(psi=[[QuadFunc(d=1.0, n=1), QuadFunc(d=1.0, n=1)]],
                    delta=[QuadFunc(d=0.0, n=1)])
    hull = Hull(np.array([[0.0]]))
    us = InputSet(box=(np.zeros(2), np.ones(2)),
                  polytope=(np.array([[1.0, 1.0]]), np.array([1.0])))
    out = endpoint_rule(st, hull, us)
    assert not out.valid
    assert out.reason == (
        "endpoint input violates the polytope part of the input set")


def test_common_unbounded_margin_falls_back_to_feasibility():
    # free input and a single row u + delta >= t: the margin LP is
    # unbounded, the fallback still returns a checked witness
    hull = Hull(np.array([[0.0]]))
    free = InputSet(polytope=(np.zeros((1, 1)), np.ones(1)))
    st = StackedMap(psi=[[QuadFunc(d=1.0, n=1)]],
                    delta=[QuadFunc(d=-3.0, n=1)])
    out = cpc_common(st, hull, free)
    assert out.valid
    assert out.certificate.u == pytest.approx([3.0])
    assert out.margin >= -1e-9


def test_blend_unbounded_margin_falls_back_to_feasibility():
    hull = Hull(np.array([[0.0]]))
    free = InputSet(polytope=(np.zeros((1, 1)), np.ones(1)))
    st = StackedMap(psi=[[QuadFunc(d=1.0, n=1)]],
                    delta=[QuadFunc(d=0.0, n=1)])
    out = cpc_blend_joint(st, hull, free)
    assert out.valid
    assert out.margin >= -1e-9


def test_blend_keeps_coupling_rows_when_psi_varies_slightly():
    # every Psi entry moves across the hull by less than 1e-5 of its size,
    # so a relative constancy test would drop the coupling rows, and the
    # LP's vertex inputs would then fail the pairwise check
    pd = [[-64.4, 19.8], [21.5, 34.8], [-59.2, -33.1]]
    pc = [[-4e-5, -1.2e-4], [1.7e-4, -5e-5], [3e-5, -2.6e-5]]
    psi = [[QuadFunc(c=[pc[r][k]], d=pd[r][k]) for k in range(2)]
           for r in range(3)]
    delta = [QuadFunc(c=[c], d=d) for c, d in zip([31.7, 26.4, 12.7],
                                                   [-22.0, 0.5, 6.8])]
    st = StackedMap(psi, delta)
    hull = Hull([[0.0], [1.0]])
    box = InputSet(box=(-np.ones(2), np.ones(2)))
    out = cpc_blend_joint(st, hull, box)
    assert out.valid, out.reason
    assert out.detail["pairwise_max"] <= 0.0
    scan = grid_scan(st, hull, box)
    assert out.margin == pytest.approx(scan.min_margin, abs=1e-9)
    assert check_certificate(st, hull, box, out.certificate)["ok"]


def test_margin_certificates_need_inputs_in_the_sign_cone():
    # a concave column only admits u >= 0, and the input box [-2, -1] has
    # no such input, so both LP certificates stop before building an LP
    st = StackedMap(psi=[[QuadFunc(Q=[[-1.0]])]],
                    delta=[QuadFunc(d=1.0, n=1)])
    hull = Hull(np.array([[0.0], [1.0]]))
    us = InputSet(box=(np.array([-2.0]), np.array([-1.0])))
    for construct in (cpc_common, cpc_blend_joint):
        out = construct(st, hull, us)
        assert not out.valid
        assert out.reason == "input set does not meet the sign cone"
        assert out.margin is None


def test_certify_rejects_unknown_stage():
    prob = cases.example1_problem()
    with pytest.raises(ValueError, match="unknown cascade stage"):
        certify(prob.stack, prob.hull, prob.input_set, order=("simplex",))


# --------------------------------------------------------------------------
# serialization


def test_cert_round_trips_through_dicts():
    interval = IntervalCert(np.array([0.2, 0.3]), np.array([0.8, 0.9]), 0.05)
    endpoint = IntervalCert(np.ones(2), np.ones(2), 0.44, kind="endpoint")
    common = CommonCert(np.array([0.95]), 0.34)
    blend = BlendCert(np.array([[0.1], [0.9]]), 0.1, 0.0)
    for cert in (interval, endpoint, common, blend):
        back = cert_from_dict(cert.to_dict())
        assert back.method == cert.method
        assert back.margin == cert.margin
        assert np.allclose(back.input_at(np.array([0.5, 0.5]))
                           if cert.method == "cpc_blend" else back.input_at(),
                           cert.input_at(np.array([0.5, 0.5]))
                           if cert.method == "cpc_blend" else cert.input_at())
    assert cert_from_dict(endpoint.to_dict()).kind == "endpoint"
    with pytest.raises(ValueError, match="unknown certificate method"):
        cert_from_dict({"method": "magic"})


def test_blend_input_length_check():
    cert = BlendCert(np.array([[0.1], [0.9]]), 0.1, 0.0)
    with pytest.raises(ValueError, match="wrong length"):
        cert.input_at(np.array([1.0]))
