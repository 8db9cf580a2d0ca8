import json

import numpy as np
import pytest

from hullcert import (DesiredInput, Hull, InputSet, QuadFunc,
                      StackedMap, build_from_lti, dict_to_problem,
                      load_problem, problem_to_dict, save_problem)


def test_quadfunc_symmetrizes_without_changing_values():
    Q = np.array([[1.0, 3.0], [-1.0, 2.0]])
    q = QuadFunc(Q=Q, c=[1.0, -2.0], d=0.5)
    assert np.allclose(q.Q, q.Q.T)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=2)
        assert q(x) == pytest.approx(x @ Q @ x + q.c @ x + q.d, abs=1e-12)


def test_quadfunc_dimension_inference_and_errors():
    assert QuadFunc(c=[1.0, 2.0, 3.0]).n == 3
    assert QuadFunc(d=4.0, n=2).n == 2
    with pytest.raises(ValueError):
        QuadFunc(d=1.0)  # no way to infer n
    with pytest.raises(ValueError):
        QuadFunc(Q=[[1.0, 0.0]])
    with pytest.raises(ValueError):
        QuadFunc(c=[np.nan])


def test_quadfunc_affine_detection():
    assert QuadFunc(c=[1.0], d=2.0).is_affine()
    assert not QuadFunc(Q=[[1e-6]]).is_affine()
    c, d = QuadFunc(c=[3.0], d=-1.0).affine_coeffs()
    assert c[0] == 3.0 and d == -1.0
    with pytest.raises(ValueError):
        QuadFunc(Q=[[1.0]]).affine_coeffs()


def test_quadfunc_rejects_cubic_like_dicts():
    with pytest.raises(ValueError, match="degree"):
        QuadFunc.from_dict({"c": [1.0], "cubic": [1.0]})


def test_quadfunc_is_immutable():
    q = QuadFunc(c=[1.0, 0.0])
    with pytest.raises(ValueError):
        q.c[0] = 5.0


def test_stacked_map_shape_validation():
    q1 = QuadFunc(c=[1.0], d=0.0)
    with pytest.raises(ValueError):
        StackedMap([[q1], [q1, q1]], [q1, q1])
    with pytest.raises(ValueError):
        StackedMap([[q1]], [q1, q1])
    q2 = QuadFunc(c=[1.0, 0.0])
    with pytest.raises(ValueError):
        StackedMap([[q1, q2]], [q1])


def test_stacked_map_affine_arrays_fast_path():
    psi = [[QuadFunc(c=[1.0, 0.0], d=2.0), QuadFunc(c=[0.0, -1.0], d=0.0)],
           [QuadFunc(d=1.0, n=2), QuadFunc(c=[0.5, 0.5], d=-1.0)]]
    delta = [QuadFunc(c=[1.0, 1.0], d=0.0), QuadFunc(c=[0.0, 2.0], d=3.0)]
    st = StackedMap(psi, delta)
    aff = st.affine_arrays()
    assert aff is not None
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=2)
        assert np.allclose(aff.psi_at(x), st.psi_at(x))
        assert np.allclose(aff.delta_at(x), st.delta_at(x))
    X = rng.normal(size=(6, 2))
    assert np.allclose(aff.psi_batch(X), [st.psi_at(x) for x in X])
    assert np.allclose(aff.delta_batch(X), [st.delta_at(x) for x in X])


def test_stacked_map_eval_stacks_the_entrywise_values():
    affine = StackedMap(
        [[QuadFunc(c=[1.0, 0.0], d=2.0), QuadFunc(c=[0.0, -1.0], d=0.0)],
         [QuadFunc(d=1.0, n=2), QuadFunc(c=[0.5, 0.5], d=-1.0)]],
        [QuadFunc(c=[1.0, 1.0], d=0.0), QuadFunc(c=[0.0, 2.0], d=3.0)])
    quadratic = StackedMap(
        [[QuadFunc(Q=[[1.0, 0.3], [0.3, -2.0]], c=[0.1, 0.0], d=0.5)]],
        [QuadFunc(Q=[[0.0, 1.0], [1.0, 0.0]], c=[1.0, -1.0], d=0.2)])
    X = np.random.default_rng(4).normal(size=(5, 2))
    for st in (affine, quadratic):
        psi, delta = st.eval(X)
        assert psi.shape == (5, st.p, st.m) and delta.shape == (5, st.p)
        assert np.array_equal(psi, np.stack([st.psi_at(x) for x in X]))
        assert np.array_equal(delta, np.stack([st.delta_at(x) for x in X]))


def _random_stack(rng, n, quadratic):
    """p = 3 rows, m = 2 inputs."""
    def entry():
        Q = None
        if quadratic:  # eigenvalues of both signs once n > 1
            S = rng.normal(size=(n, n))
            Q = S @ np.diag([(-1.0) ** i for i in range(n)]) @ S.T
        return QuadFunc(Q=Q, c=rng.normal(size=n), d=rng.normal(), n=n)
    return StackedMap([[entry() for _ in range(2)] for _ in range(3)],
                      [entry() for _ in range(3)])


@pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
@pytest.mark.parametrize("quadratic", [False, True], ids=["affine", "quadratic"])
@pytest.mark.parametrize("n", [1, 4])
def test_stacked_map_reads_have_the_bits_of_quadfunc_calls(n, quadratic, layout):
    rng = np.random.default_rng(10 * n + quadratic)
    st = _random_stack(rng, n, quadratic)
    X = rng.normal(size=(7, n))
    if layout == "strided":
        X = np.repeat(X, 2, axis=1)[:, ::2]
    elif layout == "fortran":
        X = np.asfortranarray(X)
    # the reference: one QuadFunc.__call__ per entry on a contiguous copy
    copies = [np.ascontiguousarray(x) for x in X]
    psi = np.array([[[q(x) for q in row] for row in st.psi] for x in copies])
    delta = np.array([[q(x) for q in st.delta] for x in copies])
    got_psi, got_delta = st.eval(X)
    assert got_psi.tobytes() == psi.tobytes()
    assert got_delta.tobytes() == delta.tobytes()
    assert st.psi_at(X).tobytes() == psi.tobytes()
    assert st.delta_at(X).tobytes() == delta.tobytes()
    for k, x in enumerate(X):
        assert st.psi_at(x).tobytes() == psi[k].tobytes()
        assert st.delta_at(x).tobytes() == delta[k].tobytes()


def test_stacked_map_quadratic_has_no_affine_arrays():
    st = StackedMap([[QuadFunc(Q=[[1.0]])]], [QuadFunc(c=[1.0])])
    assert st.affine_arrays() is None
    # psi_at/delta_at still work through the generic path
    x = np.array([2.0])
    assert st.psi_at(x)[0, 0] == pytest.approx(4.0)
    assert st.delta_at(x)[0] == pytest.approx(2.0)
    # a small quadratic term is still quadratic
    tiny = StackedMap([[QuadFunc(Q=[[1e-6]])]], [QuadFunc(c=[1.0])])
    assert tiny.affine_arrays() is None


def test_hull_rejects_duplicate_vertices():
    with pytest.raises(ValueError):
        Hull([[0.0, 0.0], [0.0, 0.0]])
    # the first coinciding pair in (i, j) order is the one reported
    with pytest.raises(ValueError, match="hull vertices 0 and 2 coincide"):
        Hull([[0.0], [1.0], [0.0], [1.0]])


def test_hull_as_box_detection():
    box = Hull([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.0, 2.0]])
    out = box.as_box()
    assert out is not None
    lo, hi, corner_index = out
    assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [1.0, 2.0])
    assert len(corner_index) == 4
    # bitmask semantics: bit a set <=> coordinate a at its upper bound
    assert np.allclose(box.vertices[corner_index[0b11]], [1.0, 2.0])
    hexagon = Hull([[-1, 0], [-1, 1], [0, -1], [0, 1], [1, 0], [1, -1]])
    assert hexagon.as_box() is None


def test_hull_barycentric_and_contains():
    hu = Hull([[0.0], [3.0]])
    lam = hu.barycentric(np.array([1.0]))
    assert lam is not None
    assert np.allclose(lam @ hu.vertices, [1.0], atol=1e-8)
    assert hu.contains([2.9999])
    assert not hu.contains([3.1])
    hexagon = Hull([[-1, 0], [-1, 1], [0, -1], [0, 1], [1, 0], [1, -1]])
    assert hexagon.contains([0.0, 0.0])
    assert hexagon.contains([0.5, 0.5])  # on an edge
    assert not hexagon.contains([1.0, 1.0])


def test_input_set_canonical_polytope_rows():
    us = InputSet(box=(np.array([0.0, -1.0]), np.array([1.0, 2.0])),
                  polytope=(np.array([[1.0, 1.0]]), np.array([2.5])))
    G, b = us.to_polytope()
    # box rows [I; -I] first, then user rows
    assert np.allclose(G[:2], np.eye(2))
    assert np.allclose(G[2:4], -np.eye(2))
    assert np.allclose(b[:4], [1.0, 2.0, 0.0, 1.0])
    assert np.allclose(G[4], [1.0, 1.0]) and b[4] == 2.5
    assert us.contains([0.5, 0.5])
    assert not us.contains([1.0, 2.0])  # fails the user row


def test_input_set_empty_detection():
    with pytest.raises(ValueError):
        InputSet(box=(np.array([1.0]), np.array([0.0])))
    with pytest.raises(ValueError):
        InputSet(box=(np.array([0.0]), np.array([1.0])),
                 polytope=(np.array([[1.0]]), np.array([-2.0])))


def test_desired_input_call():
    ud = DesiredInput(np.array([[1.0, -1.0]]), np.array([0.5]))
    assert np.allclose(ud([2.0, 1.0]), [1.5])
    assert ud.m == 1 and ud.n == 2


def test_build_from_lti_row_formula():
    A = np.array([[0.0, 1.0], [0.1, -0.1]])
    B = np.array([[0.0], [1.0]])
    st = build_from_lti(A, B, [(np.array([1.0, 1.0]), 1.0, 1.0)])
    x = np.array([0.3, -0.7])
    # row: (a'B) u + a'A x + kappa (a'x + b)
    a = np.array([1.0, 1.0])
    assert st.psi_at(x)[0, 0] == pytest.approx(float((a @ B)[0]))
    assert st.delta_at(x)[0] == pytest.approx(float(a @ A @ x + a @ x + 1.0))
    with pytest.raises(ValueError):
        build_from_lti(A, B, [(np.array([1.0, 1.0]), 1.0, -0.5)])


def test_problem_round_trip(tmp_path):
    from hullcert import cases
    prob = cases.case3_problem()
    path = tmp_path / "prob.json"
    digest = save_problem(str(path), prob.stack, prob.hull, prob.input_set,
                          u_des=prob.u_des, lti=prob.lti)
    loaded = load_problem(str(path))
    assert loaded.source_hash == digest
    assert loaded.stack.p == prob.stack.p
    assert np.allclose(loaded.hull.vertices, prob.hull.vertices)
    x = np.array([0.2, -0.4])
    assert np.allclose(loaded.stack.psi_at(x), prob.stack.psi_at(x))
    assert np.allclose(loaded.stack.delta_at(x), prob.stack.delta_at(x))
    assert np.allclose(loaded.u_des(x), prob.u_des(x))


def test_problem_load_error_context(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ValueError, match="line 1"):
        load_problem(str(bad))
    missing = tmp_path / "missing_field.json"
    missing.write_text(json.dumps({"hull": {"vertices": [[0.0]]}}))
    with pytest.raises(ValueError, match="missing field"):
        load_problem(str(missing))


def test_dict_to_problem_dimension_checks():
    from hullcert import cases
    prob = cases.example1_problem()
    data = problem_to_dict(prob.stack, prob.hull, prob.input_set)
    data["p"] = 5
    with pytest.raises(ValueError, match="declared p=5"):
        dict_to_problem(data)
    data = problem_to_dict(prob.stack, prob.hull, prob.input_set)
    data["hull"] = {"vertices": [[0.0, 0.0], [1.0, 1.0]]}
    with pytest.raises(ValueError, match="dimension"):
        dict_to_problem(data)
