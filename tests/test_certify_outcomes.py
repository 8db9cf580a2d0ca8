"""The outcomes of the certify cascade, pinned by digest.

``tests/data/certify_outcomes.json`` holds one sha256 per problem over
everything ``certify`` returns: the certificate's dict and the whole
diagnostics (stage order, every attempt's method, validity, margin bits,
reason string and detail, such as ``lp_margin`` and ``pairwise_max``).
Each problem is certified with the default cascade and with each stage
alone, so a stage that the default cascade never reaches is pinned too.

The problems are the four built-in cases, without and with vertex inputs
for the interval stage, the seeded corridors of ``tests/test_lp_bits.py``,
and quadratic stacks whose columns are concave, convex, indefinite or mixed,
which reach the sign-cone clipping, ``A3Violated`` and the "inconclusive"
column signs.

Regenerate the file (only when a change is meant to move an outcome) with

    PYTHONPATH=src python tests/test_certify_outcomes.py --write
"""
import hashlib
import json
import sys
from itertools import product
from pathlib import Path

import numpy as np

import hullcert as hc
from hullcert import cases

from test_lp_bits import CORRIDORS, corridor

DIGESTS = Path(__file__).parent / "data" / "certify_outcomes.json"

STAGES = ("endpoint", "interval", "common", "blend")


def _box(*half):
    return hc.Hull(np.array(list(product(*[(-h, h) for h in half]))))


def _vertex_inputs(rng, hull, input_set):
    lo, hi = input_set.bounds()
    return rng.uniform(lo, hi, size=(hull.N, lo.size))


def _quad(n, Q=None, c=None, d=0.0):
    return hc.QuadFunc(Q=Q, c=c, d=d, n=n)


def quadratic_stacks():
    """{label: (stack, hull, input_set)} with genuinely quadratic entries."""
    eye = np.eye(2)
    out = {}
    # concave column, positive at the vertices: a nonneg endpoint column
    out["concave-column"] = (hc.StackedMap(
        [[_quad(2, -eye, d=2.5), _quad(2, c=[0.3, 0.0], d=1.0)],
         [_quad(2, -0.5 * eye, d=1.5), _quad(2, d=0.5)]],
        [_quad(2, -eye, d=-0.5), _quad(2, c=[0.2, 0.0], d=-1.0)]),
        _box(1.0, 1.0), hc.InputSet(box=([-1.0, -1.0], [2.0, 2.0])))
    # convex column positive at the vertices: no endpoint sign, cone u <= 0
    out["convex-column"] = (hc.StackedMap(
        [[_quad(2, eye, d=0.5)], [_quad(2, c=[0.0, 0.4], d=-1.0)]],
        [_quad(2, -0.2 * eye, d=1.0), _quad(2, c=[0.1, 0.1], d=0.5)]),
        _box(1.0, 0.8), hc.InputSet(box=([-1.0], [1.0])))
    # an indefinite entry: A3 fails for every LP stage
    out["indefinite-entry"] = (hc.StackedMap(
        [[_quad(2, [[1.0, 0.0], [0.0, -1.0]], d=1.0), _quad(2, d=1.0)]],
        [_quad(2, d=0.5)]),
        _box(1.0, 1.0), hc.InputSet(box=([-1.0, -1.0], [1.0, 1.0])))
    # a concave and a convex entry in one column: A3 fails again
    out["mixed-column"] = (hc.StackedMap(
        [[_quad(1, [[-1.0]], d=2.0)], [_quad(1, [[1.0]], d=1.0)]],
        [_quad(1, d=0.5), _quad(1, d=0.5)]),
        hc.Hull([[-1.0], [1.0]]), hc.InputSet(box=([-2.0], [2.0])))
    # curvature between the affine test's 1e-12 and the cone's tol.eig
    out["tiny-curvature"] = (hc.StackedMap(
        [[_quad(2, 1e-11 * eye, c=[0.5, 0.0], d=1.0)],
         [_quad(2, -1e-11 * eye, c=[0.0, -0.5], d=-1.0)]],
        [_quad(2, c=[0.0, 0.2], d=1.5), _quad(2, c=[0.3, 0.0], d=1.5)]),
        _box(1.0, 1.0), hc.InputSet(box=([-1.0], [1.0]),
                                    polytope=([[1.0]], [0.5])))
    # seeded stacks: each column's curved entries share one side
    for seed in range(6):
        rng = np.random.default_rng([11, seed])
        n, m, p = 1 + seed % 3, 1 + seed % 2, 2 + seed % 3
        sides = rng.choice([-1.0, 0.0, 1.0], size=m)
        psi = []
        for _ in range(p):
            row = []
            for k in range(m):
                M = rng.normal(0.0, 0.3, (n, n))
                Q = sides[k] * (M @ M.T) * rng.integers(0, 2)
                row.append(_quad(n, Q, rng.normal(0.0, 0.5, n),
                                 rng.normal(0.3 * sides[k], 1.0)))
            psi.append(row)
        delta = [_quad(n, -0.1 * np.eye(n), rng.normal(0.0, 0.3, n),
                       rng.uniform(-0.5, 1.5)) for _ in range(p)]
        out[f"seeded-{seed}-n{n}m{m}p{p}"] = (
            hc.StackedMap(psi, delta), _box(*rng.uniform(0.5, 1.5, n)),
            hc.InputSet(box=(-np.ones(m), np.ones(m))))
    return out


def _line(psi, delta, input_set, U):
    """A stack on the hull [-1, 1] from (slope, offset) pairs, with
    (Q, slope, offset) for a quadratic entry, plus its vertex inputs."""
    def entry(spec):
        Q = [[spec[0]]] if len(spec) == 3 else None
        return _quad(1, Q, [spec[-2]], spec[-1])

    return (hc.StackedMap([[entry(e) for e in row] for row in psi],
                          [entry(e) for e in delta]),
            hc.Hull([[-1.0], [1.0]]), input_set, np.asarray(U, dtype=float))


def stage_paths():
    """{label: (stack, hull, input_set, vertex_inputs)}: each reaches a
    failure branch of the endpoint or the interval stage past column 0."""
    box2 = hc.InputSet(box=([-1.0, -1.0], [1.0, 1.0]))
    return {
        # column 0 helps everywhere, column 1 is mixed at vertex 1 only,
        # column 2 at both vertices
        "column1-mixed": _line(
            [[(0.0, 1.0), (-1.0, 0.0), (0.0, 1.0)],
             [(0.0, 1.0), (0.0, 1.0), (0.0, -1.0)]], [(0.0, 1.0), (0.0, 1.0)],
            hc.InputSet(box=(-np.ones(3), np.ones(3))),
            [[0.2, 0.1, 0.0], [0.4, -0.3, 0.1]]),
        # coordinate 0's clipped interval is empty before column 1 is mixed
        "empty-before-mixed": _line(
            [[(0.0, 1.0), (1.0, 0.0)], [(0.1, 1.0), (0.0, 1.0)]],
            [(0.0, 1.0), (0.0, 1.0)],
            hc.InputSet(box=([-1.0, -1.0], [0.5, 1.0])), [[0.9, 0.0], [0.7, 0.0]]),
        # no box: the interval is unbounded, the endpoint has no bound to take
        "polytope-only": _line(
            [[(0.2, 1.0), (0.0, -1.0)], [(0.0, 0.5), (0.1, -0.5)]],
            [(0.0, 2.0), (0.3, 1.0)],
            hc.InputSet(polytope=([[1.0, 1.0], [-1.0, 0.0], [0.0, 1.0]],
                                  [1.0, 1.0, 1.0])), [[0.1, 0.2], [0.3, -0.1]]),
        # both columns help: the corner (1, 1) and the box leave u0 + u1 <= 0.5
        "leaves-polytope": _line(
            [[(0.0, 1.0), (0.5, 1.0)], [(0.1, 0.5), (0.0, 0.2)]],
            [(0.0, 0.5), (0.0, 0.5)],
            hc.InputSet(box=([-1.0, -1.0], [1.0, 1.0]),
                        polytope=([[1.0, 1.0]], [0.5])), [[0.4, 0.4], [0.3, 0.2]]),
        # a column that helps at one vertex and hurts at the other has no
        # uniform sign, but the interval [u^0, u^1] certifies
        "interval-wins": _line(
            [[(-1.0, 0.0)], [(-2.0, 0.0)]], [(0.0, 2.0), (0.0, 2.0)],
            hc.InputSet(box=([-1.0], [1.0])), [[0.1], [0.3]]),
        # a zero column pins its coordinate to the vertex inputs
        "zero-column": _line(
            [[(0.0, 0.0), (0.2, 1.0)], [(0.0, 0.0), (0.0, 0.5)]],
            [(0.0, 0.5), (0.1, 0.2)], box2, [[0.3, 0.6], [0.3, 0.1]]),
        # a concave column whose cone u >= 0 misses the box [-2, -1]
        "cone-miss": _line(
            [[(-1.0, 0.0, 3.0)], [(0.0, 0.5)]], [(0.0, 5.0), (0.0, 2.0)],
            hc.InputSet(box=([-2.0], [-1.0])), [[-1.5], [-1.2]]),
        # column 0 is concave, column 1 mixes a convex and a concave entry
        "a3-column1": _line(
            [[(-1.0, 0.0, 3.0), (1.0, 0.0, 1.0)], [(0.0, 1.0), (-1.0, 0.0, 2.0)]],
            [(0.0, 1.0), (0.0, 1.0)], box2, [[0.5, 0.1], [0.4, -0.2]]),
        # an affine and a convex column, both negative: nonpos endpoints
        "nonpos-columns": _line(
            [[(0.2, -1.0), (1.0, 0.0, -3.0)], [(0.0, -0.5), (0.5, 0.0, -2.0)]],
            [(0.0, 2.0), (0.0, 2.5)], box2, [[-0.8, -0.9], [-0.5, -0.7]]),
    }


def problems():
    """{label: (stack, hull, input_set, vertex_inputs or None)}."""
    refs = {"example1": cases.example1_reference_vertex_inputs(),
            "case1": cases.case1_reference_vertex_inputs(),
            "case2": np.tile(cases.case2_reference_witness(), (8, 1)),
            "case3": cases.case3_reference_vertex_inputs()}
    out = {}
    for name in cases.CASE_NAMES:
        prob = cases.get_problem(name)
        args = (prob.stack, prob.hull, prob.input_set)
        out[name] = args + (None,)
        out[f"{name}+inputs"] = args + (refs[name],)
    rng = np.random.default_rng(5)
    for n, m, rho, varying in CORRIDORS:
        args = corridor(1, n, m, rho, varying)
        label = f"corridor-n{n}m{m}-{'varying' if varying else 'const'}-rho{rho}"
        out[label] = args + (_vertex_inputs(rng, args[1], args[2]),)
    for label, args in quadratic_stacks().items():
        out[label] = args + (_vertex_inputs(rng, args[1], args[2]),)
    out.update(stage_paths())
    return out


def _outcome_bytes(cert, diag) -> bytes:
    # repr of a float round-trips its bits, so JSON text keeps every bit
    return json.dumps({"certificate": None if cert is None else cert.to_dict(),
                       "diagnostics": diag}, sort_keys=True).encode()


def outcome_digests() -> dict:
    """{label: {"method", "sha256"}} over the default cascade and each stage."""
    out = {}
    for label, (stack, hull, input_set, U) in problems().items():
        h = hashlib.sha256()
        cert, diag = hc.certify(stack, hull, input_set, vertex_inputs=U)
        h.update(_outcome_bytes(cert, diag))
        for stage in STAGES:
            h.update(_outcome_bytes(*hc.certify(stack, hull, input_set,
                                                vertex_inputs=U, order=(stage,))))
        out[label] = {"method": diag["method"], "sha256": h.hexdigest()}
    return out


def test_certify_outcomes_match_the_pinned_digests():
    want = json.loads(DIGESTS.read_text())
    got = outcome_digests()
    assert got.keys() == want.keys()
    for label, entry in want.items():
        assert got[label] == entry, label
    # the pinned set reaches every verdict of the cascade
    assert {"endpoint_rule", "cpc_interval", "cpc_common", "cpc_blend",
            None} <= {e["method"] for e in want.values()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_certify_outcomes.py --write")
    DIGESTS.write_text(json.dumps(outcome_digests(), indent=1, sort_keys=True) + "\n")
