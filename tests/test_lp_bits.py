"""The LP bits of the certify cascade and of a lockstep scan, pinned by digest.

``tests/data/lp_bits_digests.json`` holds one sha256 per problem over every
``solve_lp`` call that ``certify`` makes on seeded corridor problems (status,
``z`` bytes, value bytes, active rows), one over the ``margin_lps`` lanes of
a seeded quadratic scan, and one over the duals of seeded box LPs.  The
corridor problems span n = 2..5, m = 1..2, constant and state-varying Psi,
and radii that end common, blend and uncertified, so they cover phase one
and the 1,120- and 4,224-row joint-blend tableaus.  None of their LPs
leaves an artificial in the basis after phase one; the scan's lanes and the
dual LPs, whose equality rows are written as two inequalities, do, so the
pivot-out of leftover artificials is covered in both kernels.

Regenerate the file (only when a change is meant to move LP bits) with

    PYTHONPATH=src python tests/test_lp_bits.py --write
"""
import hashlib
import json
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np

import hullcert as hc
from hullcert import certificates, explicit, optcore, oracle, problem

DIGESTS = Path(__file__).parent / "data" / "lp_bits_digests.json"

# (n, m, rho, varying): constant Psi is common at rho 0.6, blends at 1.2
# and has no certificate at 3; varying Psi is common at 0.6 and runs the
# full joint-blend LP above that (n=4, m=2: 1,120 rows; n=5, m=2: 4,224)
CORRIDORS = [(n, m, rho, False) for n in (2, 3, 4, 5) for m in (1, 2)
             for rho in (0.6, 1.2, 3.0)]
CORRIDORS += [(n, m, rho, True) for n in (2, 3, 4, 5) for m in (1, 2)
              for rho in (0.6, 1.5)]


def corridor(seed: int, n: int, m: int, rho: float, varying: bool):
    """Box hull with 2m two-sided corridor rows, |a_i'x| <= 1, sized so
    that rho = 1 is the radius where the zero input stops being feasible
    at every vertex; varying Psi adds an input gain affine in x."""
    rng = np.random.default_rng([seed, n, m, int(10 * rho), varying])
    A = rng.normal(0.0, 0.5, (n, n))
    B0 = rng.normal(0.0, 1.0, (n, m))
    a = rng.normal(size=(2 * m, n))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    shape = rng.uniform(0.7, 1.3, n)
    half = shape * rho / (np.abs(a @ (A + np.eye(n))) @ shape).max()
    hull = hc.Hull(np.array(list(product(*[(-h, h) for h in half]))))
    input_set = hc.InputSet(box=(-np.ones(m), np.ones(m)))
    rows = [(s * ai, 1.0, 1.0) for ai in a for s in (1.0, -1.0)]
    if not varying:
        return hc.build_from_lti(A, B0, rows), hull, input_set
    B1 = rng.normal(0.0, 1.0, (n, m, n)) * 0.3 / (n * half.max())
    psi = [[hc.QuadFunc(c=sa @ B1[:, k, :], d=float(sa @ B0[:, k]), n=n)
            for k in range(m)] for sa, _, _ in rows]
    delta = [hc.QuadFunc(c=A.T @ sa + kappa * sa, d=kappa * b, n=n)
             for sa, b, kappa in rows]
    return hc.StackedMap(psi, delta), hull, input_set


def _lp_bits(res) -> bytes:
    z = b"" if res.z is None else np.asarray(res.z, dtype=float).tobytes()
    value = b"" if res.value is None else np.float64(res.value).tobytes()
    rows = np.asarray(res.active_rows, dtype=np.int64).tobytes()
    return b"|".join([res.status.encode(), z, value, rows])


def certify_digests(monkeypatch) -> dict:
    """{label: {"calls", "method", "sha256"}} over certify's solve_lp calls."""
    calls: list = []

    def spy(prob, tol=hc.DEFAULT):
        res = optcore.solve_lp(prob, tol)
        calls.append(_lp_bits(res))
        return res

    for module in (certificates, explicit, problem):
        monkeypatch.setattr(module, "solve_lp", spy)
    out = {}
    for n, m, rho, varying in CORRIDORS:
        calls.clear()
        _, diag = hc.certify(*corridor(1, n, m, rho, varying))
        label = f"n{n}m{m}-{'varying' if varying else 'const'}-rho{rho}"
        out[label] = {"calls": len(calls), "method": diag["method"],
                      "sha256": hashlib.sha256(b"\n".join(calls)).hexdigest()}
    return out


def scan_digest(monkeypatch) -> dict:
    """{"lanes", "sha256"} over the (t, U) of a seeded quadratic scan's
    margin_lps calls: 11^3 box-grid states, so three lockstep chunks."""
    rng = np.random.default_rng(7)
    n, m, p = 3, 2, 4

    def quad(offset):
        return hc.QuadFunc(Q=rng.normal(0.0, 0.15, (n, n)),
                           c=rng.normal(0.0, 0.5, n), d=offset + rng.normal(0.0, 0.2))

    stack = hc.StackedMap([[quad(rng.choice([-1.0, 1.0])) for _ in range(m)]
                           for _ in range(p)], [quad(0.5) for _ in range(p)])
    hull = hc.Hull(np.array(list(product(*[(-h, h) for h in (0.9, 1.2, 0.7)]))))
    input_set = hc.InputSet(box=(-np.ones(m), np.ones(m)),
                            polytope=(np.array([[1.0, 1.0]]), np.array([1.2])))
    lanes: list = []

    def spy(psis, deltas, input_set, tol=hc.DEFAULT):
        t, U = optcore.margin_lps(psis, deltas, input_set, tol)
        lanes.append(t.tobytes() + U.tobytes())
        return t, U

    monkeypatch.setattr(oracle, "margin_lps", spy)
    rep = hc.grid_scan(stack, hull, input_set)
    return {"lanes": rep.n_samples,
            "sha256": hashlib.sha256(b"".join(lanes)).hexdigest()}


def dual_box_digest() -> dict:
    """{"calls", "sha256"} over solve_lp on the duals of random box LPs:
    min b.yA + hi.yU - lo.yL s.t. A'yA + yU - yL = c, y >= 0."""
    rng = np.random.default_rng(2024)
    calls = []
    for _ in range(40):
        nv, nr = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        A = rng.normal(size=(nr, nv))
        lo = rng.uniform(-2.0, 0.0, size=nv)
        hi = lo + rng.uniform(0.5, 3.0, size=nv)
        b = A @ rng.uniform(lo, hi) + rng.uniform(0.0, 1.0, size=nr)
        c = rng.normal(size=nv)
        eq = np.hstack([A.T, np.eye(nv), -np.eye(nv)])
        dual = hc.LpProblem.maximize(-np.concatenate([b, hi, -lo]), np.vstack([eq, -eq]),
                                     np.concatenate([c, -c]), np.zeros(nr + 2 * nv), None)
        calls.append(_lp_bits(hc.solve_lp(dual)))
    return {"calls": len(calls), "sha256": hashlib.sha256(b"\n".join(calls)).hexdigest()}


def all_digests(monkeypatch) -> dict:
    return {"certify": certify_digests(monkeypatch),
            "margin_lps": scan_digest(monkeypatch),
            "dual_box_lps": dual_box_digest()}


def test_lp_bits_match_the_pinned_digests(monkeypatch):
    want = json.loads(DIGESTS.read_text())
    got = all_digests(monkeypatch)
    assert got["margin_lps"] == want["margin_lps"]
    assert got["dual_box_lps"] == want["dual_box_lps"]
    assert got["certify"].keys() == want["certify"].keys()
    for label, entry in want["certify"].items():
        assert got["certify"][label] == entry, label
    # the pinned set reaches every verdict of the cascade
    methods = {e["method"] for e in want["certify"].values()}
    assert {"cpc_common", "cpc_blend", None} <= methods


MEMORY_PROBE = """
import resource, sys
sys.path[:0] = sys.argv[1:3]
import hullcert as hc
from test_lp_bits import corridor
_, diag = hc.certify(*corridor(1, 5, 2, 1.5, True))
assert diag["attempts"][-1]["method"] == "cpc_blend", diag
try:  # this process's own peak: ru_maxrss also counts the parent's pages
    with open("/proc/self/status") as fh:  # that were mapped when it forked
        print(next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")))
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_n5_varying_psi_certify_peak_memory():
    # the joint-blend LP of n=5, m=2 varying Psi has 4,224 coupling and
    # margin rows; a tableau over every column peaked at about 190 MB
    here = Path(__file__).parent
    out = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, str(here.parent / "src"), str(here)],
        capture_output=True, text=True, check=True)
    peak_mb = int(out.stdout.split()[-1]) / 1024
    assert peak_mb < 120.0, f"peak {peak_mb:.0f} MB"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_lp_bits.py --write")
    import pytest  # only here: the memory probe imports this module

    with pytest.MonkeyPatch.context() as mp:
        DIGESTS.write_text(json.dumps(all_digests(mp), indent=1, sort_keys=True) + "\n")
