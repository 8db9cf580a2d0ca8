"""Machine-speed calibration for the timed ops.

The benchmark shares a few cores of a host with other tenants.  On the
machine the bounds were set on (2 vCPUs), the speed of interpreter-bound
code drifts by up to 1.8x over tens of seconds as work lands on the
sibling hardware thread, and CPU time drifts with wall time, so neither a
longer run nor a different clock removes it: two 25 s runs of the same
ops differed by a third.

``reference()`` is fixed work of the same kinds as the library's: a Python
loop over tiny numpy products with dict and float arithmetic, then forty
dense pivots on a 48 x 96 tableau.  It never calls hullcert, so no change
to the library moves it.  It runs just before every timed op, and the op's
latency is scaled by ``NOMINAL_S / reference time``: the result is the
op's latency on a machine where ``reference()`` takes ``NOMINAL_S``.

Measured on that machine over 120 s of oracle-scan ops cut into six 20 s
chunks, this took the spread (IQR over median) of the chunks' median op
latency from 0.13 to 0.04; with a second process hogging the sibling
thread (a Python loop, or a numpy stream over 32 MB), the reference
time rose by up to half while the latency over reference time of a mix
of certify, oracle and rollout ops moved by under 5%.  The exception is
the large joint-blend LPs of certify-mix: under the numpy stream they
slowed by 11% against the reference's 30%, so scaling over-corrects
them (README.md gives the effect on two sets of ten runs).  The raw
latencies and the reference times are printed on the detail line of
every run.
"""
from __future__ import annotations

import time

import numpy as np

# reference() on an unloaded core of the machine the bounds were set on
# (Python 3.11, numpy 2.4); any fixed value works, this one keeps the
# scaled latencies close to milliseconds as measured there
NOMINAL_S = 1.2e-3

_SMALL = np.random.default_rng(0).normal(size=(6, 6))
_TABLEAU = np.random.default_rng(1).uniform(0.1, 1.0, size=(48, 96))


def reference() -> float:
    """Time one pass of the fixed reference work, in seconds."""
    t0 = time.perf_counter()
    acc, seen = 0.0, {}
    for k in range(200):
        row = _SMALL[k % 6]
        acc += float(row @ row) + float(_SMALL[:, k % 6].max())
        seen[k % 17] = acc
        acc = acc * 0.5 + seen[k % 5 if k % 5 in seen else 0] * 1e-3
    tab = _TABLEAU.copy()
    for col in range(40):
        piv = int(np.argmax(tab[:, col]))
        tab[piv] /= tab[piv, col]
        factor = tab[:, col].copy()
        factor[piv] = 0.0
        tab -= np.outer(factor, tab[piv])
        np.clip(tab, -1e3, 1e3, out=tab)
    return time.perf_counter() - t0
