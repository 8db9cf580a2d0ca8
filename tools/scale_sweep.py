"""Time ``certify`` on seeded corridor box hulls as the state dimension n grows.

Run from the repository root:

    python3 tools/scale_sweep.py [--max-n N]

Each slot is one ``certify`` call on the corridor problem of
``tests/test_lp_bits.py`` (a box hull with N = 2^n vertices, m = 2 inputs
and four two-sided corridor rows), with constant Psi at n = 2..8 and radii
0.6, 1.2 and 3.0, and with state-varying Psi at n = 2..6 and radii 0.6 and
1.5, each for seeds 1-3.  Every slot runs in its own process, which prints
one line: the slot, the seconds ``certify`` took (the best of up to
``REPEATS`` calls that stop once 0.5 s have passed, so fast slots are timed
more than once), the method that certified (None when none did) and the
process's peak resident memory (VmHWM).
``--max-n`` drops the slots above that n.  The harness asserts nothing about
time; compare two source trees by running it in each.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, as perfbench/run.py sets it, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
M = 2
SEEDS = (1, 2, 3)
REPEATS = 5
SLOTS = [("const", n, rho) for n in range(2, 9) for rho in (0.6, 1.2, 3.0)]
SLOTS += [("varying", n, rho) for n in range(2, 7) for rho in (0.6, 1.5)]


def peak_mb() -> float:
    """This process's peak resident memory in MB (VmHWM where /proc has it)."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) / 1024
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_slot(kind: str, n: int, rho: float, seed: int) -> str:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import hullcert as hc
    from test_lp_bits import corridor

    prob = corridor(seed, n, M, rho, kind == "varying")
    times: list[float] = []
    while len(times) < REPEATS and sum(times) < 0.5:
        start = time.perf_counter()
        _, diag = hc.certify(*prob)
        times.append(time.perf_counter() - start)
    return (f"{kind:7s} n={n} m={M} rho={rho:.1f} seed={seed}  {min(times):9.4f} s "
            f"(best of {len(times)})  {str(diag['method']):10s}  {peak_mb():7.1f} MB")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=8, help="skip slots above this n")
    ap.add_argument("--slot", nargs=4, metavar=("KIND", "N", "RHO", "SEED"),
                    help=argparse.SUPPRESS)  # one slot, in this process
    args = ap.parse_args(argv)
    if args.slot:
        kind, n, rho, seed = args.slot
        print(run_slot(kind, int(n), float(rho), int(seed)), flush=True)
        return 0
    for kind, n, rho in SLOTS:
        if n > args.max_n:
            continue
        for seed in SEEDS:
            subprocess.run([sys.executable, __file__, "--slot", kind, str(n), str(rho),
                            str(seed)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
