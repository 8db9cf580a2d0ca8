"""Hash the first-round output of every op of the benchmark's gated workloads.

Run from the repository root:

    python3 tools/output_digests.py --seed 1 [--seed 2 ...] [--tiny] [--workload W]

The ops are built by ``perfbench/workloads.py`` exactly as the benchmark
builds them, and each is called once.  Every output is hashed by its raw
bits: float arrays and scalars by their bytes, and a certify call's
certificate and diagnostics, scan reports and trajectories through every
field.  One line is printed per op, ``workload seed index
label sha256``, then ``total sha256`` over all lines, so two source trees
that print the same lines computed the same bits.  Without ``--workload``
the workloads listed in ``BENCHMARK.json`` are hashed.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

# as in perfbench/run.py: one BLAS thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def feed(h, obj) -> None:
    """Add ``obj`` to the hash ``h`` by type tag and raw bits."""
    if isinstance(obj, np.ndarray) and obj.dtype != object:
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.ndarray):
        feed(h, obj.tolist())
    elif obj is None or isinstance(obj, (bool, np.bool_, str)):
        h.update(f"{type(obj).__name__}:{obj}\0".encode())
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}\0".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + np.float64(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}".encode())
        for key in sorted(obj, key=str):
            feed(h, key)
            feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            feed(h, item)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    else:
        raise TypeError(f"cannot hash a {type(obj).__name__}")


def op_digests(workload: str, seed: int, tiny: bool):
    """(index, label, sha256) of each op's first output."""
    for k, op in enumerate(workloads.make(workload, seed, tiny=tiny).ops):
        h = hashlib.sha256()
        feed(h, op.run())
        yield k, op.label, h.hexdigest()


def main(argv=None) -> int:
    gated = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--workload", action="append", choices=sorted(workloads.GENERATORS))
    ap.add_argument("--tiny", action="store_true", help="every 9th generated op only")
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    for workload in args.workload or gated:
        for seed in args.seed:
            for k, label, digest in op_digests(workload, seed, args.tiny):
                line = f"{workload} {seed} {k} {label} {digest}"
                print(line, flush=True)
                total.update(line.encode() + b"\n")
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
