"""hullcert benchmark: one workload per process, single-threaded.

Run from the repository root:

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 25 --trace 0

The workload's ops are generated from ``--seed`` (see ``workloads.py``) and
run in rounds over the op list until ``--seconds`` have been spent (see
``run_rounds``).  The outputs of the first round are checked outside the
timed region (``checks.py``), and every later call must reproduce them.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds run
metadata and the workload-specific figures.

With ``--trace 0`` the metrics are the end-to-end ones:

  setup_s       median over SETUP_LAUNCHES fresh interpreters of the time
                from launch to the first timed op (``import hullcert``,
                ``import scipy.spatial``, input generation, one warm-up op),
                each scaled by the speed that launch measured right after
  peak_rss_mb   peak resident memory of this process
  op_p50_ms     median over ops of each op's latency, the median of its
                calls, each scaled by the machine's speed just before the call
  op_tail_ms    the highest of p99.9/p99/p95/p90/p75/p50 of the same
                per-op latencies that leaves at least ten ops above it
  items_per_s   work items done per second of those per-op latencies:
                certify calls, hull samples, verified partitions or
                control steps

Every time above is scaled to a machine where ``speed.reference()`` takes
``speed.NOMINAL_S`` (see ``speed.py``: a shared machine's speed drifts by
far more than the bounds); the detail line also gives the raw per-op
latencies and the reference time measured.

With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer ones from ``layers.py``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the benchmark measures single-threaded library code, and
# nproc is small.  Must be set before numpy is first imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("certify-mix", "oracle-scan", "explicit-synth", "closed-loop")
SETUP_LAUNCHES = 5
PROBE_REFS = 25
MIN_ROUNDS = 2
MIN_SAMPLES = 2
STRIDE_S = 0.05
MAX_STRIDE = 4
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PROBE_TIMEOUT = 60


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= 10.0:
            return q
    return TAIL_LADDER[-1]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small ops per workload, for the self-check")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Launch fresh interpreters that set up and warm up, then exit.

    Returns each launch's time to its first op and the median
    ``speed.reference()`` time the launch measured right after.
    """
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    launches = 2 if args.tiny else SETUP_LAUNCHES
    times, refs = [], []
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
        refs.append(float(rest))
    return times, refs


def set_up(args):
    """Everything a launch pays before its first timed op."""
    t0 = time.perf_counter()
    import hullcert  # noqa: F401
    t1 = time.perf_counter()
    import scipy.spatial  # noqa: F401
    t2 = time.perf_counter()
    import workloads

    wl = workloads.make(args.workload, args.seed, tiny=args.tiny)
    wl.ops[0].run()  # warm-up
    if wl.filter_log is not None:
        wl.filter_log.clear()
    return wl, {"import.hullcert_s": t1 - t0, "import.scipy_spatial_s": t2 - t1}


def run_rounds(wl, seconds: float, min_rounds: int, on_op=None, spread=False):
    """Timed passes over the op list until ``seconds`` are spent.

    Returns (latencies [rounds][ops], ``speed.reference()`` times taken
    just before each call [rounds][ops], first-round outputs, digests
    [rounds][ops], exceptions by op index, calls made per op); an op that
    sat a round out has latency and reference time nan and digest None
    there.

    The first round runs every op.  With ``spread``, later rounds run an op
    only every ``ceil(latency / STRIDE_S)``-th round (at most MAX_STRIDE),
    staggered by op index, so rounds are short and each cheap op is timed
    many times over the whole run, while every op is still timed at least
    MIN_SAMPLES times.
    """
    n = len(wl.ops)
    latencies, refs, digests = [], [], []
    first = [None] * n
    errors: dict[int, str] = {}
    stride = [1] * n
    calls = [0] * n
    # A fixed shuffle spreads each kind of op over the whole round.
    order = random.Random(0).sample(range(n), n)
    started = time.perf_counter()
    while True:
        r = len(latencies)
        round_lat = [float("nan")] * n
        round_ref = [float("nan")] * n
        round_dig = [None] * n
        for i in order:
            if (r + i) % stride[i]:
                continue
            op = wl.ops[i]
            if on_op is not None:
                on_op(i)
            calls[i] += 1
            round_ref[i] = speed.reference()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising op is a failed op
                round_lat[i] = time.perf_counter() - t0
                round_dig[i] = ("raised", type(exc).__name__)
                errors.setdefault(i, f"{type(exc).__name__}: {exc}")
                continue
            round_lat[i] = time.perf_counter() - t0
            if r == 0:
                first[i] = out
            round_dig[i] = op.summary(out)
        if spread and r == 0:
            stride = [min(MAX_STRIDE, max(1, math.ceil(t / STRIDE_S)))
                      for t in round_lat]
        latencies.append(round_lat)
        refs.append(round_ref)
        digests.append(round_dig)
        spent = time.perf_counter() - started
        enough = len(latencies) >= min_rounds and (
            not spread or min(calls) >= MIN_SAMPLES)
        if enough and spent + spent / len(latencies) > seconds:
            return latencies, refs, first, digests, errors, calls


def check_ops(wl, first, digests, errors) -> dict[int, str]:
    """Reasons by op index for every op that raised, was wrong, or did not
    reproduce its first-round output."""
    bad = dict(errors)
    for i, op in enumerate(wl.ops):
        if i in bad:
            continue
        if any(d[i] not in (None, digests[0][i]) for d in digests[1:]):
            bad[i] = "output differs between rounds"
            continue
        try:
            why = op.check(first[i])
        except Exception as exc:  # a check that cannot run is a failure
            why = f"check raised {type(exc).__name__}: {exc}"
        if why:
            bad[i] = why
    return bad


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def metadata(args, wl, rounds: int, tail_q: float | None = None) -> dict:
    import scipy

    info = {"workload": args.workload, "seed": args.seed,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": _nproc(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "ops": len(wl.ops), "rounds": rounds, "item": wl.item}
    if tail_q is not None:
        info["op_tail_percentile"] = tail_q
        info["op_tail_ops_beyond"] = len(wl.ops) * (100.0 - tail_q) / 100.0
    return info


def end_to_end(args, wl, setup_runs, latencies, refs, first, bad):
    lat = np.array(latencies)               # [rounds, ops], nan = not run
    ref = np.array(refs)
    per_op = np.nanmedian(lat * (speed.NOMINAL_S / ref), axis=0)
    raw_op = np.nanmedian(lat, axis=0)
    setup = statistics.median(t * speed.NOMINAL_S / r
                              for t, r in zip(*setup_runs))
    tail_q = tail_percentile(per_op.shape[0])
    items = np.array([op.items(out) if out is not None else 0
                      for op, out in zip(wl.ops, first)], dtype=float)
    ok = np.array([i not in bad for i in range(len(wl.ops))])
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_p50_ms": (float(np.median(per_op)) * 1e3, "ms"),
        "op_tail_ms": (float(np.percentile(per_op, tail_q)) * 1e3, "ms"),
        "items_per_s": (float(items[ok].sum() / per_op.sum()), "1/s"),
    }
    rate_name = {"certify-mix": "certs_per_s", "oracle-scan": "samples_per_s",
                 "explicit-synth": "partitions_per_s",
                 "closed-loop": "steps_per_s"}[args.workload]
    detail = {rate_name: (metrics["items_per_s"][0], "1/s"),
              "failed_frac": (len(bad) / len(wl.ops), "ratio"),
              "setup_launches_s": ([round(t, 4) for t in setup_runs[0]], "s"),
              "raw_op_p50_ms": (float(np.median(raw_op)) * 1e3, "ms"),
              "raw_op_tail_ms": (float(np.percentile(raw_op, tail_q)) * 1e3, "ms"),
              "reference_ms": (float(np.nanmedian(ref)) * 1e3, "ms"),
              "reference_nominal_ms": (speed.NOMINAL_S * 1e3, "ms")}
    if wl.extra is not None:
        detail.update(wl.extra([out for out in first if out is not None]))
    if wl.filter_log:
        calls = np.array(wl.filter_log)
        q = tail_percentile(calls.shape[0])
        detail["filter_p50_us"] = (float(np.median(calls)) * 1e6, "us")
        detail["filter_tail_us"] = (float(np.percentile(calls, q)) * 1e6, "us")
        detail["filter_tail_percentile"] = (q, "percentile")
        detail["filter_calls"] = (int(calls.shape[0]), "count")
    return metrics, detail, lat.shape[0], tail_q


def _fmt(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hullcert" / "__init__.py").is_file():
        print(f"error: hullcert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        print(statistics.median(speed.reference() for _ in range(PROBE_REFS)))
        return 0

    setup_runs = ([], []) if args.trace else measure_setup(args)
    wl, import_times = set_up(args)

    if args.trace:
        import layers
        return layers.traced_run(args, wl, import_times, run_rounds, check_ops,
                                 metadata)

    latencies, refs, first, digests, errors, calls = run_rounds(
        wl, args.seconds, MIN_ROUNDS, spread=True)
    bad = check_ops(wl, first, digests, errors)
    metrics, detail, rounds, tail_q = end_to_end(args, wl, setup_runs, latencies,
                                                 refs, first, bad)
    info = metadata(args, wl, rounds, tail_q)
    info["failures"] = {wl.ops[i].label: why for i, why in sorted(bad.items())}
    print(json.dumps({"metadata": info, "workload_metrics": _fmt(detail)}))
    print(json.dumps({"correct": not bad, "attempted": sum(calls),
                      "failed": sum(calls[i] for i in bad),
                      "metrics": _fmt(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
