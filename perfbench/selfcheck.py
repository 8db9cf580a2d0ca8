"""Self-check of the benchmark on tiny inputs.

    python3 perfbench/selfcheck.py

Runs every workload on a few small ops, untraced and traced, and asserts
that each metric named in BENCHMARK.json is printed with its unit, and
that no op failed.  Exits 1 and names each problem otherwise.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 300


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def problems(result: dict, wanted: list) -> list:
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None:
            found.append(f"missing {spec['name']}")
        elif got.get("unit") != spec["unit"]:
            found.append(f"{spec['name']} has unit {got.get('unit')!r}, "
                         f"expected {spec['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)):
            found.append(f"{spec['name']} is not a number")
    extra = set(metrics) - {spec["name"] for spec in wanted}
    if extra:
        found.append(f"unlisted metrics {sorted(extra)}")
    if result.get("failed") != 0 or not result.get("correct"):
        found.append(f"{result.get('failed')} of {result.get('attempted')} ops failed")
    return found


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                found = problems(run(workload, trace), bench[key])
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                found = [str(exc)]
            status = "ok" if not found else "FAIL: " + "; ".join(found)
            print(f"{workload:15s} trace={trace}  {status}")
            bad += bool(found)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
