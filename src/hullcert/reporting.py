"""Deterministic JSON report emission.

Reports must be byte-identical across runs with the same config and seed,
except for the generation timestamp, which is pinned to a single line by key
order (sorted keys put "_generated" first).
"""
from __future__ import annotations

import json
from datetime import datetime, timezone

import numpy as np


def jsonable(obj):
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_report(path, data: dict) -> None:
    """Write a sorted, indented JSON report; timestamp isolated on line 2."""
    doc = dict(jsonable(data))
    doc["_generated"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
