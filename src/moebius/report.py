"""Report serialization: one JSON object per BoundReport, CSV with one row
per grid cell, and radius-aware number rendering (print only the digits the
radius justifies).

Field order is fixed and numbers are rendered deterministically, so identical
configuration yields byte-identical output; elapsed_ms is the one
run-dependent field and is zeroed under stable=True.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .approx import render_value
from .checks import BoundReport


def _round_sig(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(x)
    return x


def report_to_dict(r: BoundReport, stable: bool = False) -> dict:
    return {
        "check": r.check,
        "grid": {k: _jsonable(v) for k, v in r.grid.items()},
        "worst": _round_sig(r.worst),
        "location": {k: _jsonable(v) for k, v in r.worst_location.items()},
        "pass": bool(r.passed),
        "rigor": r.rigor,
        "elapsed_ms": 0.0 if stable else round(r.elapsed_ms, 3),
    }


def _jsonable(v):
    if isinstance(v, complex):
        return f"{v.real}{v.imag:+}i"
    if isinstance(v, float):
        return _round_sig(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def reports_to_json(reports: list[BoundReport], stable: bool = False,
                    include_payload: bool = False) -> str:
    objs = []
    for r in reports:
        d = report_to_dict(r, stable)
        if include_payload and r.payload:
            d["payload"] = _jsonable(r.payload)
        objs.append(d)
    return json.dumps(objs, separators=(", ", ": "), indent=1)


def reports_to_csv(reports: list[BoundReport]) -> str:
    """Flat export: one row per grid cell (cell params, residual/margin, radius)."""
    keys: list[str] = ["check"]
    seen = set(keys)
    rows = []
    for r in reports:
        for cell in r.cells:
            row = {"check": r.check}
            for k, v in cell.items():
                if k not in seen:
                    seen.add(k)
                    keys.append(k)
                row[k] = _jsonable(v)
            rows.append(row)
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=keys, restval="", lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


#: the snapshot fields, in the order both renderings print them by default
_SNAPSHOT_FIELDS = ["M", "m", "m_check", "m_dcheck", "m1", "H", "H_check"]


def format_snapshot(snap, fields: list[str] | None = None) -> str:
    """Human-readable snapshot with radius-aware digit counts."""
    fields = fields or _SNAPSHOT_FIELDS
    lines = [f"x = {snap.x}"]
    for f in fields:
        if f == "M":
            lines.append(f"M        = {snap.M} (exact)")
            continue
        av = getattr(snap, f)
        lines.append(f"{f:8s} = {render_value(av.value, av.radius)} [{av.rigor}]")
    return "\n".join(lines)


def snapshot_to_dict(snap, fields: list[str] | None = None) -> dict:
    fields = fields or _SNAPSHOT_FIELDS
    out = {"x": _round_sig(float(snap.x))}
    for f in fields:
        if f == "M":
            out["M"] = snap.M
            continue
        av = getattr(snap, f)
        out[f] = {"value": render_value(av.value, av.radius),
                  "radius": _round_sig(float(av.radius)), "rigor": av.rigor}
    return out
