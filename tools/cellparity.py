"""Cell-by-cell parity of two runs of `moebius verify`.

    PYTHONPATH=<checkout>/src python3 tools/cellparity.py dump OUT.json \\
        verify --suite all --threads 1 --stable-output --payload
    python3 tools/cellparity.py compare OLD.json NEW.json

`dump` runs the CLI in-process with the given argv (its usual report goes to
stdout) and writes every report's pass, rigor and cells, with the cells'
numbers unrounded, to OUT.json; the CLI's own JSON has no cells.  Run it once
per checkout, with PYTHONPATH pointing at that checkout's src.

`compare` prints one line per check: whether pass, rigor and cell count are
the same, the largest new/old cell radius ratio and where it is, the
smallest (each printed in full, so a one-ulp growth shows), the number of
values that moved outside the old value +- the old cell's radius, and the
number that changed in any bit, inside the radius or not; then one line per
moved value, and one line per cell whose key list differs from the old
cell's ("keys reordered"), since CSV columns follow the cells' key order.  A
value is any number in a cell other than its radius; numbers equal in both
runs, such as the cell's parameters, never count as moved or changed.  The
exit status is 0 when every check matches, no value moved, no cell's keys were
reordered and no radius grew (every new/old ratio <= 1), else 1: a value that
changed inside the old radius is counted, not failed.
"""

from __future__ import annotations

import json
import math
import sys


def _plain(v):
    """A cell entry as JSON: complex numbers become [re, im]."""
    if hasattr(v, "item"):
        v = v.item()  # numpy scalar
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, complex):
        return [v.real, v.imag]
    if hasattr(v, "imag"):  # mpmath mpf / mpc
        return _plain(complex(v) if v.imag else float(v))
    return repr(v)


def dump(out_path: str, argv: list[str]) -> int:
    from moebius import cli

    captured = []
    run_suite = cli.run_suite

    def recording(*args, **kwargs):
        reports = run_suite(*args, **kwargs)
        captured.extend(reports)
        return reports

    cli.run_suite = recording
    try:
        rc = cli.main(argv)
    finally:
        cli.run_suite = run_suite
    runs = [{"check": r.check, "pass": bool(r.passed), "rigor": r.rigor,
             "cells": _plain(r.cells)} for r in captured]
    with open(out_path, "w") as f:
        json.dump(runs, f, indent=1)
    return rc


def _number(v):
    """v as a complex number, or None if it is not numeric."""
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return complex(v)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)):
        return complex(v[0], v[1])
    return None


def _same(a: complex, b: complex) -> bool:
    return a == b or (math.isnan(abs(a)) and math.isnan(abs(b)))


def _moved(old: dict, new: dict) -> list[str]:
    """Entries of a cell that changed beyond the old cell's radius."""
    radius = _number(old.get("radius"))
    out = []
    for key in sorted(set(old) | set(new)):
        if key == "radius":
            continue
        a, b = old.get(key), new.get(key)
        na, nb = _number(a), _number(b)
        if na is not None and nb is not None:
            if _same(na, nb):
                continue
            if radius is not None and abs(nb - na) <= radius.real:
                continue
            out.append(f"{key}: {a!r} -> {b!r} (old radius {old.get('radius')!r})")
        elif a != b:
            out.append(f"{key}: {a!r} -> {b!r}")
    return out


def _changed(old: dict, new: dict) -> int:
    """Entries of a cell other than its radius whose bits differ (repr of a
    float round-trips, so equal reprs are equal bits)."""
    return sum(repr(old.get(key)) != repr(new.get(key))
               for key in set(old) | set(new) if key != "radius")


def _ratio(old: dict, new: dict) -> float:
    a, b = _number(old.get("radius")), _number(new.get("radius"))
    if a is None or b is None or _same(a, b):
        return 1.0
    return abs(b) / abs(a) if abs(a) else math.inf


def compare(old_path: str, new_path: str) -> int:
    with open(old_path) as f:
        old_runs = {r["check"]: r for r in json.load(f)}
    with open(new_path) as f:
        new_runs = {r["check"]: r for r in json.load(f)}
    bad = False
    for check in sorted(set(old_runs) | set(new_runs)):
        old, new = old_runs.get(check), new_runs.get(check)
        if old is None or new is None:
            print(f"{check}: only in {'new' if old is None else 'old'} run")
            bad = True
            continue
        same = (old["pass"] == new["pass"] and old["rigor"] == new["rigor"]
                and len(old["cells"]) == len(new["cells"]))
        ratios = [_ratio(a, b) for a, b in zip(old["cells"], new["cells"])]
        where = max(range(len(ratios)), key=ratios.__getitem__, default=None)
        pairs = list(enumerate(zip(old["cells"], new["cells"])))
        moved = [f"  cell {i}: {m}" for i, (a, b) in pairs for m in _moved(a, b)]
        changed = sum(_changed(a, b) for _, (a, b) in pairs)
        reordered = [f"  cell {i}: keys reordered: {list(a)} -> {list(b)}"
                     for i, (a, b) in pairs if list(a) != list(b)]
        grew = max(ratios, default=1.0) > 1.0
        print(f"{check}: {'same' if same else 'DIFFERENT'} pass/rigor/cells "
              f"({new['pass']}, {new['rigor']}, {len(new['cells'])}); radius new/old "
              f"max {max(ratios, default=1.0)!r} at cell {where}"
              f"{' (GREW)' if grew else ''}, "
              f"min {min(ratios, default=1.0)!r}; {len(moved)} values moved, "
              f"{changed} changed in any bit")
        for line in moved + reordered:
            print(line)
        bad |= not same or grew or bool(moved) or bool(reordered)
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "dump":
        return dump(argv[1], argv[2:])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
