"""tools/cellparity.py compare: exit 0 only when every check matches, no
value moved and no radius grew; every value that changed in any bit is counted."""

import copy
import importlib.util
import json
import math
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "cellparity.py"
_spec = importlib.util.spec_from_file_location("cellparity", _TOOL)
cellparity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cellparity)

RUN = [{"check": "mtronq", "pass": True, "rigor": "rigorous",
        "cells": [{"s": "2.0", "x": 1000.0, "residual": 1e-20, "radius": 1e-12,
                   "pass": True, "rigor": "rigorous"},
                  {"s": "3.0", "x": 1000.0, "residual": 2e-20, "radius": 4e-13,
                   "pass": True, "rigor": "rigorous"}]}]


def _compare(tmp_path, new_run):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(RUN))
    new.write_text(json.dumps(new_run))
    return cellparity.compare(str(old), str(new))


def _changed(edit):
    run = copy.deepcopy(RUN)
    edit(run[0])
    return run


def test_identical_dumps_exit_zero(tmp_path):
    assert _compare(tmp_path, RUN) == 0


def test_tightened_radius_exit_zero(tmp_path):
    assert _compare(tmp_path, _changed(lambda r: r["cells"][1].update(radius=3e-13))) == 0


@pytest.mark.parametrize("edit", [
    lambda r: r["cells"][1].update(radius=4.0000000001e-13),  # a radius grew
    lambda r: r["cells"][0].update(residual=1e-11),           # a value moved
    lambda r: r["cells"].pop(),                                # a cell went missing
], ids=["grown-radius", "moved-value", "cell-count"])
def test_differences_exit_one(tmp_path, edit, capsys):
    assert _compare(tmp_path, _changed(edit)) == 1
    assert "mtronq" in capsys.readouterr().out


def test_reordered_keys_exit_one(tmp_path, capsys):
    def reorder(run):
        cell = run["cells"][0]
        run["cells"][0] = {k: cell[k] for k in ("s", "x", "radius", "residual", "pass", "rigor")}
    assert _compare(tmp_path, _changed(reorder)) == 1
    assert "cell 0: keys reordered" in capsys.readouterr().out


def test_one_ulp_growth_exits_one_and_prints_the_ratio(tmp_path, capsys):
    grown = math.nextafter(RUN[0]["cells"][1]["radius"], math.inf)
    assert _compare(tmp_path, _changed(lambda r: r["cells"][1].update(radius=grown))) == 1
    out = capsys.readouterr().out
    assert "(GREW)" in out and "max 1 at" not in out
    assert f"max {grown / RUN[0]['cells'][1]['radius']!r} at cell 1" in out


def test_value_changed_inside_the_radius_is_counted_not_failed(tmp_path, capsys):
    assert _compare(tmp_path, RUN) == 0
    assert "0 values moved, 0 changed in any bit" in capsys.readouterr().out
    nudged = math.nextafter(RUN[0]["cells"][0]["residual"], math.inf)
    assert _compare(tmp_path, _changed(lambda r: r["cells"][0].update(residual=nudged))) == 0
    assert "0 values moved, 1 changed in any bit" in capsys.readouterr().out

    def both(run):
        run["cells"][0].update(residual=nudged)
        run["cells"][1].update(residual=-0.0)  # 2e-20 from the old value, inside 4e-13
    assert _compare(tmp_path, _changed(both)) == 0
    assert "0 values moved, 2 changed in any bit" in capsys.readouterr().out
