"""tools/benchwalk.py's call counts: a count that repeats where wall time
drifts."""

import importlib
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_call_counts_repeat_within_1e_4(monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "tools"))
    benchwalk = importlib.import_module("benchwalk")
    argv = ["verify", "--suite", "k2", "--threads", "1", "--stable-output"]
    first, second = (benchwalk.calls(_ROOT, argv) for _ in range(2))
    assert first > 10_000
    assert abs(first - second) <= 1e-4 * first
