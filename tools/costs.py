"""Print `checks._COST_S` and `checks._FILL_S` from one timed `verify --suite
all --threads 1`.

    PYTHONPATH=src python3 tools/costs.py

Runs every registry check in this process (`checks.run_suite(...,
threads=1)`), timing each `mellin._stream` call, and prints both tables as
Python dict literals, costliest first, to paste into src/moebius/checks.py:
a check's elapsed_ms, and a stream's seconds keyed by its (jumps, T)
(`mellin.stream_of`).  A task then costs its streams plus its checks.
Seconds are to two places; checks under 0.05 s are left out.
"""

from __future__ import annotations

import sys
import time

from moebius import checks, mellin


def costs() -> tuple[dict, dict]:
    fills, stream = {}, mellin._stream

    def timed(tts):
        t0 = time.perf_counter()
        stream(tts)
        key = mellin.stream_of((tts[0].weight, tts[0].T))
        fills[key] = fills.get(key, 0.0) + time.perf_counter() - t0

    mellin._stream = timed
    try:
        reports = checks.run_suite(checks.registry_names(), threads=1)
    finally:
        mellin._stream = stream
    elapsed = sorted(((r.check, round(r.elapsed_ms / 1e3, 2)) for r in reports),
                     key=lambda kv: -kv[1])
    return ({name: s for name, s in elapsed if s >= 0.05},
            {key: round(s, 2) for key, s in sorted(fills.items(), key=lambda kv: -kv[1])})


def main() -> int:
    cost, fill = costs()
    print("_COST_S = {" + ", ".join(f'"{name}": {s!r}' for name, s in cost.items()) + "}")
    print("_FILL_S = {" + ", ".join(f"({jumps!r}, {T!r}): {s!r}"
                                    for (jumps, T), s in fill.items()).replace("'", '"') + "}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
