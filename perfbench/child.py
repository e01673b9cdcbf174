"""One measured CLI invocation in a fresh process.

    python3 perfbench/child.py --argv '<json list>' [--trace] [--import-only]

Run from the checkout root with PYTHONPATH=src.  It times the import of
moebius.cli (with numpy and mpmath), then calls cli.main(argv) with stdout
captured, and prints one JSON line: setup and call times, process CPU time,
peak RSS of this process, the exit code, the output digest, each report's
(check, pass, rigor, cell count) and, with --trace, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--argv", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    opts = ap.parse_args()
    expected_src = os.path.realpath(os.path.join(os.getcwd(), "src", "moebius"))

    t0 = time.perf_counter()
    from moebius import cli
    setup_s = time.perf_counter() - t0
    if os.path.dirname(os.path.realpath(cli.__file__)) != expected_src:
        print(f"moebius imported from {cli.__file__}, not {expected_src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if opts.import_only:
        print(json.dumps(result))
        return 0

    rec = None
    if opts.trace:
        import layertrace
        rec = layertrace.install()
    reports = []
    run_suite = cli.run_suite

    def capture(*args, **kwargs):
        out = run_suite(*args, **kwargs)
        reports.extend(out)
        return out

    cli.run_suite = capture
    buf = io.StringIO()
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(json.loads(opts.argv))
    except Exception:
        rc, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    result.update(
        wall_s=wall_s, cpu_s=cpu_s, rc=rc, error=error,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        verdicts=[[r.check, bool(r.passed), r.rigor, len(r.cells)] for r in reports])
    if rec is not None:
        from workloads import TRACED_CHECKS
        result["layers"] = layertrace.summarize(rec, TRACED_CHECKS)
        result["missing_hooks"] = rec.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
