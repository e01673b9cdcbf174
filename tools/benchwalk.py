"""Before and after rows for the exact-arithmetic layers (the piecewise walk
and the rigorous quadrature) and for whole commands, from one machine in one
session.

    python3 tools/benchwalk.py PARENT_REV [--rounds R] [--out FILE]

Writes PARENT_REV's committed files to a temporary directory (`checkout` of
tools/parity.py, removed afterwards), then runs every row R times (default
3), parent and this checkout in turn, the side that runs first alternating
from round to round, each run a fresh process with PYTHONPATH at that
checkout's src:

- layer rows, at precision 128 as a check runs:
  - `integrate_partitions` pieces/s, timed around `piecewise._walk` (one
    piece is one partition piece of one integrand): the terre check's batch
    (54 cells, 108 integrands) at x = 24.99, and mieux-1's integrand
    m(x/t) Q_s(t) / t^2, s = 0.5 + 3i, at x = 50 and 1000.  Each also
    records, as a row of its own (lower is better), the walk's work units
    per call: its combines (one integrand over one run) and spans (one
    accumulator over one stretch of its vectors), or, in a walk without
    runs, its `add_piece` calls (one integrand over one piece);
  - `integrate_abs_kernel` cells/s (one cell is one unit cell [K, K+1), as
    perfbench counts `quadrature.cells`), timed around the call: the head
    [1, 55] of q-l1 at rho_1 = 0.5 + 14.13i with radius 0.45 * 0.12, as the
    exact workload's q-l1 runs it.  It also records, as a row of its own
    (lower is better), the `CellKernel.g` evaluations per call, a count
    that does not drift with the host;
  - `truncated_transforms` unit intervals/s (one unit is one interval
    [n, n+1) that meets [x, T], counted per transform), timed around one
    call for derivK2's weight m-check - 1 with its two moments: the stream
    workload's 10 derivK2 cells at seed 7 (its 5 sigmas, x = 1e3 and 1e5,
    T = 4e5) and headline's 4 (sigma = 1.04 and 2, x = 1e3 and 1e5, at
    T = 1e6).  Each transform row also records the process's minor page
    faults during the call (`ru_minflt`) and its peak resident size
    (`ru_maxrss`), counts that drift less than wall time, as rows of their
    own (lower is better);
- end-to-end rows, the wall time of `cli.main(argv)` timed in the process
  after `import moebius.cli`, with its stdout captured, as perfbench/child.py
  times it (so interpreter start, import and compile, about 0.3 s that
  spreads widely, stay out): `verify --suite fast`, `verify --suite terre
  --threads 1`, `verify --suite q-l1 --threads 1`, `verify --suite all
  --threads 1`, `verify --suite all` and `verify --suite alpha,balazard-m`
  (two short checks, so almost all of its wall is forking and collecting
  run_suite's workers), all with --stable-output, and the exact, stream and
  verify-fast workloads' argvs at seed 7 (`perfbench/workloads.make(name,
  7)`), default workers.  A `--threads 1` row whose runs stream also records,
  as a row of its own (lower is better), its `mellin._stream` calls per run
  (one call is one stream of [1, T]; worker processes' calls go uncounted,
  hence only in-process rows).

The JSON written to FILE (default: stdout) holds, per row, every run's value,
each side's median and quartiles (Q1, Q3), change/parent of the medians,
`change_won`, the number of rounds in which the change's run beat the
parent's (a higher rate, or a shorter wall), and the paired per-round
differences change - parent: their median `diff_median` and
`diff_sign_changes`, the number of rounds whose difference has the other
sign.  A row whose medians differ by less than the quartile spread, or that
the change won in only some rounds, is not resolved by its runs.  It also
holds perfbench/run.py's environment record for each checkout, PARENT_REV
resolved to its commit, and this checkout's HEAD with whether its tree
differs from HEAD (its `src_sha256` then names the source that ran).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from parity import ROOT, checkout

LAYER = r"""
import json, math, sys, time
from moebius import piecewise
from moebius.convolution import SequenceSpec, terre_batch
from moebius.kernels import KernelSpec
from moebius.mellin import truncated_transforms
from moebius.piecewise import FunctionSpec, KernelFactor, integrate_m_kernel
from moebius.quadrature import integrate_abs_kernel

spent, units, walk, extra = [0.0], [0], piecewise._walk, {}

def timed(part, integrands, prec):
    t = time.perf_counter()
    out = walk(part, integrands, prec)
    spent[0] += time.perf_counter() - t
    units[0] += (len(part) - 1) * len(integrands)
    return out

piecewise._walk = timed
work = [0]  # the walk's units: combines and spans, or add_piece calls before runs
for owner, name in ([(piecewise, "_combine"), (piecewise, "_span")]
                    if hasattr(piecewise, "_span") else [(piecewise._Integrand, "add_piece")]):
    def counted(*args, _f=getattr(owner, name)):
        work[0] += 1
        return _f(*args)
    setattr(owner, name, counted)
row, x = sys.argv[1], float(sys.argv[2])
if row == "terre":
    seqs = [SequenceSpec.named(n) for n in ("mobius", "one", "alternating")]
    pairs = [(FunctionSpec.const(1.0), FunctionSpec.const(1.0)),
             (FunctionSpec.power(1.0), FunctionSpec.const(1.0)),
             (FunctionSpec.log(1), FunctionSpec.power(1.0)),
             (FunctionSpec.t_log(1), FunctionSpec.power(2.0)),
             (FunctionSpec.power(1.5), FunctionSpec.log(1)),
             (FunctionSpec.power(1.0), FunctionSpec.power(complex(0.5, 3.0)))]
    terre_batch([(a, b, om, ph) for a in seqs for b in seqs for om, ph in pairs], x,
                precision=128)
elif row == "transforms":
    import resource
    cells = [(s, xc, 1) for s, xc in json.loads(sys.argv[3])]
    before, t = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
    truncated_transforms("mcheck1", x, cells)
    spent[0] = time.perf_counter() - t
    units[0] = sum(math.ceil(x) - math.floor(xc) for _, xc, _ in cells)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    extra.update(minflt=usage.ru_minflt - before, maxrss_kib=usage.ru_maxrss)
elif row == "q-l1":
    from moebius.kernels import CellKernel
    g, calls = CellKernel.g, [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return g(*args, **kwargs)

    CellKernel.g = counted
    t = time.perf_counter()
    integrate_abs_kernel(KernelSpec.make("Q", complex(0.5, 14.13)), x, 0.45 * 0.12, 128)
    spent[0], units[0] = time.perf_counter() - t, math.ceil(x) - 1
    extra.update(g_evals=calls[0])
else:
    integrate_m_kernel(x, KernelFactor(KernelSpec.make("Q", 0.5 + 3j), 128), 128)
if row in ("terre", "mieux-1"):
    extra.update(walk_units=work[0])
print(json.dumps({"seconds": spent[0], "units": units[0], **extra}))
"""

CLI = r"""
import contextlib, io, json, sys, time
from moebius import cli, mellin
streams, stream = [0], mellin._stream

def counted(tts):
    streams[0] += 1
    return stream(tts)

mellin._stream = counted
t = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps({"seconds": time.perf_counter() - t, "streams": streams[0]}))
sys.exit(rc)
"""

WALK = "integrate_partitions pieces/s"
STREAMS = "mellin._stream calls per run"
LAYER_ROWS = [(WALK, "terre batch, x = 24.99", "terre", 24.99),
              (WALK, "mieux-1 integrand, x = 50", "mieux-1", 50.0),
              (WALK, "mieux-1 integrand, x = 1000", "mieux-1", 1000.0),
              ("integrate_abs_kernel cells/s", "q-l1 head [1, 55] at rho_1", "q-l1", 55.0)]
TRANSFORMS = "truncated_transforms unit intervals/s"
#: the counts a layer row also records when LAYER reports them: (row name,
#: LAYER key, unit)
COUNTS = [("ru_minflt during the call", "minflt", "count"),
          ("ru_maxrss of the process", "maxrss_kib", "KiB"),
          ("CellKernel.g evaluations per call", "g_evals", "count"),
          ("walk work units per call", "walk_units", "count")]
E2E_ROWS = [("verify --suite fast", ["--suite", "fast"]),
            ("verify --suite terre --threads 1", ["--suite", "terre", "--threads", "1"]),
            ("verify --suite q-l1 --threads 1", ["--suite", "q-l1", "--threads", "1"]),
            ("verify --suite all --threads 1", ["--suite", "all", "--threads", "1"]),
            ("verify --suite all", ["--suite", "all"]),
            ("verify --suite alpha,balazard-m", ["--suite", "alpha,balazard-m"])]


def _run(tree: Path, args: list[str]) -> str:
    """The stdout of `python3 args` with PYTHONPATH at tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def _environment(tree: Path) -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench_run

    return perfbench_run.environment(str(tree), 0)


def _sides(trees: dict, r: int):
    """(side, tree) in round r's order: the parent first in even rounds."""
    items = list(trees.items())
    return items if r % 2 == 0 else items[::-1]


def _workload_argv(name: str) -> list[str]:
    """The verify arguments of benchmark workload `name` at seed 7."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads.make(name, 7)[0][1:]


def _transform_rows() -> list[tuple]:
    """The truncated_transforms layer rows: derivK2's cells in the stream
    workload at seed 7, and headline's cells at T = 1e6."""
    argv = _workload_argv("stream")
    sigmas = [float(s) for s in argv[argv.index("--s") + 1].split(",")]
    grids = [("derivK2's 10 stream cells at seed 7, T = 4e5", 4e5, sigmas),
             ("headline's 4 cells, T = 1e6", 1e6, [1.04, 2.0])]
    return [(TRANSFORMS, label, "transforms", T,
             json.dumps([(s, x) for s in grid for x in (1e3, 1e5)]))
            for label, T, grid in grids]


def bench(parent: Path, rounds: int) -> dict:
    trees = {"parent": parent, "change": ROOT}
    rows = []
    for metric, label, row, x, *cells in [*LAYER_ROWS, *_transform_rows()]:
        runs = {"parent": [], "change": []}
        counts = {key: {"parent": [], "change": []} for _, key, _ in COUNTS}
        for r in range(rounds):
            for side, tree in _sides(trees, r):
                got = json.loads(_run(tree, ["-c", LAYER, row, repr(x), *cells]))
                runs[side].append(got["units"] / got["seconds"])
                for key in counts.keys() & got.keys():
                    counts[key][side].append(got[key])
        rows.append(_row(f"{metric}: {label}", "layer", "1/s", runs, units=got["units"]))
        rows += [_row(f"{name}: {label}", "layer", unit, counts[key])
                 for name, key, unit in COUNTS if key in got]
    workload_rows = [(f"{name} workload argv, seed 7", _workload_argv(name))
                     for name in ("exact", "stream", "verify-fast")]
    for label, argv in [*E2E_ROWS, *workload_rows]:
        runs = {"parent": [], "change": []}
        streams = {"parent": [], "change": []}
        for r in range(rounds):
            for side, tree in _sides(trees, r):
                got = json.loads(_run(tree, ["-c", CLI, "verify", *argv, "--stable-output"]))
                runs[side].append(got["seconds"])
                streams[side].append(got["streams"])
        rows.append(_row(label, "end_to_end", "s", runs))
        if argv[-2:] == ["--threads", "1"] and any(streams["parent"] + streams["change"]):
            rows.append(_row(f"{STREAMS}: {label}", "end_to_end", "count", streams))
    return {"rounds": rounds, "order": "the parent runs first in rounds 1, 3, ..., the change "
                                       "in rounds 2, 4, ...",
            "machine": {side: _environment(tree) for side, tree in trees.items()},
            "rows": rows}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def _quartiles(v: list) -> list:
    """[Q1, Q3] of the runs (statistics.quantiles' default method)."""
    return statistics.quantiles(v, n=4)[::2] if len(v) > 1 else [v[0], v[0]]


def _row(name: str, kind: str, unit: str, runs: dict, **extra) -> dict:
    med = {side: statistics.median(v) for side, v in runs.items()}
    higher = unit == "1/s"  # a rate is better higher, a wall time lower
    won = sum((c > p) if higher else (c < p) for p, c in zip(runs["parent"], runs["change"]))
    diffs = [c - p for p, c in zip(runs["parent"], runs["change"])]
    diff_med = statistics.median(diffs)
    return {"name": name, "kind": kind, "unit": unit, **extra,
            "parent": runs["parent"], "change": runs["change"],
            "parent_median": med["parent"], "change_median": med["change"],
            "parent_quartiles": _quartiles(runs["parent"]),
            "change_quartiles": _quartiles(runs["change"]),
            "change_won": won, "change_over_parent": med["change"] / med["parent"],
            "diff_median": diff_med,
            "diff_sign_changes": sum(d * diff_med < 0 for d in diffs)}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_rev")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out")
    opts = ap.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="benchwalk-"))
    try:
        checkout(opts.parent_rev, tmp / "parent")
        result = {"parent_rev": opts.parent_rev,
                  "parent_commit": _git("rev-parse", opts.parent_rev + "^{commit}"),
                  "change_head": _git("rev-parse", "HEAD"),
                  "change_uncommitted": bool(_git("status", "--porcelain", "--untracked-files=no")),
                  **bench(tmp / "parent", opts.rounds)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    text = json.dumps(result, indent=1) + "\n"
    if opts.out:
        Path(opts.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
