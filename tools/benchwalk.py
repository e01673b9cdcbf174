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
    m(x/t) Q_s(t) / t^2, s = 0.5 + 3i, at x = 50 and 1000;
  - `integrate_abs_kernel` cells/s (one cell is one unit cell [K, K+1), as
    perfbench counts `quadrature.cells`), timed around the call: the head
    [1, 55] of q-l1 at rho_1 = 0.5 + 14.13i with radius 0.45 * 0.12, as the
    exact workload's q-l1 runs it;
- end-to-end rows, the wall time of the whole process (interpreter start,
  imports and report included): `verify --suite fast`, `verify --suite
  terre --threads 1`, `verify --suite q-l1 --threads 1`, `verify --suite
  all --threads 1` and `verify --suite alpha,balazard-m` (two short checks,
  so almost all of its wall is starting and collecting run_suite's
  workers), all with --stable-output, and the exact and stream workloads'
  argvs at seed 7 (`perfbench/workloads.make(name, 7)`), default workers.

The JSON written to FILE (default: stdout) holds, per row, every run's value,
each side's median and quartiles (Q1, Q3), change/parent of the medians, and
`change_won`, the number of rounds in which the change's run beat the
parent's (a higher rate, or a shorter wall): a row whose medians differ by
less than the quartile spread, or that the change won in only some rounds,
is not resolved by its runs.  It also holds perfbench/run.py's environment
record for each checkout, PARENT_REV resolved to its commit, and this
checkout's HEAD with whether its tree differs from HEAD (its `src_sha256`
then names the source that ran).
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
import time
from pathlib import Path

from parity import ROOT, checkout

LAYER = r"""
import json, math, sys, time
from moebius import piecewise
from moebius.convolution import SequenceSpec, terre_batch
from moebius.kernels import KernelSpec
from moebius.piecewise import FunctionSpec, KernelFactor, integrate_m_kernel
from moebius.quadrature import integrate_abs_kernel

spent, units, walk = [0.0], [0], piecewise._walk

def timed(part, integrands, prec):
    t = time.perf_counter()
    out = walk(part, integrands, prec)
    spent[0] += time.perf_counter() - t
    units[0] += (len(part) - 1) * len(integrands)
    return out

piecewise._walk = timed
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
elif row == "q-l1":
    t = time.perf_counter()
    integrate_abs_kernel(KernelSpec.make("Q", complex(0.5, 14.13)), x, 0.45 * 0.12, 128)
    spent[0], units[0] = time.perf_counter() - t, math.ceil(x) - 1
else:
    integrate_m_kernel(x, KernelFactor(KernelSpec.make("Q", 0.5 + 3j), 128), 128)
print(json.dumps({"seconds": spent[0], "units": units[0]}))
"""

CLI = "import sys; from moebius.cli import main; sys.exit(main(sys.argv[1:]))"

WALK = "integrate_partitions pieces/s"
LAYER_ROWS = [(WALK, "terre batch, x = 24.99", "terre", 24.99),
              (WALK, "mieux-1 integrand, x = 50", "mieux-1", 50.0),
              (WALK, "mieux-1 integrand, x = 1000", "mieux-1", 1000.0),
              ("integrate_abs_kernel cells/s", "q-l1 head [1, 55] at rho_1", "q-l1", 55.0)]
E2E_ROWS = [("verify --suite fast", ["--suite", "fast"]),
            ("verify --suite terre --threads 1", ["--suite", "terre", "--threads", "1"]),
            ("verify --suite q-l1 --threads 1", ["--suite", "q-l1", "--threads", "1"]),
            ("verify --suite all --threads 1", ["--suite", "all", "--threads", "1"]),
            ("verify --suite alpha,balazard-m", ["--suite", "alpha,balazard-m"])]


def _run(tree: Path, args: list[str]) -> tuple[float, str]:
    """(wall seconds, stdout) of `python3 args` with PYTHONPATH at tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return time.perf_counter() - t, done.stdout


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


def bench(parent: Path, rounds: int) -> dict:
    trees = {"parent": parent, "change": ROOT}
    rows = []
    for metric, label, row, x in LAYER_ROWS:
        runs = {"parent": [], "change": []}
        for r in range(rounds):
            for side, tree in _sides(trees, r):
                _, out = _run(tree, ["-c", LAYER, row, repr(x)])
                got = json.loads(out)
                runs[side].append(got["units"] / got["seconds"])
        rows.append(_row(f"{metric}: {label}", "layer", "1/s", runs, units=got["units"]))
    workload_rows = [(f"{name} workload argv, seed 7", _workload_argv(name))
                     for name in ("exact", "stream")]
    for label, argv in [*E2E_ROWS, *workload_rows]:
        runs = {"parent": [], "change": []}
        for r in range(rounds):
            for side, tree in _sides(trees, r):
                runs[side].append(_run(tree, ["-c", CLI, "verify", *argv, "--stable-output"])[0])
        rows.append(_row(label, "end_to_end", "s", runs))
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
    return {"name": name, "kind": kind, "unit": unit, **extra,
            "parent": runs["parent"], "change": runs["change"],
            "parent_median": med["parent"], "change_median": med["change"],
            "parent_quartiles": _quartiles(runs["parent"]),
            "change_quartiles": _quartiles(runs["change"]),
            "change_won": won, "change_over_parent": med["change"] / med["parent"]}


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
