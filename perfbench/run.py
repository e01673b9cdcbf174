"""The repository benchmark: `moebius verify` as a user runs it.

    python3 perfbench/run.py --workload {verify-fast,stream,exact} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Run from the repository root.  Every invocation is a fresh Python process
(perfbench/child.py) that imports moebius.cli from ./src and calls
cli.main(argv) with the CLI defaults (thread pool, cold in-process caches,
MOEBIUS_CACHE_DIR unset).  Invocations repeat, one at a time, until the next
one would overrun S seconds; at least one always runs.  Each invocation's
verdicts are checked against the workload's expected table (workloads.py).

--trace 0 reports the end-to-end metrics, as medians over the invocations:
  wall_s       the cli.main call, until the report is emitted
  setup_s      fresh-process import of moebius.cli with numpy and mpmath,
               median over an import-only process before each invocation
               and the invocations themselves
  peak_rss_mb  peak RSS of the invocation's own process (RUSAGE_SELF)
  correct_frac share of checks whose pass, rigor and cell count match the
               expected table, out of the checks attempted (1 - failed_frac)
--trace 1 alternates untraced and traced invocations and reports the
per-layer metrics of layertrace.py, plus checks.cpu_per_wall (untraced),
checks.distinct_outputs (distinct --stable-output digests among all
invocations of the run) and trace.overhead_s (traced minus untraced wall).

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  Lines before it record the environment, the verdicts and each
metric by name with its unit.  --tiny shrinks every workload for the smoke
test (test_smoke.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s


def metric_units(root: str, key: str) -> dict[str, str]:
    """Metric name -> unit for the "end_to_end" or "per_layer" list of BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


class Runner:
    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("MOEBIUS_CACHE_DIR", None)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def child(self, argv: list[str], trace: bool = False, import_only: bool = False) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--argv", json.dumps(argv)]
        if trace:
            cmd.append("--trace")
        if import_only:
            cmd.append("--import-only")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run deadline reached before an invocation could start")
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"benchmark child exited with {proc.returncode}")
        return json.loads(lines[-1])


def count_failures(res: dict, expected: dict) -> int:
    """Checks of one invocation that went wrong: all of them if the run raised
    or exited non-zero, else those whose (pass, rigor, cells) differ."""
    if res["error"] is not None or res["rc"] != 0:
        sys.stderr.write(res["error"] or f"cli.main returned {res['rc']}\n")
        return len(expected)
    got = {check: [passed, rigor, cells] for check, passed, rigor, cells in res["verdicts"]}
    bad = [c for c in expected if got.get(c) != expected[c]]
    bad += [c for c in got if c not in expected]
    for c in bad:
        print(f"mismatch {c}: got {got.get(c)}, expected {expected.get(c)}", file=sys.stderr)
    return len(bad)


def _sysconf(name: str):
    try:
        v = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return v if v and v > 0 else None


def environment(root: str, seed: int) -> dict:
    import mpmath
    import numpy
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in f
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    nproc = None
    if shutil.which("nproc"):
        out = subprocess.run(["nproc"], capture_output=True, text=True)
        nproc = int(out.stdout) if out.returncode == 0 else None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = out.stdout.strip() if out.returncode == 0 else None
    src = hashlib.sha256()
    pkg = os.path.join(root, "src", "moebius")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": nproc, "os_cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "l2_bytes": _sysconf("SC_LEVEL2_CACHE_SIZE"), "l3_bytes": _sysconf("SC_LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": commit, "src_sha256": src.hexdigest(), "seed": seed,
    }


def run(opts) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "moebius", "cli.py")):
        raise FileNotFoundError("run from the repository root: src/moebius/cli.py not found")
    start = time.monotonic()
    runner = Runner(root, start + DEADLINE_S)
    argv, expected = workloads.make(opts.workload, opts.seed, opts.tiny)
    print("env " + json.dumps(environment(root, opts.seed)))
    print("argv " + json.dumps(argv))

    setups = []
    plain, traced = [], []
    attempted = failed = 0
    t0 = time.monotonic()
    while True:
        # an import-only process before each invocation spreads the set-up
        # samples over the run, so a burst of load on the host skews few of them
        setups.append(runner.child([], import_only=True)["setup_s"])
        trace_next = opts.trace and len(traced) < len(plain)
        res = runner.child(argv, trace=trace_next)
        (traced if trace_next else plain).append(res)
        setups.append(res["setup_s"])
        attempted += len(expected)
        failed += count_failures(res, expected)
        done = len(plain) + len(traced)
        per_call = (time.monotonic() - t0) / done
        enough = plain and (traced or not opts.trace)
        if enough and time.monotonic() - t0 + per_call > opts.seconds:
            break

    for kind, group in (("untraced", plain), ("traced", traced)):
        for res in group:
            print(f"invocation {kind}: wall_s={res['wall_s']:.4f} cpu_s={res['cpu_s']:.4f} "
                  f"rss_mb={res['rss_mb']:.1f} setup_s={res['setup_s']:.4f} "
                  f"digest={res['digest'][:16]}")
            print(f"verdicts {kind} " + json.dumps(res["verdicts"]))
    failed_frac = failed / attempted
    print(f"failed_frac = {failed_frac} ratio ({failed} of {attempted} checks)")

    med = statistics.median
    if opts.trace:
        names = set().union(*(res["layers"] for res in traced))
        metrics = {name: med(res["layers"][name] for res in traced) for name in names}
        metrics["checks.cpu_per_wall"] = med(r["cpu_s"] / r["wall_s"] for r in plain)
        metrics["checks.distinct_outputs"] = len({r["digest"] for r in plain + traced})
        metrics["trace.overhead_s"] = med(r["wall_s"] for r in traced) - med(r["wall_s"] for r in plain)
        missing = sorted(set().union(*(res["missing_hooks"] for res in traced)))
        if missing:
            print("missing trace hooks: " + ", ".join(missing))
        units = metric_units(root, "per_layer")
    else:
        metrics = {
            "wall_s": med(r["wall_s"] for r in plain),
            "setup_s": med(setups),
            "peak_rss_mb": med(r["rss_mb"] for r in plain),
            "correct_frac": 1.0 - failed_frac,
        }
        units = metric_units(root, "end_to_end")
    print(f"samples: {len(plain)} untraced, {len(traced)} traced invocations, "
          f"{len(setups)} setup samples")
    out = {}
    for name, unit in units.items():
        value = float(metrics.get(name, 0.0))
        print(f"{name} = {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    opts = ap.parse_args()
    try:
        result = run(opts)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
