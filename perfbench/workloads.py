"""Benchmark workloads: the CLI argv each one runs and the verdicts it must give.

Every workload is one `moebius verify` invocation.  The seed draws the inputs
the workload is allowed to vary; the program sees only the generated argv.
The expected table maps each check id to (pass, rigor, cell count).  Verdicts,
not output digests, define a failure, so a later change may tighten radii.

Each workload is sized to take a few seconds, so that one run holds several
invocations and its median is steady on a small shared machine.  Why these
three:

- verify-fast is `verify --suite fast`, the command users and CI run, with
  the x grids cut to 10 and 50 (the registry goes up to 1e5).  All 16 checks
  still run, every module does a little of the work, on the default thread
  pool over mostly GIL-bound mpmath checks, and headline still streams
  derivK2.  It is the regression guard; its argv is the same for every seed.
- stream runs 20 truncated-transform cells (mtronq and derivK2 over 5 drawn
  sigmas and the registry x grids).  Each cell re-sieves and re-streams
  [1, T] through numpy (sieve, compensated_cumsum, TruncatedTransform), and
  the 20 transforms share only 4 distinct (weight, x, T).  T is 4e5, where
  the registry takes 1e6 or 1e7.
- exact runs the terre harness (54 cells at one drawn x) through piecewise
  and convolution, and q-l1 at rho_1 through quadrature, kernels and zeta.
  All of it is mpmath object churn that barely sieves: the "no change" side
  for sieve and prefix-sharing work, and the side where threads contend.
  x is drawn from a narrow band near 25 so that every seed costs the same,
  and the q-l1 radius is 0.12 (218 unit cells).
"""

from __future__ import annotations

import random

RIGOROUS = "rigorous"

FAST_X = "10,50"
FAST_CELLS = {
    "abel": 8, "int-check": 4, "mieux-1": 8, "poids": 8, "k1": 4, "k2": 4,
    "double-check-borne": 2, "har": 4, "ent": 4, "halfstep": 4, "voyage": 4,
    "alpha": 1, "q-bounds": 7, "balazard-m": 1, "m-conversions": 3, "headline": 5,
}

# the checks whose per-check wall time the traced run reports, in every workload
TRACED_CHECKS = [*FAST_CELLS, "mtronq", "derivK2", "terre", "q-l1"]

# sigma strata for the stream grid: one draw in each keeps the grid's spread,
# and so the run's cost, the same for every seed
SIGMA_STRATA = [(1.0, 1.4), (1.4, 1.8), (1.8, 2.2), (2.2, 2.6), (2.6, 3.0)]


def _sigmas(rng: random.Random) -> list[float]:
    out = []
    for lo, hi in SIGMA_STRATA:
        v = round(hi - (hi - lo) * rng.random(), 4)
        out.append(v if v > lo else lo + 1e-4)
    return out


def _expected(cells: dict[str, int]) -> dict[str, list]:
    return {check: [True, RIGOROUS, n] for check, n in cells.items()}


def verify_fast(rng: random.Random, tiny: bool):
    if tiny:
        cells = {k: FAST_CELLS[k] for k in ("int-check", "k2", "ent", "halfstep",
                                            "alpha", "q-bounds", "m-conversions")}
        argv = ["verify", "--suite", ",".join(cells), "--x", FAST_X, "--stable-output"]
        return argv, _expected(cells)
    return ["verify", "--suite", "fast", "--x", FAST_X, "--stable-output"], _expected(FAST_CELLS)


def stream(rng: random.Random, tiny: bool):
    s = ",".join(repr(v) for v in _sigmas(rng))
    if tiny:
        argv = ["verify", "--suite", "mtronq,derivK2", "--s", s, "--x", "10",
                "--T", "1e5", "--stable-output"]
        return argv, _expected({"mtronq": 5, "derivK2": 5})
    argv = ["verify", "--suite", "mtronq,derivK2", "--s", s, "--T", "4e5",
            "--stable-output"]
    return argv, _expected({"mtronq": 10, "derivK2": 10})


def exact(rng: random.Random, tiny: bool):
    if tiny:
        x = round(rng.uniform(4.0, 6.0), 2)
        radius = "0.5"
    else:
        x = round(rng.uniform(24.5, 26.0), 2)
        radius = "0.12"
    argv = ["verify", "--suite", "terre,q-l1", "--x", repr(x),
            "--target-radius", radius, "--stable-output"]
    return argv, _expected({"terre": 54, "q-l1": 1})


WORKLOADS = {"verify-fast": verify_fast, "stream": stream, "exact": exact}


def make(name: str, seed: int, tiny: bool = False):
    """(argv, expected table) for workload `name` at `seed`."""
    return WORKLOADS[name](random.Random(seed), tiny)
