"""The verification registry: every identity and inequality as a named check
producing residuals or margins over a parameter grid, plus the explicit
lower-bound constants and the headline bound composition.

Each `_check_*` computes its cells and returns (kind, reported grid, cells)
and, when it has them, a payload and a verdict.  `run_check` alone starts
the clock, names the report by its registry key and finishes it (`_finish`);
`landau_lower_check` is a public entry to the same path.

Cells come from three builders, which emit plain float and bool:
- `_residual_cell`: |lhs - rhs| of two ApproxValues against the sum of their
  radii, or a residual and its radius; pass = residual <= radius.
- `_margin_cell`: a margin and its radius; pass = margin >= -radius.
- `_sweep_cell`: the worst point of a float64 sweep over n = 1..N, as a
  margin cell.

Pass policy: an identity passes when its worst residual is within combined
radii; an inequality when its worst margin is >= -(combined radii); an
inequality whose inputs include a heuristic quantity (an empirical sup over a
finite window standing in for a sup over [x, inf)) can at most pass with
rigor = "heuristic".  Adjudication checks (q-sup, q-l1, improved-landau,
mdcheck-norm, halfstep, mieux-2's printed sign) pass when the rigorous verdict
is produced at the requested radius, whatever it says about the heuristic
values they examine.

Some cells still decide pass on something other than their reported radius,
and say so where they pass it (ROADMAP item 5): alpha, q-bounds and
hel-truncation decide on per-point radii and report a literal; so does
balcheck's random-reals cell; harmonic's margins are already net of their
radii and its dense-grid cell reports radius 0; headline's composition is
decided on value <= claim; mdcheck-norm, an adjudication, always passes; and
landau-lower lets only its first constant decide.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field

import mpmath
import numpy as np
from mpmath import mpf

from .approx import PRECISION, ApproxValue, HEURISTIC, RIGOROUS, combine_rigor, eps_for, radd
from .constants import (GAMMA_F, HARMONIC_LOWER, HARMONIC_UPPER, MCHECK_OVER_LOG,
                        RHO1_IMAG_ROUNDED, RHO1_IMAG_STR, gamma_const)
from .convolution import SequenceSpec, terre_batch, voyage_sides
from .errors import DomainError, InapplicabilityError
from .identities import (abel_s_sides, double_check_borne_sides, formule_m_value,
                         halfstep_candidates, int_check_sides, k1_sides,
                         kgen2_sides, mieux1_sides, mu_log_power_sum, mu_power_sum,
                         poids_sides)
from .kernels import (IBP_R, KernelSpec, MID_Q, REAL_R, SUP_Q, hel_remainder_bound,
                      hel_sup_abs_Q, kernel_bound, kernel_eval, kernel_eval_em)
from .mellin import (DERIVK1, DERIVK2, DERIVK3, HAR, IDENTITY_TARGET, MIEUX2, MTRONQ,
                     MTRONQCH, MTRONQCHCH, SMOOTHED, SMOOTHED_WEIGHTS, ent_residual,
                     smoothed_rhs, stored_transforms, stream_of, transform_cells,
                     transform_sides)
from .piecewise import FunctionSpec, KernelFactor, PowLogSum, integrate_partition
from .quadrature import (EXACT_Q_L1_ZETA, exact_Q_l1_reference, exact_Q_l1_tail,
                         integrate_abs_kernel_to_infinity, sup_abs_kernel)
from .summatory import harmonic_gamma_margins, prefix_sweep, summatory
from .zeta import ComplexParam, partial_power_sum, zeta_em

_RHO1 = complex(0.5, float(mpmath.mpf(RHO1_IMAG_STR)))
#: landau-lower's constants c in integral_1^x |m| >= c (sqrt x - 1/x); the first decides
LANDAU_CONSTANTS = (0.0024933, 0.0025)


@dataclass
class BoundReport:
    """Outcome of one verification sweep."""

    check: str
    grid: dict
    worst: float
    worst_location: dict
    passed: bool
    rigor: str
    elapsed_ms: float
    kind: str = "identity"
    cells: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)
    #: run_suite's store fill for this check's task (the transforms of the
    #: task's checks), on the task's first report and 0 on the others;
    #: elapsed_ms leaves it out
    fill_ms: float = 0.0


# ---------------------------------------------------------------------------
# Small closed-form operations.
# ---------------------------------------------------------------------------

def landau_constant(rho) -> float:
    """(1 + |rho-1||rho| / |Re rho|)^(-1), the sqrt-lower-bound constant at a
    zeta zero rho."""
    rp = ComplexParam.coerce(rho)
    if not (0 < rp.sigma <= 1):
        raise DomainError("need 0 < Re(rho) <= 1")
    r_abs = rp.abs()
    r1_abs = math.hypot(rp.sigma - 1.0, rp.tau)
    return 1.0 / (1.0 + r_abs * r1_abs / abs(rp.sigma))


def compose_headline(C: float, input_bound: float, x0: float = 1e12,
                     t0: float = 2.5e11) -> float:
    """C * c for a sup bound sup_{t>=x}|.| <= c / log x valid from t0 on:
    the uniform constant on x^{sigma-1} log x |...| for x >= x0."""
    if C <= 0:
        raise DomainError("C > 0 required")
    if t0 > x0:
        raise InapplicabilityError(
            f"input bound valid only from t0={t0}, beyond x0={x0}")
    return C * input_bound


def improved_landau(rho, supQ_near: float, supQ_far: float, T_split: float) -> float:
    """Recomposition of the lower-bound constant with a split kernel sup:
    (1 + max(supQ_near on [1,T_split], supQ_far on [T_split,inf)))^(-1).

    Chain (at zeta(rho) = 0): x^{Re rho - 1} <= (1/x) I0(x) + 1/x^2
    + sup|Q_rho| * (1/x) I0(x), hence I0(x) >= (1+sup)^(-1)(x^{Re rho} - 1/x).
    """
    rp = ComplexParam.coerce(rho)
    if supQ_near < 0 or supQ_far < 0:
        raise DomainError("sup bounds must be nonnegative")
    if T_split < abs(rp.tau):
        raise DomainError(
            f"T_split={T_split} below |Im rho|={abs(rp.tau)}: the far sup's "
            "truncation regime does not apply")
    return 1.0 / (1.0 + max(supQ_near, supQ_far))


def landau_lower_check(x_max: float) -> BoundReport:
    """integral_1^x |m| >= c (sqrt x - 1/x) at every integer breakpoint <= x_max,
    for each of LANDAU_CONSTANTS; the report carries the minimum ratio and margin."""
    return _run("landau-lower", _landau_lower, x_max, LANDAU_CONSTANTS)


# ---------------------------------------------------------------------------
# Cell builders, grid helpers and the report.
# ---------------------------------------------------------------------------

def _residual_cell(loc: dict, lhs, rhs, in_inequality: bool = False) -> dict:
    """`loc`, then residual, radius, pass = residual <= radius and rigor.

    (lhs, rhs) are two ApproxValues, compared as |lhs - rhs| against the sum
    of their radii, or a residual and its radius.  In an inequality report
    the cell also carries margin = inf after the residual, so it never ranks
    as the worst margin.
    """
    if isinstance(lhs, ApproxValue):
        resid = float(mpmath.fabs(lhs.value - rhs.value))
        radius, rigor = radd(lhs.radius, rhs.radius), combine_rigor(lhs.rigor, rhs.rigor)
    else:
        resid, radius, rigor = float(lhs), float(rhs), RIGOROUS
    cell = {**loc, "residual": resid}
    if in_inequality:
        cell["margin"] = math.inf
    return {**cell, "radius": radius, "pass": resid <= radius, "rigor": rigor}


def _margin_cell(loc: dict, margin, radius, passed=None, rigor: str = RIGOROUS) -> dict:
    """`loc`, then margin, radius, pass and rigor: pass = margin >= -radius,
    unless the caller decides it on something else and passes `passed`."""
    margin, radius = float(margin), float(radius)
    return {**loc, "margin": margin, "radius": radius,
            "pass": margin >= -radius if passed is None else bool(passed),
            "rigor": rigor}


def _sweep_cell(loc, margin: np.ndarray, rad: np.ndarray) -> dict:
    """The worst point of a float64 sweep over n = 1..N: the margin cell with
    location loc(n) where margin + rad is least.  margin + rad >= 0 exactly
    when margin >= -rad, so that point's pass decides for every n."""
    i = int(np.argmin(margin + rad))
    return _margin_cell(loc(i + 1), margin[i], rad[i])


def _slist(grid, key, default):
    vals = grid.get(key, default)
    return list(vals) if isinstance(vals, (list, tuple)) else [vals]


def _scalar(grid, key, default):
    v = grid.get(key, default)
    if isinstance(v, (list, tuple)):
        v = v[0]
    return v


def _grid_pairs(grid, s_default, x_default):
    return [(s, x) for s in _slist(grid, "s", s_default) for x in _slist(grid, "x", x_default)]


def _identity_cells(pairs, sides):
    """One residual cell per (s, x) from the first two of its sides."""
    return [_residual_cell({"s": str(ComplexParam.coerce(s)), "x": x}, lhs, rhs)
            for (s, x), (lhs, rhs, *_) in zip(pairs, sides)]


def _sides_check(sides, x_default, s_default=(2.0, 0.5 + 3j)):
    """An (s, x) identity over the s x x grid that reads no T, with the sides
    of all its cells from one call sides(pairs, prec)."""
    def run(grid, target, prec):
        pairs = _grid_pairs(grid, s_default, x_default)
        return "identity", grid, _identity_cells(pairs, sides(pairs, prec))
    return run


def _identity_report(grid, pairs, sides, prec):
    return "identity", grid, _identity_cells(pairs, sides)


class _TransformCheck:
    """A check that reads `identity`'s truncated transforms over its grid's
    (s, x) pairs, truncated at --T when at_T, else at each x's default_T, and
    makes its report with finish(grid, pairs, sides, prec).  It runs on, and
    run_suite declares (`cells`), the pairs of one grid parse."""

    def __init__(self, identity, x_default, s_default=(1 + 1e-4, 1.04, 1.5, 2.0, 3.0),
                 at_T=True, finish=_identity_report):
        self.identity, self.x_default, self.s_default = identity, x_default, s_default
        self.at_T, self.finish = at_T, finish

    def _parse(self, grid):
        return (_grid_pairs(grid, self.s_default, self.x_default),
                grid.get("T") if self.at_T else None)

    def cells(self, grid) -> list[tuple]:
        """The (weight, T, s, x, mom) cells the check reads (transform_cells),
        less those out of range: the check raises on them when it runs."""
        pairs, T = self._parse(grid)
        cells = []
        for pair in pairs:
            try:
                cells += transform_cells(self.identity, [pair], T)
            except (TypeError, ValueError):  # DomainError is a ValueError
                pass
        return cells

    def __call__(self, grid, target, prec):
        pairs, T = self._parse(grid)
        return self.finish(grid, pairs, transform_sides(self.identity, pairs, T, prec), prec)


def _finish(name, t0, kind, grid, cells, payload=None, verdict=None):
    """The report: `verdict` = (worst, location, passed) when the check
    decides it itself, else from the cells by kind."""
    rigor = combine_rigor(*(c.get("rigor", RIGOROUS) for c in cells)) if cells else RIGOROUS
    if verdict is not None:
        worst, loc, passed = verdict
    else:
        if kind == "identity":
            worst_cell = max(cells, key=lambda c: c["residual"] - c["radius"])
            worst = worst_cell["residual"]
        elif kind == "inequality":
            worst_cell = min(cells, key=lambda c: c.get("margin", math.inf))
            worst = worst_cell.get("margin", math.nan)
        else:  # adjudication
            worst_cell = cells[0] if cells else {}
            worst = worst_cell.get("residual", worst_cell.get("margin", 0.0))
        passed = all(c["pass"] for c in cells)
        loc = {k: v for k, v in worst_cell.items()
               if k not in ("residual", "margin", "radius", "pass", "rigor")}
    return BoundReport(name, grid, worst, loc, passed, rigor,
                       (time.perf_counter() - t0) * 1e3, kind, cells, payload or {})


def _run(name, check, *args) -> BoundReport:
    """Time check(*args), which returns _finish's trailing arguments, and
    finish it as the report `name`."""
    t0 = time.perf_counter()
    return _finish(name, t0, *check(*args))


# ---------------------------------------------------------------------------
# Identity checks.
# ---------------------------------------------------------------------------

def _check_abel(grid, target, prec):
    kind, _, cells = _sides_check(abel_s_sides, [10.0, 100.0, 1e4])(grid, target, prec)
    # s = 0 specialization on a fast sweep: integral_1^x m = x m(x) - M(x)
    sweep = prefix_sweep(int(grid.get("xmax_fast", 1e5)))
    for x in (10.0, 1000.0, 99999.5, float(sweep.N)):
        if x > sweep.N:  # a fixed point beyond a short sweep (xmax_fast)
            continue
        im = sweep.int_m_at(x)
        n = math.floor(x)
        rhs = x * sweep.m[n - 1] - sweep.M[n - 1]
        tol = radd(im.radius, x * sweep.m_rad[n - 1] + 4e-16 * (abs(rhs) + abs(sweep.M[n - 1])))
        cells.append(_residual_cell({"s": "0 (step form)", "x": x},
                                    abs(float(im.value) - rhs), tol))
    return kind, grid, cells


def _mieux2_report(grid, pairs, sides, prec):
    cells = _identity_cells(pairs, sides)
    sign_report = {f"s={s} x={x}": {"plus_gamma": c["residual"],
                                    "minus_gamma": float(mpmath.fabs(lhs.value - minus.value))}
                   for (s, x), c, (lhs, _, minus) in zip(pairs, cells, sides)}
    payload = {"printed_sign_adjudication":
               "closing parenthesis +gamma matches (with the vanishing tail "
               "bracket log t - H + gamma); -gamma residuals shown for contrast",
               "residuals": sign_report}
    return "identity", grid, cells, payload


def _check_dcb(grid, target, prec):
    cells = [_residual_cell({"x": x}, *double_check_borne_sides(x, prec))
             for x in _slist(grid, "x", [10.0, 1000.0])]
    return "identity", grid, cells


def _check_formule_m(grid, target, prec):
    cells = []
    for x in _slist(grid, "x", [1.0, 2.0, 10.0, 1000.0, 12345.6]):
        if x == 1.0:
            cells.append(_residual_cell({"x": 1.0}, 0.0, 0.0))
            continue
        val, expect = formule_m_value(x, prec)
        cells.append(_residual_cell({"x": x}, mpmath.fabs(val.value - expect), val.radius))
    return "identity", grid, cells


def _check_exact_Q_l1(grid, target, prec):
    """Calibration: the exact piecewise integral of Q_s(t)/t^2 over [1, T]
    plus the closed-form tail must match 1/(s-1) - zeta + gamma within the
    combined radii.  All three read zeta(s) at radius EXACT_Q_L1_ZETA."""
    T = int(grid.get("T", 1000))
    over_t2 = PowLogSum.monomial(mpf(1), mpf(-2), 0)
    cells = []
    for s in _slist(grid, "s", [1.5, 2.0]):
        factor = KernelFactor(KernelSpec.make("Q", s), prec, EXACT_Q_L1_ZETA)
        head = integrate_partition(T, [factor], over_t2, precision=prec)
        tail = exact_Q_l1_tail(s, T, precision=prec)
        ref = exact_Q_l1_reference(s, precision=prec)
        cells.append({**_residual_cell({"s": str(s), "T": T},
                                       mpmath.fabs(head.value + tail.value - ref.value),
                                       radd(head.radius, tail.radius, ref.radius)),
                      "reference": float(mpmath.re(ref.value))})
    return "identity", grid, cells


def _check_em_cross(grid, target, prec):
    """Definitional vs Euler-Maclaurin kernel forms across the s x t grid."""
    sigmas = _slist(grid, "sigma", [-0.5, 0.5, 1.5, 2.0, 3.0])
    taus = _slist(grid, "tau", [0.0, 5.0, 14.13])
    ts = grid.get("t")
    if ts is None:
        ts = [1.0, 1.5, 2.0, 2.5, 3.75, 5.0, 7.3, 10.0, 14.13, 20.0, 31.5,
              41.77, 50.0, 66.6, 80.25, 99.5, 100.0]
    tol_target = target or 1e-25
    cells = []
    for sig in sigmas:
        for tau in taus:
            if sig == 1.0 and tau == 0.0:
                continue
            spec = KernelSpec.make("Q", complex(sig, tau))
            # the t of largest residual - radius decides the cell's pass
            worst, worst_t, worst_tol = -1.0, None, 0.0
            for t in ts:
                d = kernel_eval(spec, t, tol_target, precision=prec)
                e = kernel_eval_em(spec, t, tol_target, precision=prec)
                resid = float(mpmath.fabs(d.value - e.value))
                tol = radd(d.radius, e.radius)
                if resid - tol > worst - worst_tol:
                    worst, worst_t, worst_tol = resid, t, tol
            cells.append(_residual_cell({"s": f"{sig}{tau:+}i", "t_worst": worst_t},
                                        worst, worst_tol))
    return "identity", {"sigma": sigmas, "tau": taus, "n_t": len(ts)}, cells


def _check_terre(grid, target, prec):
    """The 4-parameter identity harness: 9 sequence pairs x 6 kernel pairs."""
    xs = _slist(grid, "x", [2.0, 10.0, 97.5, 1000.0])
    seqs = [SequenceSpec.named(n) for n in ("mobius", "one", "alternating")]
    kernel_pairs = [
        (FunctionSpec.const(1.0), FunctionSpec.const(1.0)),
        (FunctionSpec.power(1.0), FunctionSpec.const(1.0)),
        (FunctionSpec.log(1), FunctionSpec.power(1.0)),
        (FunctionSpec.t_log(1), FunctionSpec.power(2.0)),
        (FunctionSpec.power(1.5), FunctionSpec.log(1)),
        (FunctionSpec.power(1.0), FunctionSpec.power(complex(0.5, 3.0))),
    ]
    specs = [(a, b, om, ph) for a in seqs for b in seqs for om, ph in kernel_pairs]
    sides_at = [terre_batch(specs, x, precision=prec) for x in xs]
    cells = [_residual_cell({"a": a.label(), "b": b.label(), "omega": om.describe(),
                             "phi": ph.describe(), "x": x}, *sides[j])
             for j, (a, b, om, ph) in enumerate(specs) for x, sides in zip(xs, sides_at)]
    return "identity", {"x": xs, "pairs": 9, "kernels": 6}, cells


def _check_voyage(grid, target, prec):
    xs = _slist(grid, "x", [10.0, 50.0])
    pairs = [(FunctionSpec.power(1.0), FunctionSpec.power(2.0)),
             (FunctionSpec.t_log(1), FunctionSpec.power(complex(0.5, 3.0)))]
    cells = [_residual_cell({"omega": om.describe(), "phi": ph.describe(), "x": x},
                            *voyage_sides(om, ph, x, precision=prec))
             for om, ph in pairs for x in xs]
    return "identity", {"x": xs}, cells


def _check_halfstep(grid, target, prec):
    pairs = _grid_pairs(grid, [2.0, 0.5 + 3j], [30.0, 100.0])
    cells = []
    match_names = set()
    for (s, x), (value, cands) in zip(pairs, halfstep_candidates(pairs, prec)):
        resids = {k: float(mpmath.fabs(value.value - c.value)) for k, c in cands.items()}
        best = min(resids, key=resids.get)
        match_names.add(best)
        cells.append({**_residual_cell({"s": str(s), "x": x, "matched": best}, resids[best],
                                       radd(value.radius, cands[best].radius)),
                      **{f"resid_{k}": v for k, v in resids.items()}})
    return "adjudication", grid, cells, {"matching_bracketing": sorted(match_names)}


def _check_mdcheck_norm(grid, target, prec):
    """Which normalization of the double-smoothed sum stays within 4 gamma + 2."""
    N = int(grid.get("xmax", 1e5))
    sweep = prefix_sweep(N)
    ns = np.arange(1, N + 1, dtype=np.float64)
    logs = np.log(ns)
    md = logs**2 * sweep.m - 2 * logs * sweep.Smlog + sweep.Smlog2
    bound = 4 * GAMMA_F + 2
    rad = logs**2 * sweep.m_rad + 2 * logs * sweep.Smlog_rad + sweep.Smlog2_rad + 1e-13
    cells, fits = [], []
    for name, norm in (("2log t - 2gamma", np.abs(md - 2 * logs + 2 * GAMMA_F)),
                       ("log t - gamma", np.abs(md - logs + GAMMA_F))):
        i = int(np.argmax(norm))
        fits.append(bool(norm[i] + rad[i] <= bound))
        # the adjudication passes when the sweep ran; the verdict says which
        # normalization fits (ROADMAP item 5)
        cells.append(_margin_cell({"normalization": name, "max": float(norm[i]),
                                   "at_x": int(i + 1)}, bound - norm[i], rad[i], passed=True))
    payload = {"bound": bound,
               "verdict": "the 2log t - 2gamma normalization stays within "
                          "4 gamma + 2 on the tested range; the printed "
                          "log t - gamma normalization exceeds it"
               if fits[0] and not fits[1] else "see cells"}
    return "adjudication", {"xmax": N}, cells, payload


# ---------------------------------------------------------------------------
# Inequality checks.
# ---------------------------------------------------------------------------

def _sup_window(sweep, x: float, kind: str):
    """Empirical sup over [x, min(1000 x, N)] of |m|, |mcheck-1| or the
    normalized double-smoothed sum.  Heuristic stand-in for sup_{t>=x}."""
    lo = max(math.floor(x), 1)
    hi = min(int(1000.0 * x), sweep.N)
    ns = np.arange(lo, hi + 1, dtype=np.float64)
    sl = slice(lo - 1, hi)
    logs = np.log(ns)
    if kind == "m":
        vals = np.abs(sweep.m[sl])
    elif kind == "mcheck1":
        vals = np.abs(logs * sweep.m[sl] - sweep.Smlog[sl] - 1.0)
        # right-continuous step values; the sup over real t of |mcheck-1| is
        # attained along continuous pieces, sampled at breakpoints both sides
        vals2 = np.abs(np.log(ns + 1) * sweep.m[sl] - sweep.Smlog[sl] - 1.0)
        vals = np.maximum(vals, vals2)
    else:
        md = logs**2 * sweep.m[sl] - 2 * logs * sweep.Smlog[sl] + sweep.Smlog2[sl]
        vals = np.abs(md - 2 * logs + 2 * GAMMA_F)
        logs2 = np.log(ns + 1)
        md2 = logs2**2 * sweep.m[sl] - 2 * logs2 * sweep.Smlog[sl] + sweep.Smlog2[sl]
        vals = np.maximum(vals, np.abs(md2 - 2 * logs2 + 2 * GAMMA_F))
    return float(np.max(vals))


def _prop_check(which: str, letter: str):
    """prop1/prop2 per-letter: the smoothed family's (p, mom) member, p the
    letter's index and mom = which - 1, and the inequality |order p - 1's
    right side| <= C x^(1-sigma) sup |w_p|, with the empirical window sup
    (heuristic)."""
    mom, p = int(which) - 1, "abc".index(letter)

    def report(grid, pairs, sides, prec):
        sweep = prefix_sweep(int(grid.get("sweep_N", 1e6)))
        cells = []
        for (sig, x), (lhs, rhs) in zip(pairs, sides):
            cells.append(_residual_cell({"form": "identity", "sigma": sig, "x": x}, lhs, rhs,
                                        in_inequality=True))
            # inequality with empirical sup; zeta at the identity's key, so one ladder per s
            z, zp = zeta_em(sig, IDENTITY_TARGET, precision=prec)
            snap = summatory(x, mode="mp", precision=prec)
            x1s = float(x) ** (1.0 - sig)
            sup = _sup_window(sweep, x, SMOOTHED_WEIGHTS[p])
            if mom == 0:
                head = ApproxValue.exact(1) / z - mu_power_sum(x, sig, prec)
            else:
                head = (ApproxValue.exact(math.log(x)) / z - zp / (z * z)
                        - mu_log_power_sum(x, sig, prec))
            lhs_v = abs(complex(smoothed_rhs(head, [snap.m, snap.m_check - 1], x1s, sig - 1,
                                             mom, p - 1).value))
            d = sig - 1.0
            bound = ((2.0, 2.0 * d, d ** 2), (2.0 / d, 4.0, 3.0 * d))[mom][p] * x1s * sup
            cells.append({**_margin_cell({"form": "inequality", "sigma": sig, "x": x,
                                          "residual": math.nan}, bound - lhs_v,
                                         1e-12 + 1e-9 * abs(bound), rigor=HEURISTIC),
                          "window_sup": sup})
        return "inequality", grid, cells
    return _TransformCheck(SMOOTHED[mom][p], [1000.0], (1.04, 2.0), at_T=False, finish=report)


def _check_parm(grid, target, prec):
    svals = _slist(grid, "s", [2.0])
    xs = _slist(grid, "x", [10.0, 1000.0, 100000.0])
    sweep = prefix_sweep(int(max(xs)))
    cells = []
    for s in svals:
        sp = ComplexParam.coerce(s)
        sp.require_sigma_gt(0.0, "parm")
        z, _ = zeta_em(sp, 1e-30, precision=prec, want_derivative=False)
        z_abs = float(mpmath.fabs(z.value))
        for x in xs:
            snap = summatory(x, mode="mp", precision=prec) if x <= 20000 else None
            sm = sp.as_mpc()
            with mpmath.mp.workprec(prec + 32):
                msum = mu_power_sum(x, sp, prec)
                if snap is not None:
                    m_x, mc1 = snap.m, snap.m_check - 1
                else:
                    m_x = sweep.m_at(x)
                    mc1 = sweep.mcheck_at(x) - 1
                x1s = mpmath.power(mpf(x), 1 - sm)
                lhs = float(mpmath.fabs((msum - m_x * ApproxValue.exact(x1s)
                                         - ApproxValue.exact(1) / z).value))
            I0 = sweep.I0_at(x)
            xf = float(x)
            bound = (sp.abs() / abs(sp.sigma) * abs(complex(sm - 1)) / z_abs
                     * xf ** (1 - sp.sigma) / xf * float(I0.value)
                     + abs(complex(mc1.value)) / z_abs * xf ** (1 - sp.sigma))
            cells.append(_margin_cell({"s": str(sp), "x": x}, bound - lhs,
                                      radd(I0.radius, mc1.radius, 1e-12 * bound)))
    return "inequality", {"s": svals, "x": xs}, cells


def _check_parchm(grid, target, prec):
    svals = _slist(grid, "s", [2.0])
    xs = _slist(grid, "x", [10.0, 1000.0, 100000.0])
    sweep = prefix_sweep(int(max(1e5, max(xs))))
    cells = []
    for s in svals:
        sp = ComplexParam.coerce(s)
        sp.require_sigma_gt(0.0, "parchm")
        z, _ = zeta_em(sp, 1e-30, precision=prec, want_derivative=False)
        z_abs = float(mpmath.fabs(z.value))
        sm1 = abs(complex(sp.sigma - 1, sp.tau))
        for x in xs:
            snap = summatory(x, mode="mp", precision=prec)
            sm = sp.as_mpc()
            with mpmath.mp.workprec(prec + 32):
                msum = mu_power_sum(x, sp, prec)
                x1s = mpmath.power(mpf(x), 1 - sm)
                lhs = float(mpmath.fabs(
                    (msum - snap.m * ApproxValue.exact(x1s)
                     - ApproxValue.exact(sm - 1) * (snap.m_check - 1) * ApproxValue.exact(x1s)
                     - ApproxValue.exact(1) / z).value))
                half_norm = float(mpmath.fabs(
                    (snap.m_dcheck * ApproxValue.exact(mpf(1) / 2)
                     - ApproxValue.exact(mpmath.log(mpf(x)) - gamma_const(prec))).value))
            # integral of |mcheck - 1| over [1, x]: exact stepwise on the sweep
            n = math.floor(x)
            ns = np.arange(1, n, dtype=np.float64)
            # |mcheck(t)-1| integrated exactly: mcheck is a + b log t per piece
            a_ = -sweep.Smlog[:n - 1] - 1.0
            b_ = sweep.m[:n - 1]
            lo, hi = ns, ns + 1
            # piecewise |a + b log t|: split at the interior zero if any
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                tz = np.exp(-a_ / np.where(b_ == 0, np.inf, b_))
            F = lambda t, a, b: (a - b) * t + b * t * np.log(t)
            seg = np.abs(F(hi, a_, b_) - F(lo, a_, b_))
            inside = (tz > lo) & (tz < hi)
            seg_in = (np.abs(F(np.where(inside, tz, lo), a_, b_) - F(lo, a_, b_))
                      + np.abs(F(hi, a_, b_) - F(np.where(inside, tz, hi), a_, b_)))
            I_mc1 = float(np.sum(np.where(inside, seg_in, seg)))
            xf = float(x)
            bound = (sp.abs() / abs(sp.sigma) * sm1 ** 2 / z_abs * xf ** (1 - sp.sigma) / xf * I_mc1
                     + sm1 / z_abs * xf ** (1 - sp.sigma) * half_norm
                     + 0.55 * sm1 ** 2 / (z_abs * abs(sp.sigma)) * xf ** (-sp.sigma))
            rad = radd(1e-10 * bound, float(np.sum(sweep.m_rad[:n])) * math.log(max(xf, 2.0)))
            cells.append(_margin_cell({"s": str(sp), "x": x}, bound - lhs, rad))
    return "inequality", {"s": svals, "x": xs}, cells


def _check_poids_bound(grid, target, prec):
    svals = _slist(grid, "s", [-0.5, 0.5, 2.0])
    xs = _slist(grid, "x", [10.0, 1000.0])
    sweep = prefix_sweep(int(max(xs)))
    cells = []
    for sig in svals:
        sp = ComplexParam.coerce(float(sig))
        z, _ = zeta_em(sp, 1e-30, precision=prec, want_derivative=False)
        z_abs = float(mpmath.fabs(z.value))
        for x in xs:
            snap = summatory(x, mode="mp", precision=prec)
            with mpmath.mp.workprec(prec + 32):
                sm = sp.as_mpc()
                msum = mu_power_sum(x, sp, prec)
                x1s = mpmath.power(mpf(x), 1 - sm)
                lhs = float(mpmath.fabs((msum - ApproxValue.exact(1) / z
                                         - snap.m * ApproxValue.exact(x1s)).value))
            I1 = sweep.I1_at(x)
            xf = float(x)
            bound = (abs(sig) * abs(sig - 1) / (8 * z_abs) * xf ** (1 - sig) / xf ** 2 * float(I1.value)
                     + xf ** (1 - sig) / z_abs * (abs(sig - 1) / 2 * abs(float(snap.m1.value))
                                                  + abs(sig) * abs(complex((snap.m_check - 1).value))
                                                  + abs(sig - 1) / xf))
            cells.append(_margin_cell({"sigma": sig, "x": x}, bound - lhs,
                                      radd(I1.radius, 1e-11 * abs(bound))))
    return "inequality", {"s": svals, "x": xs}, cells


def _check_balcheck(grid, target, prec):
    """|mcheck(x)-1| <= (1/x) integral |m| + 1/x^2, exhaustively at integers
    and on seeded random reals."""
    N = int(grid.get("xmax", 1e5))
    n_random = int(grid.get("n_random", 1000))
    sweep = prefix_sweep(N)
    ns = np.arange(1, N + 1, dtype=np.float64)
    logs = np.log(ns)
    mcheck1 = np.abs(logs * sweep.m - sweep.Smlog - 1.0)
    I0_at = sweep.I0  # integral over [1, n]
    rhs = I0_at / ns + 1.0 / ns**2
    rad = (logs * sweep.m_rad + sweep.Smlog_rad + sweep.I0_rad / ns
           + 4e-16 * (np.abs(rhs) + mcheck1))
    cells = [_sweep_cell(lambda n: {"x": n, "form": "integers"}, rhs - mcheck1, rad)]
    rng = np.random.default_rng(20260810)
    xs = 1.0 + rng.random(n_random) * (N - 1)
    worst = math.inf
    worst_x = None
    ok = True
    for x in xs:
        n = int(x)
        mc = abs(math.log(x) * sweep.m[n - 1] - sweep.Smlog[n - 1] - 1.0)
        I0x = sweep.I0[n - 1] + abs(sweep.m[n - 1]) * (x - n)
        rhs_x = I0x / x + 1.0 / x**2
        r = (math.log(x) * sweep.m_rad[n - 1] + sweep.Smlog_rad[n - 1]
             + sweep.I0_rad[n - 1] / x + 4e-16 * (rhs_x + mc))
        mg = rhs_x - mc
        ok &= mg >= -r
        if mg < worst:
            worst, worst_x = mg, float(x)
    # decided on each real's own radius r; the cell reports a literal (ROADMAP item 5)
    cells.append(_margin_cell({"x": worst_x, "form": f"{n_random} random reals"},
                              worst, 1e-14, passed=ok))
    return "inequality", {"xmax": N, "n_random": n_random}, cells


def _check_balazard_m(grid, target, prec):
    """|m(x)| <= |M(x)|/x + (1/x^2) integral |M| + (8/3)/x at integers."""
    N = int(grid.get("xmax", 1e5))
    sweep = prefix_sweep(N)
    ns = np.arange(1, N + 1, dtype=np.float64)
    rhs = np.abs(sweep.M) / ns + sweep.IabsM / ns**2 + (8.0 / 3.0) / ns
    cells = [_sweep_cell(lambda n: {"x": n}, rhs - np.abs(sweep.m), sweep.m_rad + 4e-16 * rhs)]
    return "inequality", {"xmax": N}, cells


def _check_harmonic(grid, target, prec):
    N = int(grid.get("xmax", 1e6))
    d, rad = harmonic_gamma_margins(N)
    cells = []
    for side, margin in (("upper", HARMONIC_UPPER - (d + rad)),
                         ("lower", (d - rad) - HARMONIC_LOWER)):
        i = int(np.argmin(margin))
        # the margin is net of the radius already (ROADMAP item 5)
        cells.append(_margin_cell({"x": int(i + 1), "side": side}, margin[i], rad[i],
                                  passed=np.all(margin >= 0)))
    # dense non-integer grid near the infimum approach points
    sweep = prefix_sweep(min(N, 10_000))
    ok = True
    worst = math.inf
    for off in (0.25, 0.5, 0.75, 0.999999):
        xs = np.arange(1, sweep.N) + off
        H = sweep.H[np.floor(xs).astype(int) - 1]
        v = xs * (H - np.log(xs) - GAMMA_F)
        r = xs * (sweep.H_rad[np.floor(xs).astype(int) - 1] + 4e-16 * (np.abs(np.log(xs)) + 1))
        ok &= bool(np.all(v - r >= HARMONIC_LOWER) and np.all(v + r <= HARMONIC_UPPER))
        worst = min(worst, float(np.min(np.minimum(v - HARMONIC_LOWER, HARMONIC_UPPER - v))))
    # decided on per-point radii; the cell reports radius 0 (ROADMAP item 5)
    cells.append(_margin_cell({"x": "dense grid <= 1e4", "side": "both"}, worst, 0.0,
                              passed=ok))
    return "inequality", {"xmax": N}, cells


def _check_q_bounds(grid, target, prec):
    ts = grid.get("t") or [1.0, 1.5, 2.5, 7.3, 10.0, 20.0, 50.0]
    cells = []
    for sig, tau in [(0.5, 0.0), (0.5, 5.0), (2.0, 14.13), (1.5, 5.0)]:
        s = complex(sig, tau)
        bQ = kernel_bound(s, SUP_Q)
        worstm = math.inf
        ok = True
        for t in ts:
            v = kernel_eval(KernelSpec.make("Q", s), t, 1e-25, precision=prec)
            mg = bQ - float(mpmath.fabs(v.value))
            ok &= mg >= -v.radius
            worstm = min(worstm, mg)
        # decided on each t's own radius; the cell reports a literal (ROADMAP item 5)
        cells.append(_margin_cell({"s": f"{sig}{tau:+}i", "bound": "sup_Q"}, worstm, 1e-20,
                                  passed=ok))
    for sig, tau in [(-0.5, 5.0), (0.5, 3.0), (2.0, 0.0)]:
        s = complex(sig, tau)
        worstm = math.inf
        ok = True
        for t in ts:
            v = kernel_eval(KernelSpec.make("R", s), t, 1e-25, precision=prec)
            va = float(mpmath.fabs(v.value))
            b = kernel_bound(s, IBP_R, t)
            if sig > 0:
                b = min(b, kernel_bound(s, MID_Q))
            if tau == 0.0:
                b = min(b, kernel_bound(s, REAL_R, t))
            mg = b - va
            ok &= mg >= -v.radius
            worstm = min(worstm, mg)
        # as above (ROADMAP item 5)
        cells.append(_margin_cell({"s": f"{sig}{tau:+}i", "bound": "R forms"}, worstm, 1e-20,
                                  passed=ok))
    return "inequality", {"t": ts}, cells


def _check_alpha(grid, target, prec):
    """|alpha(t)| = |floor(t)(floor(t)+1)/t^2 - 1| <= 1/t on a dense grid."""
    N = int(grid.get("tmax", 1e4))
    ks = np.arange(1, N, dtype=np.float64)
    ok = True
    worst = math.inf
    worst_t = None
    for off in (0.0, 0.25, 0.5, 0.75, 0.999999):
        t = ks + off
        K = ks
        alpha = K * (K + 1) / t**2 - 1.0
        margin = 1.0 / t - np.abs(alpha)
        rad = 8e-16 * (1.0 + np.abs(alpha))
        ok &= bool(np.all(margin >= -rad))
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst, worst_t = float(margin[i]), float(t[i])
    # decided on per-point radii; the cell reports a literal (ROADMAP item 5)
    cells = [_margin_cell({"t": worst_t}, worst, 1e-15, passed=ok)]
    return "inequality", {"tmax": N}, cells


def _check_m_conversions(grid, target, prec):
    """The step-conversion block: |mcheck-1| and |m1| against the exact
    integrals of |m| and |m| t."""
    N = int(grid.get("xmax", 1e5))
    sweep = prefix_sweep(N)
    ns = np.arange(1, N + 1, dtype=np.float64)
    logs = np.log(ns)
    mcheck1 = np.abs(logs * sweep.m - sweep.Smlog - 1.0)
    m1 = np.abs(sweep.m - sweep.M / ns)
    base_rad = logs * sweep.m_rad + sweep.Smlog_rad
    tests = [
        ("mcheck1 <= I1/x^2 + 1.1/x", mcheck1, sweep.I1 / ns**2 + 1.1 / ns,
         base_rad + sweep.I1_rad / ns**2),
        ("m1 <= I0/x + 1/x", m1, sweep.I0 / ns + 1.0 / ns,
         sweep.m_rad + sweep.I0_rad / ns),
        ("m1 <= I1/x^2 + 2/x", m1, sweep.I1 / ns**2 + 2.0 / ns,
         sweep.m_rad + sweep.I1_rad / ns**2),
    ]
    cells = [_sweep_cell(lambda n: {"inequality": name, "x": n}, rhs - lhs,
                         rad + 4e-16 * (rhs + lhs))
             for name, lhs, rhs, rad in tests]
    return "inequality", {"xmax": N}, cells


def _check_hel_truncation(grid, target, prec):
    """(5/6)/t^sigma truncation bound at s = 0.5 + 10i over log-spaced t."""
    s = _scalar(grid, "s", 0.5 + 10j)
    n_t = int(grid.get("n_t", 200))
    t_lo, t_hi = grid.get("trange", (10.0, 1e4))
    sp = ComplexParam.coerce(s)
    z, _ = zeta_em(sp, 1e-13 * 1e-2, precision=prec, want_derivative=False)
    ts = np.geomspace(t_lo, t_hi, n_t)
    worst = math.inf
    worst_t = None
    ok = True
    with mpmath.mp.workprec(prec + 32):
        sm = sp.as_mpc()
        for t in ts:
            psum = partial_power_sum(sp, float(t), prec)
            tail = mpmath.power(mpf(float(t)), 1 - sm) / (sm - 1)
            # the power and the division round twice at prec + 32 bits
            gap = z - psum - ApproxValue(tail, eps_for(prec) * abs(complex(tail)),
                                         RIGOROUS, prec)
            lhs = gap.abs_value()
            bound = hel_remainder_bound(sp, float(t))
            margin = bound - lhs
            ok &= margin >= -gap.radius
            if margin < worst:
                worst, worst_t = margin, float(t)
    # decided on per-t radii; the cell reports a literal (ROADMAP item 5)
    cells = [_margin_cell({"s": str(sp), "t": worst_t}, worst, 1e-12, passed=ok)]
    return "inequality", {"s": str(sp), "trange": [t_lo, t_hi], "n_t": n_t}, cells


def _landau_lower(x_max, constants):
    N = int(x_max)
    sweep = prefix_sweep(N)
    ns = np.arange(1, N + 1, dtype=np.float64)
    rhs_unit = np.sqrt(ns) - 1.0 / ns
    I0 = sweep.I0
    rad = sweep.I0_rad + 2e-16 * rhs_unit
    cells = []
    worst_overall = math.inf
    worst_loc = {}
    ratios = I0[1:] / rhs_unit[1:]
    i_min = int(np.argmin(ratios))
    for c in constants:
        margin = I0 - c * rhs_unit
        i = int(np.argmin(margin + rad))
        cells.append({"constant": c, "min_margin": float(margin[i]),
                      "at_x": int(i + 1), "min_ratio": float(ratios[i_min]),
                      "ratio_at_x": int(i_min + 2), "radius": float(rad[i]),
                      "pass": bool(margin[i] >= -rad[i]), "rigor": RIGOROUS})
        if margin[i] < worst_overall:
            worst_overall = float(margin[i])
            worst_loc = {"constant": c, "x": int(i + 1)}
    # only the first constant decides pass; the others are shown for comparison
    passed = cells[0]["pass"] if cells else True
    return ("inequality", {"x_max": x_max, "constants": list(constants)}, cells,
            {"min_ratio": float(ratios[i_min]), "min_ratio_at": int(i_min + 2)},
            (worst_overall, worst_loc, passed))


def _check_landau_lower(grid, target, prec):
    return _landau_lower(float(grid.get("xmax", 1e6)),
                         tuple(grid.get("constants", LANDAU_CONSTANTS)))


# ---------------------------------------------------------------------------
# Adjudications of the numerical-experiment claims.
# ---------------------------------------------------------------------------

def _check_q_sup(grid, target, prec):
    s = _scalar(grid, "s", complex(0.5, RHO1_IMAG_ROUNDED))
    t_lo, t_hi = grid.get("trange", (1.0, 14.13))
    tol = target or 1e-3
    sup, at = sup_abs_kernel(KernelSpec.make("Q", s), t_lo, t_hi, tol, precision=prec)
    heuristic_claim = grid.get("claim", 20.512)
    cells = [{"s": str(s), "trange": f"{t_lo}:{t_hi}", "sup": float(sup.value),
              "at_t": at, "radius": sup.radius, "margin": heuristic_claim - float(sup.value),
              "pass": sup.radius <= tol, "rigor": RIGOROUS}]
    verdict = ("confirms" if float(sup.value) - sup.radius <= heuristic_claim
               <= float(sup.value) + sup.radius else
               ("refutes (true sup larger)" if float(sup.value) - sup.radius > heuristic_claim
                else "refutes (true sup smaller)"))
    return ("adjudication", {"s": str(s), "trange": [t_lo, t_hi]}, cells,
            {"heuristic_claim": heuristic_claim, "verdict": verdict,
             "rigorous_sup": float(sup.value), "radius": sup.radius})


def _check_q_l1(grid, target, prec):
    s = _scalar(grid, "s", complex(0.5, RHO1_IMAG_ROUNDED))
    tol = target or 1e-2
    val, T = integrate_abs_kernel_to_infinity(KernelSpec.make("Q", s), tol, precision=prec)
    claim = grid.get("claim", 11.0)
    v = float(mpmath.re(val.value)) if not isinstance(val.value, float) else val.value
    cells = [{"s": str(s), "T": T, "value": float(v), "radius": val.radius,
              "margin": claim - float(v), "pass": val.radius <= tol,
              "rigor": RIGOROUS}]
    verdict = ("confirms <= claim" if float(v) + val.radius <= claim else
               ("refutes (integral exceeds claim)" if float(v) - val.radius > claim
                else "inconclusive at this radius"))
    return ("adjudication", {"s": str(s)}, cells,
            {"heuristic_claim": claim, "verdict": verdict,
             "rigorous_value": float(v), "radius": val.radius, "T": T})


def _check_improved_landau(grid, target, prec):
    s = _scalar(grid, "s", complex(0.5, RHO1_IMAG_ROUNDED))
    T_split = float(grid.get("T_split", abs(complex(s).imag)))
    tol = target or 1e-3
    sup, at = sup_abs_kernel(KernelSpec.make("Q", s), 1.0, T_split, tol, precision=prec)
    far = hel_sup_abs_Q(s)
    near_hi = float(sup.value) + sup.radius
    ours = improved_landau(s, near_hi, far, T_split)
    reported = improved_landau(s, grid.get("claimed_near", 20.512),
                               grid.get("claimed_far", 9.4), T_split)
    base = landau_constant(s)
    cells = [{"s": str(s), "T_split": T_split, "constant": ours,
              "margin": ours - base, "radius": sup.radius,
              "pass": sup.radius <= tol, "rigor": RIGOROUS}]
    return ("adjudication", {"s": str(s), "T_split": T_split}, cells,
            {"rigorous_constant": ours, "claimed_inputs_constant": reported,
             "sup_near": near_hi, "sup_far": far,
             "plain_constant": base,
             "note": "constant = 1/(1 + max(sup bounds)); the experimental "
                     "inputs (20.512, 9.4) give the quoted 0.047 order"})


def _headline_report(grid, pairs, sides, prec):
    C = float(grid.get("C", 4.0))
    c = float(grid.get("c", MCHECK_OVER_LOG[0]))
    value = compose_headline(C, c, x0=float(grid.get("x0", 1e12)),
                             t0=float(grid.get("t0", MCHECK_OVER_LOG[1])))
    claim = float(grid.get("claim", 3.5e-5))
    # decided on value <= claim; the cell reports a literal (ROADMAP item 5)
    cells = [_margin_cell({"C": C, "c": c, "value": value}, claim - value, 1e-20,
                          passed=value <= claim)]
    cells += [_residual_cell({"form": "derivK2 identity", "sigma": sig, "x": x}, lhs, rhs,
                             in_inequality=True)
              for (sig, x), (lhs, rhs) in zip(pairs, sides)]
    return "inequality", grid, cells, {"composed": value, "claim": claim}


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

REGISTRY = {
    "abel": _check_abel,
    "int-check": _sides_check(int_check_sides, [10.0, 200.0]),
    "mtronq": _TransformCheck(MTRONQ, [1000.0, 10000.0]),
    "mtronqch": _TransformCheck(MTRONQCH, [1000.0, 10000.0]),
    "mtronqchch": _TransformCheck(MTRONQCHCH, [1000.0, 10000.0]),
    "derivK1": _TransformCheck(DERIVK1, [1000.0]),
    "derivK2": _TransformCheck(DERIVK2, [1000.0, 100000.0]),
    "derivK3": _TransformCheck(DERIVK3, [1000.0]),
    "mieux-1": _sides_check(mieux1_sides, [10.0, 100.0, 1000.0],
                            (2.0, 3.0, 0.5 + 3j, 0.5 + 14.13j)),
    "mieux-2": _TransformCheck(MIEUX2, [10.0, 100.0], (2.0, 0.5 + 3j, 1.04), at_T=False,
                               finish=_mieux2_report),
    "poids": _sides_check(poids_sides, [10.0, 100.0], (2.0, 0.5 + 3j, -0.5 + 5j, 0.5 + 14.13j)),
    "k1": _sides_check(k1_sides, [10.0, 200.0]),
    "k2": _sides_check(kgen2_sides, [50.0]),
    "double-check-borne": _check_dcb,
    "formule-m": _check_formule_m,
    "exact-Q-l1": _check_exact_Q_l1,
    # har truncates at each x's default T and ignores --T
    "har": _TransformCheck(HAR, [20.5, 50.0], (2.0, 0.5 + 3j), at_T=False),
    "ent": _sides_check(ent_residual, [7.0, 33.3], (2.0, 0.5 + 10j)),
    "em-cross": _check_em_cross,
    "terre": _check_terre,
    "voyage": _check_voyage,
    "halfstep": _check_halfstep,
    "mdcheck-norm": _check_mdcheck_norm,
    "prop1-a": _prop_check("1", "a"),
    "prop1-b": _prop_check("1", "b"),
    "prop1-c": _prop_check("1", "c"),
    "prop2-a": _prop_check("2", "a"),
    "prop2-b": _prop_check("2", "b"),
    "prop2-c": _prop_check("2", "c"),
    "parm": _check_parm,
    "parchm": _check_parchm,
    "poids-bound": _check_poids_bound,
    "balcheck": _check_balcheck,
    "balazard-m": _check_balazard_m,
    "harmonic": _check_harmonic,
    "q-bounds": _check_q_bounds,
    "alpha": _check_alpha,
    "m-conversions": _check_m_conversions,
    "landau-lower": _check_landau_lower,
    "hel-truncation": _check_hel_truncation,
    "q-sup": _check_q_sup,
    "q-l1": _check_q_l1,
    "improved-landau": _check_improved_landau,
    "headline": _TransformCheck(DERIVK2, [1000.0, 100000.0], (1.04, 2.0), at_T=False,
                                finish=_headline_report),
}

#: checks that finish in at most a few seconds each, for `verify --suite fast`
FAST_SUITE = ["abel", "int-check", "mieux-1", "poids", "k1", "k2",
              "double-check-borne", "har", "ent", "halfstep", "voyage",
              "alpha", "q-bounds", "balazard-m", "m-conversions", "headline"]


def registry_names() -> list[str]:
    return list(REGISTRY)


def _require_known(check_id: str) -> None:
    if check_id not in REGISTRY:
        raise DomainError(f"unknown check {check_id!r}; known: {sorted(REGISTRY)}")


def run_check(check_id: str, grid: dict | None = None,
              target_radius: float | None = None, precision: int = PRECISION) -> BoundReport:
    """Run one registered check on its (possibly overridden) grid at precision
    + 16 working bits, whatever the caller's mpmath context holds."""
    _require_known(check_id)
    with mpmath.mp.workprec(precision + 16):
        return _run(check_id, REGISTRY[check_id], dict(grid or {}), target_radius, precision)


#: seconds each check takes in `verify --suite all --threads 1` on the 2-core
#: reference host (its elapsed_ms), for the checks of 0.05 s or more, and
#: seconds each stream of that run takes, by its (jumps, T) (mellin.stream_of),
#: both as tools/costs.py prints them.  run_suite submits the costliest task
#: first (_task_cost); an id or stream not listed here counts 0
_COST_S = {
    "terre": 0.88, "em-cross": 0.61, "formule-m": 0.4, "abel": 0.39, "parchm": 0.3,
    "prop1-a": 0.21, "mieux-1": 0.2, "q-l1": 0.1, "hel-truncation": 0.08, "prop1-c": 0.07,
    "prop2-c": 0.06, "parm": 0.06, "double-check-borne": 0.05, "exact-Q-l1": 0.05,
    "harmonic": 0.05,
}
_FILL_S = {("mu", 10000000.0): 0.73, ("mu", 1000000.0): 0.08, ("one", 1000000.0): 0.05}


@dataclass
class _Task:
    """Checks of a suite that run together: their request indices,
    ascending, their ids, and the transform cells they declare."""

    indices: list[int]
    names: list[str]
    cells: list

    @property
    def streams(self) -> set:
        return {stream_of(cell) for cell in self.cells}

    def __repr__(self):
        return repr(self.names[0] if len(self.names) == 1 else tuple(self.names))


def _tasks(names: list[str], grid: dict | None = None) -> list[_Task]:
    """run_suite's tasks, in order of their first check.  Checks whose
    declared cells share a stream (mellin.stream_of), directly or through
    other checks, form one task; every other check is a task of its own."""
    tasks: list[_Task] = []
    for i, name in enumerate(names):
        check = REGISTRY[name]
        task = _Task([i], [name], check.cells(dict(grid or {}))
                     if isinstance(check, _TransformCheck) else [])
        for other in [t for t in tasks if t.streams & task.streams]:
            tasks.remove(other)
            indices = sorted(other.indices + task.indices)
            task = _Task(indices, [names[j] for j in indices], other.cells + task.cells)
        tasks.append(task)
    return sorted(tasks, key=lambda task: task.indices[0])


def _task_cost(task: _Task) -> float:
    """The task's streams plus its checks, in seconds (_COST_S, _FILL_S)."""
    return (sum(_FILL_S.get(stream, 0.0) for stream in task.streams)
            + sum(_COST_S.get(name, 0.0) for name in task.names))


def _run_tasks(tasks: list[_Task], names, grid, target_radius, precision) -> list[BoundReport]:
    """The reports of the tasks' checks, run in request order once the store
    holds every task's cells (mellin.stored_transforms); each task's fill
    time goes on its first report."""
    fill_ms = {}
    with contextlib.ExitStack() as stack:
        for task in tasks:
            if task.cells:
                t0 = time.perf_counter()
                stack.enter_context(stored_transforms(task.cells))
                fill_ms[task.indices[0]] = (time.perf_counter() - t0) * 1e3
        reports = []
        for i in sorted(i for task in tasks for i in task.indices):
            report = run_check(names[i], grid, target_radius, precision)
            if i in fill_ms:
                report.fill_ms = fill_ms[i]
            reports.append(report)
    return reports


def run_suite(names: list[str], grid: dict | None = None,
              target_radius: float | None = None, precision: int = PRECISION,
              threads: int = 1) -> list[BoundReport]:
    """Run several checks and return their reports in request order.

    Every id is validated before anything runs.  The checks form tasks
    (_tasks): the checks that read transforms from one stream of [1, T]
    share a task, which streams them once, into a store that their
    transform_sides calls read, and then runs its checks in request order.
    With threads > 1 and more than one task, the tasks run on min(threads,
    len(tasks)) worker processes forked from this one (runner.run_forked),
    each with its own mpmath context, so no check sees another's precision;
    the costliest task starts first (_task_cost).  Otherwise every check runs in
    this process, in request order, after every task's stream.

    In this process the error raised is that of the first failing check in
    request order, and no check after it starts.  On the workers the unit is
    the task: a task stops at its first failing check, the error raised is
    that of the first failing task in order of first check, and no task after
    it starts once it has failed.  The two agree unless checks of different
    tasks that interleave in request order both fail.

    Fork, not spawn: a forked worker starts with numpy, mpmath and moebius
    already imported, where a spawned one would import them again (about
    0.2 s per worker).  The caller must not be running other threads.
    """
    for n in names:
        _require_known(n)
    tasks = _tasks(names, grid)
    if threads <= 1 or len(tasks) <= 1:
        return _run_tasks(tasks, names, grid, target_radius, precision)
    from .runner import run_forked
    order = sorted(range(len(tasks)), key=lambda t: -_task_cost(tasks[t]))
    done = run_forked(lambda task: _run_tasks([task], names, grid, target_radius, precision),
                      tasks, order, min(threads, len(tasks)))
    reports = [None] * len(names)
    for task, task_reports in zip(tasks, done):
        for i, report in zip(task.indices, task_reports):
            reports[i] = report
    return reports
