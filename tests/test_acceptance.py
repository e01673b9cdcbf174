"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them inline).

Budgets and tolerances are fixed here, not calibrated at runtime; the
identity criteria compare against combined rigorous radii, the adjudication
criteria require the stated radius to be achieved, and the performance
criterion uses wall-clock time.
"""

import math
import time

import mpmath
import numpy as np
import pytest

pytestmark = pytest.mark.acceptance


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_01_convolution_harness():
    from moebius.checks import run_check
    t0 = time.perf_counter()
    rep = run_check("terre")
    elapsed = time.perf_counter() - t0
    n = len(rep.cells)
    ok = rep.passed and n == 9 * 6 * 4 and elapsed < 120.0
    _report(1, "4-parameter identity harness, 9 pairs x 6 kernels x 4 x-values",
            ok, f"{n} cells, worst residual {rep.worst:.2e}, {elapsed:.0f}s")


def test_02_formule_m():
    from moebius.identities import formule_m_value
    worst = 0.0
    ok = True
    for x in (2.0, 10.0, 1000.0, 12345.6):
        val, expect = formule_m_value(x)
        resid = float(mpmath.fabs(val.value - expect))
        ok &= resid <= val.radius
        worst = max(worst, resid)
    _report(2, "weighted sum integral equals 1 - 1/x^2", ok,
            f"worst residual {worst:.2e}")


def test_03_quadrature_calibration():
    from moebius.kernels import KernelSpec
    from moebius.piecewise import KernelFactor, PowLogSum, integrate_partition
    from moebius.quadrature import exact_Q_l1_reference, exact_Q_l1_tail
    ok = True
    details = []
    over_t2 = PowLogSum.monomial(mpmath.mpf(1), mpmath.mpf(-2), 0)
    for s in (1.5, 2.0):
        quad = integrate_partition(1000, [KernelFactor(KernelSpec.make("Q", s), 128, 1e-30)],
                                   over_t2, precision=128)
        tail = exact_Q_l1_tail(s, 1000)
        ref = exact_Q_l1_reference(s)
        resid = float(mpmath.fabs(quad.value + tail.value - ref.value))
        tol = quad.radius + tail.radius + ref.radius
        ok &= resid <= tol
        details.append(f"s={s}: resid {resid:.1e} <= {tol:.1e}")
    ref2 = float(mpmath.re(exact_Q_l1_reference(2.0).value))
    ok &= abs(ref2 + 0.0677184019) < 1e-9
    _report(3, "exact signed walk + exact tail matches 1/(s-1) - zeta + gamma",
            ok, "; ".join(details))


def test_04_em_cross_check():
    from moebius.checks import run_check
    rep = run_check("em-cross")
    _report(4, "definitional vs Euler-Maclaurin kernel forms on the full grid",
            rep.passed, f"{len(rep.cells)} (sigma,tau) cells, worst {rep.worst:.2e}")


def test_05_balcheck_exhaustive():
    from moebius.checks import run_check
    t0 = time.perf_counter()
    rep = run_check("balcheck", grid={"xmax": 100_000, "n_random": 1000})
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 60.0
    _report(5, "step-conversion inequality, integers <= 1e5 + 1000 random reals",
            ok, f"worst margin {rep.worst:.2e}, {elapsed:.0f}s")


def test_06_landau_lower_bound():
    from moebius.checks import landau_lower_check
    t0 = time.perf_counter()
    rep = landau_lower_check(10**6)
    elapsed = time.perf_counter() - t0
    rounded = next(c for c in rep.cells if c["constant"] == 0.0025)
    ok = rep.passed and elapsed < 300.0
    _report(6, "lower bound 0.0024933(sqrt x - 1/x) on all breakpoints <= 1e6",
            ok, f"min ratio {rep.payload['min_ratio']:.4f}, rounded 0.0025 also "
                f"{'holds' if rounded['pass'] else 'fails'}, {elapsed:.0f}s")


def test_07_headline_composition():
    from moebius.checks import compose_headline
    from moebius.mellin import DERIVK2, transform_sides
    value = compose_headline(4, 8.55e-6)
    ok = value == pytest.approx(3.42e-5) and value <= 3.5e-5
    details = [f"4 x 8.55e-6 = {value:.3g} <= 3.5e-5"]
    for sig in (1.04, 2.0):
        for x in (1000.0, 100000.0):
            lhs, rhs = transform_sides(DERIVK2, [(sig, x)])[0]
            resid = float(mpmath.fabs(lhs.value - rhs.value))
            tol = lhs.radius + rhs.radius
            ok &= resid <= tol
            details.append(f"derivK2({sig},{x:g}): {resid:.1e}<={tol:.1e}")
    _report(7, "headline constant composed exactly; underlying identity verified",
            ok, "; ".join(details))


@pytest.mark.slow
def test_08_heuristics_adjudication():
    from moebius.checks import run_check
    sup = run_check("q-sup", target_radius=1e-3)
    l1 = run_check("q-l1", target_radius=1e-2)
    il = run_check("improved-landau")
    ok = sup.passed and l1.passed and il.passed
    ok &= sup.payload["radius"] <= 1e-3 and l1.payload["radius"] <= 1e-2
    _report(8, "rigorous verdicts on the numerical-experiment claims", ok,
            f"sup|Q|={sup.payload['rigorous_sup']:.4f}+-{sup.payload['radius']:.1e} "
            f"vs 20.512 ({sup.payload['verdict']}); "
            f"L1={l1.payload['rigorous_value']:.3f}+-{l1.payload['radius']:.1e} "
            f"vs <=11 ({l1.payload['verdict']}); "
            f"recomposed constant {il.payload['rigorous_constant']:.4f} "
            f"(experimental inputs: {il.payload['claimed_inputs_constant']:.4f})")


def test_09_truncation_bound_desk_check():
    from moebius.checks import run_check
    rep = run_check("hel-truncation", grid={"s": 0.5 + 10j, "n_t": 200,
                                            "trange": (10.0, 1e4)})
    _report(9, "(5/6)/t^sigma truncation bound, 200 log-spaced t in [10, 1e4]",
            rep.passed, f"worst margin {rep.worst:.3e}")


def test_10_m1_agreement_and_abel():
    from moebius.dsum import DirichletTable
    from moebius.summatory import summatory
    ok = True
    details = []
    for x in (10.0, 1000.0, 100000.0):
        snap = summatory(x, mode="mp")
        n = math.floor(x)
        m_col = DirichletTable(1.0, 0.0, 128).values(n, mu=True, cumulative=True)
        with mpmath.mp.workprec(160):
            int_m = mpmath.fsum(m_col[j] for j in range(1, n)) \
                + m_col[n] * (mpmath.mpf(x) - n)
            m1_b = int_m / x
            abel_rhs = x * snap.m.value - snap.M
            rel1 = float(abs(snap.m1.value - m1_b) / max(abs(m1_b), 1e-30))
            rel2 = float(abs(int_m - abel_rhs) / max(abs(int_m), 1e-30))
        ok &= rel1 <= 1e-12 and rel2 <= 1e-12
        details.append(f"x={x:g}: {max(rel1, rel2):.1e}")
    _report(10, "m1 double definition and the step Abel identity, rel <= 1e-12",
            ok, "; ".join(details))


def test_11_harmonic_sandwich():
    from moebius.summatory import harmonic_gamma_margins
    d, rad = harmonic_gamma_margins(10**6)
    ok = bool(np.all(d + rad <= 0.5) and np.all(d - rad >= -0.5408))
    _report(11, "x(H(x) - log x - gamma) in [-0.5408, 0.5] for all x <= 1e6",
            ok, f"max {float(np.max(d)):.9f}, min {float(np.min(d)):.6f}")


@pytest.mark.slow
def test_12_performance():
    from moebius.sieve import sieve_range
    from moebius.summatory import summatory
    t0 = time.perf_counter()
    sieve_range(1, 30_000_000)
    sieve_rate = 30_000_000 / (time.perf_counter() - t0)
    t0 = time.perf_counter()
    snap = summatory(10**8, mode="fast")
    snap_elapsed = time.perf_counter() - t0
    ok = sieve_rate >= 1e7 and snap_elapsed <= 60.0
    _report(12, "summatory(1e8) within 60 s, sieve at >= 1e7 values/s", ok,
            f"sieve {sieve_rate/1e6:.0f}M/s, snapshot {snap_elapsed:.1f}s, "
            f"M(1e8) = {snap.M}")
