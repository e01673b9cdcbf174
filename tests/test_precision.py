"""Precision is an argument, never ambient state: every entry point gives the
same value, radius and precision_bits, bit for bit, whatever the caller left
in mpmath's context, and the piecewise walk refuses a factor that carries
fewer bits than it is asked to work at."""

import math
import re
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from moebius import kernels, piecewise, zeta
from moebius.approx import ApproxValue
from moebius.checks import run_check
from moebius.convolution import SequenceSpec, terre_batch
from moebius.errors import PrecisionError
from moebius.identities import mieux1_sides
from moebius.kernels import KernelSpec, kernel_eval
from moebius.piecewise import (FunctionSpec, HarmonicWeightFactor, InnerSumFactor,
                               KernelFactor, LogMinusHFactor, PowLogSum, SummatoryFactor,
                               integrate_m_kernel, integrate_partition)
from moebius.quadrature import integrate_abs_kernel
from moebius.summatory import summatory
from moebius.zeta import zeta_em

AMBIENT = (53, 400)
SRC = Path(__file__).resolve().parents[1] / "src" / "moebius"


def _clear_caches():
    """Drop every per-process cache, so each run computes afresh."""
    zeta._zeta_cache.clear()
    zeta.power_prefix_table.cache_clear()
    kernels.frac_tail_evaluator.cache_clear()
    piecewise.mu_over_n_values.cache_clear()


def _bits(v):
    """A value as comparable data: raw mpf/mpc tuples, floats as they are."""
    if isinstance(v, ApproxValue):
        return _bits(v.value), v.radius, v.precision_bits
    if isinstance(v, (tuple, list)):
        return tuple(_bits(u) for u in v)
    if isinstance(v, dict):
        return {k: _bits(u) for k, u in v.items()}
    if isinstance(v, mpf):
        return v._mpf_
    if isinstance(v, mpmath.mpc):
        return v._mpc_
    return v


def _under(prec, fn):
    saved = mpmath.mp.prec
    _clear_caches()
    mpmath.mp.prec = prec
    try:
        return fn()
    finally:
        mpmath.mp.prec = saved


def _assert_ambient_free(fn):
    low, high = (_bits(_under(p, fn)) for p in AMBIENT)
    assert low == high


def _alt(n):
    return 1 if n % 2 else -1


def _walk_of(build):
    over_t2 = PowLogSum.monomial(mpf(1), mpf(-2), 0)
    return lambda: integrate_partition(7.3, [build(), over_t2], precision=128)


CASES = {
    "zeta_em": lambda: zeta_em(0.5 + 3j, 1e-30),
    "kernel_eval": lambda: kernel_eval(KernelSpec.make("Q", 0.5 + 3j), 7.3),
    "summatory-mp": lambda: summatory(20.5, mode="mp").__dict__,
    "integrate_m_kernel": lambda: integrate_m_kernel(20.5, FunctionSpec.power(1.0)),
    "integrate_m_kernel-128": lambda: integrate_m_kernel(20.5, FunctionSpec.power(1.0),
                                                         precision=128),
    "terre_batch": lambda: terre_batch(
        [(SequenceSpec.named("mobius"), SequenceSpec.named("alternating"),
          FunctionSpec(0.7, 0.5, 1), FunctionSpec.power(complex(0.5, 3.0)))], 7.3),
    "integrate_abs_kernel": lambda: integrate_abs_kernel(
        KernelSpec.make("Q", complex(0.5, 14.13)), 5.0, 0.05),
    "mieux1_sides": lambda: mieux1_sides([(0.5 + 3j, 20.5)])[0],
    "SummatoryFactor": _walk_of(lambda: SummatoryFactor(
        [_alt(n) for n in range(1, 8)], FunctionSpec(0.7, complex(0.5, 1.0), 1), 7.3, 128)),
    "InnerSumFactor": _walk_of(lambda: InnerSumFactor(
        [_alt(k) for k in range(1, 8)], FunctionSpec(0.7, -0.5, 2), 128)),
    "LogMinusHFactor": lambda: integrate_partition(20.0, [LogMinusHFactor(20, 128)],
                                                   precision=128),
    "HarmonicWeightFactor": _walk_of(lambda: HarmonicWeightFactor(7, 128)),
    "KernelFactor": _walk_of(lambda: KernelFactor(KernelSpec.make("Q", 0.5 + 3j), 128, 1e-30)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_result_does_not_depend_on_ambient_precision(name):
    _assert_ambient_free(CASES[name])


def test_log_minus_h_is_within_its_radius_at_low_ambient_precision():
    # the harmonic numbers were once negated at the ambient precision, which
    # put the 53-bit result 5e-18 away against a radius near 1e-35
    low = _under(53, CASES["LogMinusHFactor"])
    with mpmath.workprec(512):
        F = lambda t: t * mpmath.log(t) - t  # an antiderivative of log t
        ref = mpmath.fsum(F(k + 1) - F(k) - mpmath.harmonic(k) for k in range(1, 20))
        assert abs(low.value - ref) <= low.radius


def test_run_check_does_not_depend_on_ambient_precision():
    def cells():
        rep = run_check("k2", {"x": [10.0]})
        return rep.cells, rep.worst, rep.passed

    _assert_ambient_free(cells)


@pytest.mark.parametrize("build", [
    lambda: SummatoryFactor([1, -1, -1], FunctionSpec.const(1.0), 3.5, 64),
    lambda: InnerSumFactor([1, 1, 1], FunctionSpec.power(-1.0, 2.0), 64),
    lambda: KernelFactor(KernelSpec.make("Q", 2.0), 64),
    lambda: LogMinusHFactor(3, 64),
])
def test_walk_refuses_a_factor_with_fewer_bits(build):
    with pytest.raises(PrecisionError):
        integrate_partition(3.5, [build()], PowLogSum.monomial(mpf(1), mpf(-2), 0),
                            precision=128)


def test_factor_with_more_bits_is_accepted():
    f = SummatoryFactor([1, -1, -1], FunctionSpec.const(1.0), 3.5, 192)
    r = integrate_partition(3.5, [f], PowLogSum.monomial(mpf(1), mpf(-2), 0), precision=128)
    assert r.precision_bits == 128 and math.isfinite(r.radius)


def test_library_reads_no_ambient_precision():
    # the precision is an argument everywhere: no `mp.prec` read, no
    # `precision or ...` fallback and no numeric precision default outside
    # approx.py, which names the one default
    ambient = re.compile(r"\bmp\.prec\b|\bprecision or\b|\bprec or\b"
                         r"|\bprec(ision)?\s*(:\s*int\s*)?=\s*\d")
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "approx.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if ambient.search(line)]
    assert hits == []
