import math
import sys

import mpmath
import numpy as np
import pytest

from moebius.errors import DomainError
from moebius.mellin import (TruncatedTransform, default_T, derivK1_residual,
                            derivK2_residual, derivK3_residual, ent_residual,
                            har_residual, mtronq_residual, mtronqch_residual,
                            mtronqchch_residual, power_log_tail, truncated_transforms)
from moebius.summatory import prefix_columns
from moebius.zeta import ComplexParam

mellin = sys.modules["moebius.mellin"]


def _agree(lhs, rhs):
    return float(mpmath.fabs(lhs.value - rhs.value)) <= lhs.radius + rhs.radius


TRANSFORMS = [mtronq_residual, mtronqch_residual, mtronqchch_residual,
              derivK1_residual, derivK2_residual, derivK3_residual]


@pytest.mark.parametrize("fn", TRANSFORMS)
@pytest.mark.parametrize("sigma", [1.04, 2.0])
def test_transform_identities(fn, sigma):
    lhs, rhs = fn(sigma, 1000.0, T=100_000)
    assert _agree(lhs, rhs), (fn.__name__, sigma)


@pytest.mark.parametrize("fn", [mtronq_residual, mtronqch_residual, mtronqchch_residual])
def test_m_tail_transforms_need_no_summatory_snapshot(fn, monkeypatch):
    # the m-tail right-hand sides read m(x) from the streamed transform;
    # a separate mp summatory snapshot at x would be wasted work
    def refuse(*args, **kwargs):
        raise AssertionError("summatory snapshot computed")

    monkeypatch.setattr("moebius.mellin.summatory", refuse)
    lhs, rhs = fn(2.0, 1000.0, T=100_000)
    assert _agree(lhs, rhs), fn.__name__


def test_transform_rejects_wrong_halfplane():
    with pytest.raises(DomainError):
        mtronq_residual(0.9, 1000.0)


def test_default_T_policy():
    assert default_T(10.0) == 10**6
    assert default_T(1e4) == 10**7
    assert default_T(1e6) == 10**7  # capped


def test_power_log_tail_closed_form():
    # against direct quadrature on a finite horizon proxy
    sigma, T = 2.5, 50.0
    val = power_log_tail(sigma, T, 1)
    ref = mpmath.quad(lambda t: t**-sigma * mpmath.log(t / T), [T, 200, 1e4, mpmath.inf])
    assert abs(val - float(ref)) < 1e-10


def test_basis_integral_against_quad():
    # int_x^T (mcheck(t)-1) t^-s dt against mpmath piecewise quadrature
    tt = TruncatedTransform(2.0, 10.0, 40.0, "mcheck1", 0)
    from moebius.summatory import prefix_sweep
    sw = prefix_sweep(64)
    def integrand(t):
        n = int(mpmath.floor(t))
        mcheck = sw.m[n - 1] * mpmath.log(t) - sw.Smlog[n - 1]
        return (mcheck - 1) * t**-2.0
    ref = mpmath.quad(integrand, list(range(10, 41)))
    assert abs(complex(tt.basis[0].value).real - float(ref)) <= tt.basis[0].radius + 1e-10


def test_mdnorm_tail_coefficients_positive():
    tt = TruncatedTransform(2.0, 1000.0, 200_000.0, "mdnorm", 0)
    D, E = tt.mdnorm_tail_coeffs()
    assert 0 < D < 5 and 0 < E < 0.1


def test_har_and_ent():
    assert _agree(*har_residual(2.0, 50.0, T=200_000))
    assert _agree(*har_residual(0.5 + 3j, 20.5, T=200_000))
    assert _agree(*ent_residual(2.0, 7.0))
    assert _agree(*ent_residual(0.5 + 10j, 33.3))


def test_transform_bad_range():
    with pytest.raises(DomainError):
        TruncatedTransform(2.0, 100.0, 50.0, "m", 0)


def test_transform_streams_past_one_segment_like_the_sweep():
    # T beyond the sieve segment (2^20): the streamed point data at T equal
    # the one-shot prefix sweep
    from moebius.summatory import PrefixSweep
    T = 1_200_000
    tt = TruncatedTransform(2.0, 1000.0, T, "mdnorm", 0)
    sw = PrefixSweep(T)
    for col, (values, radii) in {"m": (sw.m, sw.m_rad), "sl": (sw.Smlog, sw.Smlog_rad),
                                 "sl2": (sw.Smlog2, sw.Smlog2_rad),
                                 "I0": (sw.I0, sw.I0_rad)}.items():
        assert tt.at_T[col] == (values[T - 1], radii[T - 1]), col


@pytest.mark.parametrize("weight,columns", [("m", 1), ("mcheck1", 2), ("hgap", 1)])
def test_transform_sums_only_the_columns_its_weight_reads(weight, columns, monkeypatch):
    summatory_module = sys.modules["moebius.summatory"]
    calls = []
    real = summatory_module.compensated_cumsum

    def counting(terms, *args, **kwargs):
        calls.append(len(terms))
        return real(terms, *args, **kwargs)

    monkeypatch.setattr(summatory_module, "compensated_cumsum", counting)
    T = 1_200_000  # two sieve segments
    TruncatedTransform(2.0, 1000.0, T, weight, 0)
    assert sorted(calls) == sorted([T - 2**20, 2**20] * columns)


@pytest.mark.parametrize("weight", ["m", "mcheck1", "mdnorm", "hgap"])
def test_batch_equals_one_cell_transforms(weight):
    # one shared stream of two sieve segments; x = 1 100 000.5 lies in the second
    T = 1_200_000
    cells = [(2.0, 1000.0, 0), (0.5 + 3j, 1000.0, 1),
             (1.5, 1_100_000.5, 1), (2.0, 1_100_000.5, 0)]
    batch = truncated_transforms(weight, T, cells)
    for (s, x, mom), got in zip(cells, batch):
        want = TruncatedTransform(s, x, T, weight, mom)
        assert [(b.value, b.radius) for b in got.basis] == \
            [(b.value, b.radius) for b in want.basis], (s, x, mom)
        assert (got.at_x, got.at_T) == (want.at_x, want.at_T)
        if weight != "hgap":
            for name in ("mu_power_x", "mu_logpower_x"):
                g, w = getattr(got, name), getattr(want, name)
                assert (g.value, g.radius) == (w.value, w.radius), name


def test_transform_check_streams_once(monkeypatch, capsys):
    # 2 s x 2 x cells of an m-weight check share one stream of [1, T]
    summatory_module = sys.modules["moebius.summatory"]
    calls = []
    real = summatory_module.compensated_cumsum

    def counting(terms, *args, **kwargs):
        calls.append(len(terms))
        return real(terms, *args, **kwargs)

    monkeypatch.setattr(summatory_module, "compensated_cumsum", counting)
    from moebius.cli import main
    assert main(["verify", "--suite", "mtronq", "--s", "1.2,2.0", "--T", "4e5",
                 "--stable-output"]) == 0
    assert '"pass": true' in capsys.readouterr().out
    assert sum(calls) == 400_000


def test_hgap_transform_needs_no_sieve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sieved")

    monkeypatch.setattr(sys.modules["moebius.summatory"], "iter_segments", refuse)
    monkeypatch.setattr(sys.modules["moebius.sieve"], "_sieve_segment", refuse)
    assert _agree(*har_residual(2.0, 50.0, T=200_000))


LANE_T = 1_200_000  # two sieve segments
LANE_XS = (1000.0, 1_100_000.5)  # one cell starts in each segment
LANE_SIGMAS = (1 + 1e-4, 1.04, 3.0)


def _longdouble_basis(weight: str) -> dict:
    """(sigma, x) -> (B_j, cond_j) for j = 0, 1: the pieces of [x, LANE_T] in
    np.longdouble, from the same float64 breakpoints and coefficients."""
    reads, coefficients = mellin._WEIGHTS[weight]
    ld = np.longdouble
    out = {(s, x): np.zeros((2, 2), dtype=ld) for s in LANE_SIGMAS for x in LANE_XS}
    for seg in prefix_columns(LANE_T, reads):
        for x in LANE_XS:
            lo, hi = max(x, seg.lo), min(LANE_T, seg.hi + 1.0)
            if lo >= hi:
                continue
            breaks = np.unique([lo, *range(math.floor(lo) + 1, math.floor(hi) + 1), hi])
            idx = np.floor(breaks[:-1]).astype(np.int64) - seg.lo
            c = seg.cols
            cols = coefficients({k: (c[k][0][idx], c[k][1][idx]) for k in reads if k != "I0"})
            lt = np.log(breaks.astype(ld))
            for s in LANE_SIGMAS:
                a = 1 - ld(s)
                E = np.exp(a * lt)
                G = [np.full(len(lt), 1 / a)]
                for i in range(1, 1 + len(cols)):
                    G.append((lt ** i - i * G[-1]) / a)
                F = [E * g for g in G]
                aF = [np.abs(f[1:]) + np.abs(f[:-1]) for f in F]
                for j in range(2):
                    for k, (w, _) in enumerate(cols):
                        f = F[j + k]
                        out[s, x][0, j] += np.sum(w.astype(ld) * (f[1:] - f[:-1]))
                        out[s, x][1, j] += np.sum(np.abs(w) * aF[j + k])
    return out


@pytest.mark.parametrize("weight,ncols", [("m", 1), ("mcheck1", 2), ("mdnorm", 3), ("hgap", 2)])
def test_real_lane_inside_complex_lane_and_longdouble(weight, ncols, monkeypatch):
    cells = [(s, x, mom) for s in LANE_SIGMAS for x in LANE_XS for mom in (0, 1)]
    real = truncated_transforms(weight, LANE_T, cells)
    monkeypatch.setattr(mellin, "_real_lane_units", lambda *args: None)
    cplx = truncated_transforms(weight, LANE_T, cells)
    monkeypatch.undo()
    exact = _longdouble_basis(weight) if np.finfo(np.longdouble).nmant >= 60 else None
    for (s, x, mom), r, c in zip(cells, real, cplx):
        units = mellin._real_lane_units(ComplexParam(s), LANE_T, mom + ncols, ncols)
        for j, (rb, cb) in enumerate(zip(r.basis, c.basis)):
            where = (s, x, mom, j)
            assert isinstance(rb.value, complex) and rb.value.imag == 0, where
            assert abs(rb.value - cb.value) <= cb.radius, where
            assert rb.radius <= cb.radius, where
            if exact is not None:
                # the rounding part of the real radius alone covers the error;
                # 2^-10 allows for the longdouble evaluation's own rounding
                B, cond = exact[s, x][:, j]
                assert abs(np.longdouble(rb.value.real) - B) \
                    <= 2.0**-52 * units * float(cond) * (1 + 2.0**-10), where


@pytest.mark.parametrize("sigma", [1 + 1e-4, 1.04, 1.5, 2.0, 3.0])
def test_real_lane_constant_below_the_blanket(sigma):
    # every registry and workload cell: T up to 1e7, mom <= 1, up to 3 coefficients
    for T in (4e5, 1e6, 1e7):
        for mom in (0, 1):
            for ncols in (1, 2, 3):
                units = mellin._real_lane_units(ComplexParam(sigma), T, mom + ncols, ncols)
                assert units is not None and units < mellin._BLANKET_UNITS, (T, mom, ncols)


def test_complex_lane_keeps_what_the_real_lane_cannot_prove():
    for s in (ComplexParam(2.0, 1.0), ComplexParam(1.0), ComplexParam(0.5),
              ComplexParam(80.0)):  # the last would underflow t^(1-s) before 1e7
        assert mellin._real_lane_units(s, 1e7, 2, 1) is None, s


def test_har_at_real_sigma_at_most_one(capsys):
    # real sigma <= 1 reaches the transforms only through a user's --s, on the complex lane
    from moebius.cli import main
    assert main(["verify", "--suite", "har", "--s", "0.5,0.9", "--stable-output"]) == 0
    assert '"pass": true' in capsys.readouterr().out


def _whole_array_pieces(seg, x, T, reads, coefficients, group):
    """The pieces of [x, T] in this segment as they were before the blocked
    kernel: one pass over the whole segment's arrays per step, one np.sum of
    each segment sum."""
    lo_t = max(x, float(seg.lo))
    hi_t = min(T, float(seg.hi + 1))
    if lo_t >= hi_t:
        return
    first_n = math.floor(lo_t)
    ends = np.arange(first_n + 1, math.floor(hi_t) + 1, dtype=np.float64)
    breaks = np.concatenate(([lo_t], ends))
    if breaks[-1] != hi_t:
        breaks = np.concatenate((breaks, [hi_t]))
    rel = slice(first_n - seg.lo, first_n - seg.lo + len(breaks) - 1)
    c = seg.cols
    cols = coefficients({k: (c[k][0][rel], c[k][1][rel]) for k in reads if k != "I0"})
    abs_w = [np.abs(w) for w, _ in cols]
    lb = np.log(breaks)
    for acc in group:
        mom_max, a = acc.tt.mom_max, 1.0 - acc.sm
        E = np.exp(a * lb)
        G = np.full(len(lb), 1.0 / a, dtype=np.result_type(acc.sm, lb))
        for i in range(mom_max + len(cols)):
            if i:
                G = (lb ** i - i * G) / a
            f = E * G
            dF = f[1:] - f[:-1]
            af = np.abs(f)
            aF = af[1:] + af[:-1]
            for j in range(max(0, i - len(cols) + 1), min(i, mom_max) + 1):
                w, wrad = cols[i - j]
                acc.B[j] += np.sum(w * dF)
                acc.cond[j] += float(np.sum(abs_w[i - j] * aF))
                acc.sens[j] += float(np.sum(wrad * aF))


BLOCK = mellin._BLOCK


@pytest.mark.parametrize("weight", ["m", "mcheck1", "mdnorm", "hgap"])
def test_work_arrays_leave_every_bit_of_the_sums(weight, monkeypatch):
    # real lane (sigma > 1) and complex lane (0.5 + 3i, real 0.7) share each
    # (segment, x) group.  [1, LANE_T] is two sieve segments (the first ends
    # at 2^20): x = 1 000 000 spans both, x = 1 100 000.5 starts in the
    # second; x = T leaves no piece, T - 0.5 one, and T - BLOCK + 1 .. T -
    # BLOCK - 1 put BLOCK - 1 .. BLOCK + 1 pieces in one segment; a fractional
    # T ends the last piece inside its unit interval
    T = LANE_T
    runs = [(T, (1_000_000.0, 1_100_000.5, T, T - 0.5, T - BLOCK + 1, T - BLOCK,
                 T - BLOCK - 1)), (40_000.5, (1000.0, 39_999.75))]
    sums = []
    monkeypatch.setattr(mellin, "_mu_power_sums", lambda *args: None)
    monkeypatch.setattr(mellin._Sums, "finish", lambda acc, need_mu: sums.append(
        [a.tobytes() for a in (acc.B, acc.cond, acc.sens)]))
    for T, xs in runs:
        cells = [(s, x, mom) for s in (1 + 1e-4, 2.0, 3.0, 0.5 + 3j, 0.7)
                 for x in xs for mom in (0, 1)]
        truncated_transforms(weight, T, cells)
        new, sums[:] = list(sums), []
        with monkeypatch.context() as patch:
            patch.setattr(mellin, "_pieces", _whole_array_pieces)
            truncated_transforms(weight, T, cells)
        assert len(new) == len(cells)
        assert new == sums
        sums[:] = []


TREE_SIZES = [*range(1, 301), BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 399_001,
              2**20, 2**20 + 1]


def test_block_sums_follow_numpy_pairwise_tree():
    # the kernel's leaf sums, combined up the tree, are np.sum bit for bit: a
    # numpy release that sums in another order fails here
    rng = np.random.default_rng(20)
    for n in TREE_SIZES:
        for kind, dtype in (("f", np.float64), ("c", np.complex128)):
            terms = rng.standard_cauchy(n) * 1e3
            if kind == "c":
                terms = terms + 1j * rng.standard_cauchy(n)
            leaves = mellin._leaves(n, kind)
            assert leaves[0][0] == 0 and leaves[-1][1] == n
            assert all(b - a <= BLOCK for a, b in leaves)
            got = mellin._tree_sum(n, kind, (np.sum(terms[a:b]) for a, b in leaves))
            assert got.dtype == dtype and got.tobytes() == np.sum(terms).tobytes(), (n, dtype)
