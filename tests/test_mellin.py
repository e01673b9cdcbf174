import functools
import math
import sys

import mpmath
import numpy as np
import pytest

from moebius.constants import GAMMA_F
from moebius.errors import DomainError
from moebius.mellin import (DERIVK1, DERIVK2, DERIVK3, HAR, MTRONQ, MTRONQCH, MTRONQCHCH,
                            TruncatedTransform, default_T, ent_residual, power_log_tail,
                            transform_sides, truncated_transforms)
from moebius.summatory import prefix_columns
from moebius.zeta import ComplexParam

mellin = sys.modules["moebius.mellin"]


def _agree(lhs, rhs):
    return float(mpmath.fabs(lhs.value - rhs.value)) <= lhs.radius + rhs.radius


# each identity's residual, under the id the suite lists it by
TRANSFORMS = {"mtronq_residual": MTRONQ, "mtronqch_residual": MTRONQCH,
              "mtronqchch_residual": MTRONQCHCH, "derivK1_residual": DERIVK1,
              "derivK2_residual": DERIVK2, "derivK3_residual": DERIVK3}


@pytest.mark.parametrize("name", list(TRANSFORMS))
@pytest.mark.parametrize("sigma", [1.04, 2.0])
def test_transform_identities(name, sigma):
    lhs, rhs = transform_sides(TRANSFORMS[name], [(sigma, 1000.0)], T=100_000)[0]
    assert _agree(lhs, rhs), (name, sigma)


@pytest.mark.parametrize("name", list(TRANSFORMS)[:3])
def test_m_tail_transforms_need_no_summatory_snapshot(name, monkeypatch):
    # the m-tail right-hand sides read m(x) from the streamed transform;
    # a separate mp summatory snapshot at x would be wasted work
    def refuse(*args, **kwargs):
        raise AssertionError("summatory snapshot computed")

    monkeypatch.setattr("moebius.mellin.summatory", refuse)
    lhs, rhs = transform_sides(TRANSFORMS[name], [(2.0, 1000.0)], T=100_000)[0]
    assert _agree(lhs, rhs), name


def test_transform_rejects_wrong_halfplane():
    with pytest.raises(DomainError):
        transform_sides(MTRONQ, [(0.9, 1000.0)])


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
    tt = truncated_transforms("mcheck1", 40.0, [(2.0, 10.0, 0)])[0]
    from moebius.summatory import prefix_sweep
    sw = prefix_sweep(64)
    def integrand(t):
        n = int(mpmath.floor(t))
        mcheck = sw.m[n - 1] * mpmath.log(t) - sw.Smlog[n - 1]
        return (mcheck - 1) * t**-2.0
    ref = mpmath.quad(integrand, list(range(10, 41)))
    assert abs(complex(tt.basis[0].value).real - float(ref)) <= tt.basis[0].radius + 1e-10


TAIL_T, TAIL_N = 200_000, 10**6


@functools.lru_cache(maxsize=None)
def _tail_transform():
    # the mdnorm weight reads every column that tail_coeffs(p) needs
    return truncated_transforms("mdnorm", TAIL_T, [(2.0, 1000.0, 0)])[0]


def _tail_ratio(p: int, D: float, E: float) -> float:
    """max of (|w_p(t)| - its radius) / (D + E log(t/T)) over both ends t of
    every step [n, n + 1), T <= n < 10^6, as _sup_window samples them: w_p
    from prefix_sweep(10^6), its radius the sweep's propagated radii plus 16
    ulps of the terms for the evaluation here."""
    from moebius.summatory import prefix_sweep
    sw = prefix_sweep(TAIL_N)
    at = slice(TAIL_T - 1, TAIL_N - 1)  # the sums at n = T .. 10^6 - 1
    m, s1, s2 = sw.m[at], sw.Smlog[at], sw.Smlog2[at]
    m_r, s1_r, s2_r = sw.m_rad[at], sw.Smlog_rad[at], sw.Smlog2_rad[at]
    ns = np.arange(TAIL_T, TAIL_N, dtype=np.float64)
    worst = -math.inf
    for t in (ns, ns + 1.0):
        L = np.log(t)
        if p == 0:
            terms, rad = [m], m_r
        elif p == 1:
            terms, rad = [L * m, -s1, -1.0], L * m_r + s1_r
        else:
            terms = [L**2 * m, -2 * L * s1, s2, -2 * L, 2 * GAMMA_F]
            rad = L**2 * m_r + 2 * L * s1_r + s2_r
        rad = rad + 16 * 2.0**-52 * sum(np.abs(term) for term in terms)
        ratio = (np.abs(sum(terms)) - rad) / (D + E * np.log(t / TAIL_T))
        worst = max(worst, float(np.max(ratio)))
    return worst


@pytest.mark.parametrize("p", [0, 1, 2])
def test_tail_coeffs_bound_the_weight_beyond_T(p):
    # |w_p(t)| <= D + E log(t/T) on [T, 10^6), E = 0 for p < 2
    D, E = _tail_transform().tail_coeffs(p)
    assert (E == 0.0) == (p < 2)
    assert _tail_ratio(p, D, E) <= 1.0, p


@pytest.mark.parametrize("p", [0, 2])
def test_tail_coeffs_halved_fail(p):
    # the control: half of D no longer bounds w_0 or w_2 (w_2's D is its value at T)
    D, E = _tail_transform().tail_coeffs(p)
    assert _tail_ratio(p, D / 2, E) > 1.0, p


def test_har_and_ent():
    assert _agree(*transform_sides(HAR, [(2.0, 50.0)], T=200_000)[0])
    assert _agree(*transform_sides(HAR, [(0.5 + 3j, 20.5)], T=200_000)[0])
    assert _agree(*ent_residual([(2.0, 7.0)])[0])
    assert _agree(*ent_residual([(0.5 + 10j, 33.3)])[0])


def test_transform_bad_range():
    with pytest.raises(DomainError):
        TruncatedTransform(2.0, 100.0, 50.0, "m", 0)


def test_transform_streams_past_one_segment_like_the_sweep():
    # T beyond the sieve segment (2^20): the streamed point data at T equal
    # the one-shot prefix sweep
    from moebius.summatory import PrefixSweep
    T = 1_200_000
    tt = truncated_transforms("mdnorm", T, [(2.0, 1000.0, 0)])[0]
    sw = PrefixSweep(T)
    for col, (values, radii) in {"m": (sw.m, sw.m_rad), "sl": (sw.Smlog, sw.Smlog_rad),
                                 "sl2": (sw.Smlog2, sw.Smlog2_rad),
                                 "I0": (sw.I0, sw.I0_rad)}.items():
        assert tt.at_T[col] == (values[T - 1], radii[T - 1]), col


@pytest.mark.parametrize("weight,columns", [("m", 1), ("mcheck1", 2), ("hgap", 1)])
def test_transform_sums_only_the_columns_its_weight_reads(weight, columns, monkeypatch):
    # each column is summed once over [1, T], in slices of at most
    # _SWEEP_SEGMENT values: no column spans a whole sieve segment
    summatory_module = sys.modules["moebius.summatory"]
    calls = {}  # column (its cumsum state) -> the lengths summed
    real = summatory_module.compensated_cumsum

    def counting(terms, *args, state=None, **kwargs):
        calls.setdefault(id(state), []).append(len(terms))
        return real(terms, *args, state=state, **kwargs)

    monkeypatch.setattr(summatory_module, "compensated_cumsum", counting)
    T = 1_200_000  # two sieve segments
    truncated_transforms(weight, T, [(2.0, 1000.0, 0)])
    assert [sum(lengths) for lengths in calls.values()] == [T] * columns
    assert max(max(lengths) for lengths in calls.values()) == summatory_module._SWEEP_SEGMENT


@pytest.mark.parametrize("weight", ["m", "mcheck1", "mdnorm", "hgap"])
def test_batch_equals_one_cell_transforms(weight, monkeypatch):
    # one shared stream of two sieve segments; x = 1 100 000.5 lies in the second
    T = 1_200_000
    cells = [(2.0, 1000.0, 0), (0.5 + 3j, 1000.0, 1),
             (1.5, 1_100_000.5, 1), (2.0, 1_100_000.5, 0)]
    batch = truncated_transforms(weight, T, cells)
    alone = [truncated_transforms(weight, T, [cell])[0] for cell in cells]
    for cell, got, want in zip(cells, batch, alone):
        _assert_same_transform(got, want, cell)
    if weight == "hgap":
        return
    # one stream over the cells of all three mu weights fills each as alone
    stream = mellin._stream
    merged = [(w, float(T), ComplexParam.coerce(s), x, mom)
              for w in ("m", "mcheck1", "mdnorm") for s, x, mom in cells]
    streams = []
    with monkeypatch.context() as patch:
        patch.setattr(mellin, "_stream", lambda tts: streams.append(len(tts)) or stream(tts))
        with mellin.stored_transforms(merged):
            got = [mellin._STORE[cell] for cell in merged if cell[0] == weight]
    assert streams == [len(merged)] and not mellin._STORE
    for cell, g, want in zip(cells, got, alone):
        _assert_same_transform(g, want, cell)


def _assert_same_transform(got, want, cell):
    """Basis, radii, point data at x and T and mu sums, bit for bit."""
    assert [(b.value, b.radius) for b in got.basis] == \
        [(b.value, b.radius) for b in want.basis], cell
    assert (got.at_x, got.at_T) == (want.at_x, want.at_T)
    if got.weight != "hgap":
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
    assert _agree(*transform_sides(HAR, [(2.0, 50.0)], T=200_000)[0])


LANE_T = 1_200_000  # two sieve segments
LANE_XS = (1000.0, 1_100_000.5)  # one cell starts in each segment
LANE_SIGMAS = (1 + 1e-4, 1.04, 3.0)


def _longdouble_basis(weight: str, tts) -> dict:
    """(sigma, x) -> (B_j, cond_j) for j = 0, 1: the sum by parts in
    np.longdouble, from the same float64 prefix moments at x and T, with
    Phi_j(k) = sum_i C(p, i) (-log k)^(p-i) F_{j+i}(k) and F_i = t^(1-s) G_i(log t)
    from the recurrence G_i = (log^i t - i G_{i-1}) / (1 - s); each F_{j+i}
    at x and T carries its moment and Q coefficients together, as the kernel
    adds them; cond_j sums the terms' absolute values."""
    jump, p, (q0, q_gamma, q1), reads = mellin._WEIGHTS[weight]
    q0 += q_gamma * GAMMA_F
    ld = np.longdouble
    ks = np.arange(2, LANE_T + 1, dtype=ld)
    c = 1 / ks
    if jump == "mu":
        from moebius.sieve import sieve_range
        mu = sieve_range(2, LANE_T).values
        ks, c = ks[mu != 0], (mu[mu != 0] * c[mu != 0])
    lk = np.log(ks)

    def F(a, t, n):  # F_0..F_{n-1} at t (array or scalar)
        lt = np.log(t)
        G = [1 / a + 0 * lt]
        for i in range(1, n):
            G.append((lt ** i - i * G[-1]) / a)
        return [np.exp(a * lt) * g for g in G]

    out = {}
    for s in LANE_SIGMAS:
        a = 1 - ld(s)
        Fk = F(a, ks, p + 3)
        interior = []
        for j in range(2):
            phi = sum(math.comb(p, i) * (-lk) ** (p - i) * Fk[j + i] for i in range(p + 1))
            interior.append(c * phi)
        for x in LANE_XS:
            tt = tts[s, x]
            B, cond = np.zeros(2, dtype=ld), np.zeros(2, dtype=ld)
            for j in range(2):
                terms = [-interior[j][ks > math.floor(x)]]
                for sign, y, point in ((1, ld(LANE_T), tt.at_T), (-1, ld(x), tt.at_x)):
                    Fy = F(a, y, p + 3)
                    coef = [ld(q0), ld(q1), ld(0)]
                    for i in range(p + 1):
                        coef[i] += math.comb(p, i) * (-1) ** (p - i) * ld(point[reads[p - i]][0])
                    terms.append(np.array([sign * c * f for c, f in zip(coef, Fy[j:])]))
                B[j] = sum(np.sum(t) for t in terms)
                cond[j] = sum(np.sum(np.abs(t)) for t in terms)
            out[s, x] = np.array([B, cond])
    return out


@pytest.mark.parametrize("weight,ncols", [("m", 1), ("mcheck1", 2), ("mdnorm", 3), ("hgap", 2)])
def test_real_lane_inside_complex_lane_and_longdouble(weight, ncols, monkeypatch):
    assert mellin._nterms(weight, 0) == ncols  # the F_i that B_0 reads
    cells = [(s, x, mom) for s in LANE_SIGMAS for x in LANE_XS for mom in (0, 1)]
    real = truncated_transforms(weight, LANE_T, cells)
    monkeypatch.setattr(mellin, "_real_lane_units", lambda *args: None)
    cplx = truncated_transforms(weight, LANE_T, cells)
    monkeypatch.undo()
    exact = None
    if np.finfo(np.longdouble).nmant >= 60:
        exact = _longdouble_basis(weight, {(s, x): r for (s, x, _), r in zip(cells, real)})
    for (s, x, mom), r, c in zip(cells, real, cplx):
        units = mellin._real_lane_units(ComplexParam(s), LANE_T,
                                        mellin._nterms(weight, mom), mom)
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
    # every registry and workload cell: T up to 1e7, mom <= 1, every weight
    for T in (4e5, 1e6, 1e7):
        for mom in (0, 1):
            for weight in mellin._WEIGHTS:
                nterms = mellin._nterms(weight, mom)
                units = mellin._real_lane_units(ComplexParam(sigma), T, nterms, mom)
                assert units is not None and units < mellin._BLANKET_UNITS, (T, mom, weight)


def test_complex_lane_keeps_what_the_real_lane_cannot_prove():
    for s in (ComplexParam(2.0, 1.0), ComplexParam(1.0), ComplexParam(0.5),
              ComplexParam(80.0)):  # the last would underflow t^(1-s) before 1e7
        assert mellin._real_lane_units(s, 1e7, 2, 0) is None, s


def test_har_at_real_sigma_at_most_one(capsys):
    # real sigma <= 1 reaches the transforms only through a user's --s, on the complex lane
    from moebius.cli import main
    assert main(["verify", "--suite", "har", "--s", "0.5,0.9", "--stable-output"]) == 0
    assert '"pass": true' in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The basis integrals against an mpmath oracle at 128 bits, built unit piece by
# unit piece from exact mu: independent of the summation by parts.
# ---------------------------------------------------------------------------

ORACLE_T = 2500.5
ORACLE_SEGMENT = 1024  # three sieve segments up to T
# x = 1, fractional, integer, in the second segment, in T's unit interval, x = T
ORACLE_XS = (1.0, 7.25, 1000.0, 1500.75, 2500.25, ORACLE_T)
# real lane (1.5, 2, 3) and complex lane (0.5 + 3i, real 0.8)
ORACLE_S = (1.5, 2.0, 3.0, 0.5 + 3j, 0.8)
ORACLE_PREC = 128


@functools.lru_cache(maxsize=None)
def _oracle_F(s) -> dict:
    """t -> [F_0(t), .., F_3(t)] in mpmath for t = 1 .. floor(T) + 1 and every x."""
    with mpmath.workprec(ORACLE_PREC):
        a = 1 - mpmath.mpmathify(s)
        out = {}
        for t in [*range(1, math.floor(ORACLE_T) + 2), *ORACLE_XS]:
            lt = mpmath.log(t)
            G = [1 / a]
            for i in range(1, 4):
                G.append((lt ** i - i * G[-1]) / a)
            E = mpmath.exp(a * lt)
            out[t] = [E * g for g in G]
        return out


@functools.lru_cache(maxsize=None)
def _oracle_moments(weight: str) -> list:
    """[M_0(n), .., M_p(n)] in mpmath for n = 0 .. floor(T): the prefix sums
    of c_k log^r k from exact mu (sieve.nonzero_mu), or c_k = 1/k."""
    from moebius.sieve import nonzero_mu
    jump, p, _, _ = mellin._WEIGHTS[weight]
    N = math.floor(ORACLE_T)
    with mpmath.workprec(ORACLE_PREC):
        ck = dict(nonzero_mu(N)) if jump == "mu" else dict.fromkeys(range(1, N + 1), 1)
        run = [mpmath.mpf(0)] * (p + 1)
        out = [list(run)]
        for k in range(1, N + 1):
            if k in ck:
                c, lk = mpmath.mpf(ck[k]) / k, mpmath.log(k)
                run = [run[r] + c * lk ** r for r in range(p + 1)]
            out.append(list(run))
        return out


@functools.lru_cache(maxsize=None)
def _oracle_pieces(weight: str, s, j: int):
    """piece(n, lo, hi) = integral_lo^hi w(t) t^(-s) log^j t dt for [lo, hi]
    in [n, n+1], where w(t) = sum_i C(p, i) log^i t (-1)^(p-i) M_{p-i}(n) +
    Q(log t), and the running sums of the unit pieces [n, n+1], n >= 1."""
    _, p, (q0, q_gamma, q1), _ = mellin._WEIGHTS[weight]
    F, M = _oracle_F(s), _oracle_moments(weight)
    with mpmath.workprec(ORACLE_PREC):
        q0 = q0 + q_gamma * mpmath.euler

    def piece(n, lo, hi):
        with mpmath.workprec(ORACLE_PREC):
            d = [F[hi][i] - F[lo][i] for i in range(4)]
            return (sum(math.comb(p, i) * (-1) ** (p - i) * M[n][p - i] * d[j + i]
                        for i in range(p + 1)) + q0 * d[j] + q1 * d[j + 1])

    run = [mpmath.mpf(0), mpmath.mpf(0)]
    for n in range(1, math.floor(ORACLE_T)):
        run.append(run[-1] + piece(n, n, n + 1))
    return piece, run


def _oracle_basis(weight: str, s, x: float, j: int):
    """integral_x^T w(t) t^(-s) log^j t dt, unit piece by unit piece."""
    piece, run = _oracle_pieces(weight, s, j)
    N, NT = math.floor(x), math.floor(ORACLE_T)
    if N == NT:
        return piece(N, x, ORACLE_T)
    with mpmath.workprec(ORACLE_PREC):
        return piece(N, x, N + 1) + (run[NT] - run[N + 1]) + piece(NT, NT, ORACLE_T)


@functools.lru_cache(maxsize=None)
def _edge_columns(weight: str, radii_kept: bool = True):
    """prefix_columns with every prefix moment moved from its exact value
    (_oracle_moments) to 0.9 of its radius above it: data the columns'
    radii admit, on which only the propagated moment radii cover B.  With
    radii_kept false the columns report radius 0, as if the transform
    dropped the boundary moments' radii."""
    _, p, _, reads = mellin._WEIGHTS[weight]
    exact = _oracle_moments(weight)
    moved = {}

    def columns(N, cols, segment_size=ORACLE_SEGMENT):
        for seg in prefix_columns(N, cols, segment_size):
            for r, key in enumerate(reads[:p + 1]):
                radii = seg.cols[key][1]
                if (seg.lo, key) not in moved:
                    with mpmath.workprec(ORACLE_PREC):
                        moved[seg.lo, key] = np.array(
                            [float(exact[n][r] + 0.9 * mpmath.mpf(float(rad)))
                             for n, rad in zip(range(seg.lo, seg.hi + 1), radii)])
                seg.cols[key] = (moved[seg.lo, key], radii if radii_kept else 0 * radii)
            yield seg
    return columns


def _oracle_misses(weight: str, columns) -> list:
    """The (s, x, mom, j) whose basis value from `columns` is farther from the
    oracle than its radius; the cells cover both lanes."""
    cells = [(s, x, mom) for s in ORACLE_S for x in ORACLE_XS for mom in (0, 1)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mellin, "prefix_columns", columns)
        tts = truncated_transforms(weight, ORACLE_T, cells)
    lanes, out = set(), []
    for (s, x, mom), tt in zip(cells, tts):
        lanes.add(mellin._real_lane_units(tt.s, ORACLE_T, mellin._nterms(weight, mom), mom)
                  is None)
        for j, b in enumerate(tt.basis):
            if abs(complex(b.value) - complex(_oracle_basis(weight, s, x, j))) > b.radius:
                out.append((s, x, mom, j))
    assert lanes == {True, False}
    return out


@pytest.mark.parametrize("block", [mellin._BLOCK, 37])
@pytest.mark.parametrize("edge", [False, True])
@pytest.mark.parametrize("weight", ["m", "mcheck1", "mdnorm", "hgap"])
def test_basis_against_mpmath_oracle(weight, edge, block, monkeypatch):
    # block 37 puts many blocks, and partial first blocks, in each segment
    monkeypatch.setattr(mellin, "_BLOCK", block)
    columns = (_edge_columns(weight) if edge else
               functools.partial(prefix_columns, segment_size=ORACLE_SEGMENT))
    assert _oracle_misses(weight, columns) == []


@pytest.mark.parametrize("weight", ["m", "mcheck1", "mdnorm", "hgap"])
def test_oracle_fails_without_the_boundary_moments_radius(weight):
    # the negative control: the same moved columns reporting radius 0
    assert _oracle_misses(weight, _edge_columns(weight, radii_kept=False))


# ---------------------------------------------------------------------------
# The mu power sums below x against the fixed-point engine (identities), and
# the bit-identity premise of computing the jumps' logs block by block.
# ---------------------------------------------------------------------------

MU_S = (2.0, 3.0, 1 + 1e-4, 0.5 + 3j, 1.5 + 2j)  # real lane, then complex lane


def _jumps(lo: int, hi: int) -> list[int]:
    """The k in [lo, hi] with mu(k) != 0."""
    from moebius.sieve import sieve_range
    return [lo + i for i in np.flatnonzero(sieve_range(lo, hi).values).tolist()]


def _mu_sum_misses(T: float, xs, columns=prefix_columns) -> list:
    """The (s, x, name) whose mu_power_x or mu_logpower_x is farther from
    identities' fixed-point sums than the two radii; the cells cover both
    lanes."""
    from moebius.identities import mu_log_power_sum, mu_power_sum
    cells = [(s, x, 0) for s in MU_S for x in xs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mellin, "prefix_columns", columns)
        tts = truncated_transforms("m", T, cells)
    lanes, out = set(), []
    for (s, x, _), tt in zip(cells, tts):
        lanes.add(mellin._real_lane_units(tt.s, T, 1, 0) is None)
        for name, oracle in (("mu_power_x", mu_power_sum), ("mu_logpower_x", mu_log_power_sum)):
            got, want = getattr(tt, name), oracle(x, s, ORACLE_PREC)
            if abs(complex(got.value) - complex(want.value)) > got.radius + want.radius:
                out.append((s, x, name))
    assert lanes == {True, False}
    return out


@pytest.mark.parametrize("block", [mellin._BLOCK, 37])
def test_mu_sums_against_the_fixed_point_engine(block, monkeypatch):
    # three 1024-value sieve segments up to T; x = 1, fractional, the last
    # jump of the first block and the first of the second, x in the second
    # segment, in T's unit interval, and x = T
    monkeypatch.setattr(mellin, "_BLOCK", block)
    first = _jumps(1, ORACLE_SEGMENT)
    edge = [float(first[block - 1]), float(first[block])] if block < len(first) else []
    xs = (1.0, 7.25, *edge, 1501.5, 2500.25, ORACLE_T)
    columns = functools.partial(prefix_columns, segment_size=ORACLE_SEGMENT)
    assert _mu_sum_misses(ORACLE_T, xs, columns) == []


def test_mu_sums_at_the_default_block_boundary():
    # one sieve segment holds more than _BLOCK jumps below T
    jumps = _jumps(1, 30_000)
    B = mellin._BLOCK
    assert _mu_sum_misses(30_000.5, (float(jumps[B - 1]), float(jumps[B]), 30_000.5)) == []


def test_mu_sums_fail_when_the_blocks_split_one_jump_early(monkeypatch):
    # the negative control: a cell whose blocks split at floor(x) - 1 counts
    # the jump at floor(x) in its interior, not in its sums below x
    class EarlySplit(mellin._Cell):
        def __init__(self, tt):
            super().__init__(tt)
            self.Nx -= 1

    xs = (7.25, 1501.5)
    from moebius.sieve import sieve_range
    assert all(sieve_range(1, 1502).mu(math.floor(x)) != 0 for x in xs)
    monkeypatch.setattr(mellin, "_Cell", EarlySplit)
    misses = _mu_sum_misses(ORACLE_T, xs)
    assert {(s, x) for s, x, _ in misses} == {(s, x) for s in MU_S for x in xs}


def test_blockwise_logs_and_exps_equal_the_whole_array_bit_for_bit():
    # the transform takes log k and exp(a log k) of each block's gathered
    # jumps, into views of reused buffers; the same values over a whole
    # sieve segment, then gathered, must agree bit for bit
    from moebius.sieve import sieve_range
    lo, N = 2**20 + 1, 2**20
    ns = np.arange(lo, lo + N, dtype=np.float64)
    logs = np.log(ns)
    idx = np.flatnonzero(sieve_range(lo, lo + N - 1).values)
    lbuf = np.empty(mellin._BLOCK + 7)
    for a in (-1.0, -0.0001, complex(-0.5, 3.0)):
        whole = np.exp(a * logs)
        ebuf = np.empty(mellin._BLOCK + 7, dtype=whole.dtype)
        for jumps in (idx, np.arange(N)):  # mu weights, and every n for hgap
            for b0 in range(0, len(jumps), mellin._BLOCK):
                blk = jumps[b0:b0 + mellin._BLOCK]
                lk = lbuf[:len(blk)]
                np.log(np.add(blk, lo, out=lk), out=lk)
                assert lk.tobytes() == logs[blk].tobytes(), (a, b0)
                E = ebuf[:len(blk)]
                np.exp(np.multiply(a, lk, out=E), out=E)
                assert E.tobytes() == whole[blk].tobytes(), (a, b0)
