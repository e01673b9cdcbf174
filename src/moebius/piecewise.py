"""Exact closed-form integration over breakpoint partitions.

Integrands here are products of step-indexed "piece factors" that are, on each
piece of the partition, an exact element of the family

    sum over terms of  c * t^p * log(t)^k     (complex c, p; integer k >= 0)

which is closed under products and under antidifferentiation (the p = -1 case
produces pure log powers).  The partition merges the integers <= x with the
points x/n, so floor(t), every truncated power sum in t, and every summatory
value at x/t are constant in structure between consecutive breakpoints: each
piece contributes an antiderivative difference, not a quadrature estimate.

Compiled shape: every factor declares its index (N = floor(x/t), K = floor(t),
or none) and a fixed list of (exponent, log degree) slots; only the slot
coefficients change from piece to piece.  So each integrand's shapes are
multiplied out once per call and composed with the antiderivative (a fixed
linear map per (p, j), see `_antiderivative`) into one map from the factors'
slot tuples to the antiderivative's slots t^q log^i t.

Batches: `integrate_partitions` integrates many integrands over [1, x] in one
walk of the partition per need_inverse_points flag (integrands with an
N-indexed factor need the points x/n; the rest walk the integers alone), and
`integrate_partition` is its batch of one.  Shared across the batch, per
breakpoint: log t, and t^q once per distinct exponent q of all integrands;
per distinct compiled shape (the same slots over the same exponents): the
slot values t^q log^i t and their difference across each piece.  Each
breakpoint is computed once and serves the two pieces that meet there.  Per
integrand, unchanged from integrating it alone: its compiled terms, its
coefficient vectors (computed once per distinct index value, as adjacent
pieces share N or K), their products, the dot product with the shape's
endpoint difference, and its running total, condition and zeta sums, in the
same order, so every value and radius equals the lone integral's bit for bit.
The walk's state is rolling, O(integrands x slots) and never O(pieces).

Radius accounting: all arithmetic runs at 96 guard bits; each piece adds to a
condition tracker the absolute-coefficient evaluation of its integrand's
antiderivative at both endpoints plus the contribution magnitude, and the
final radius is eps(prec) * 64 * tracker, a generous cover for every rounding
and cancellation the piece can contain at that operation count.  A factor
with imported zeta data (the Q and R kernels) also carries a zeta column, the
derivative of its coefficients in zeta(s); the same map turns it into the
integral's sensitivity to zeta, which the zeta radius multiplies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import mpmath
from mpmath import mpf

from .approx import ApproxValue, RIGOROUS, eps_for, radd
from .constants import gamma_const
from .dsum import DirichletTable
from .errors import CapacityError, DomainError, UnsupportedKernelError
from .kernels import LITTLE_Q, R, CellKernel, KernelSpec
from .zeta import ComplexParam, power_prefix_table

_GUARD = 96
MAX_PARTITION_X = 10_000_000


# ---------------------------------------------------------------------------
# The symbolic family.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """One monomial kernel c * t^p * log(t)^k."""

    c: complex = 1.0
    p: complex = 0.0
    k: int = 0

    def __post_init__(self):
        if self.k < 0 or int(self.k) != self.k:
            raise UnsupportedKernelError("log power k must be a nonnegative integer")

    @classmethod
    def const(cls, c=1.0) -> "FunctionSpec":
        return cls(c, 0.0, 0)

    @classmethod
    def power(cls, p, c=1.0) -> "FunctionSpec":
        return cls(c, p, 0)

    @classmethod
    def log(cls, k: int = 1, c=1.0) -> "FunctionSpec":
        return cls(c, 0.0, k)

    @classmethod
    def t_log(cls, k: int = 1, c=1.0) -> "FunctionSpec":
        return cls(c, 1.0, k)

    def __call__(self, u):
        with mpmath.mp.workprec(mpmath.mp.prec + 16):
            um = mpmath.mpmathify(u)
            v = mpmath.mpmathify(self.c) * mpmath.power(um, self.p)
            if self.k:
                v *= mpmath.log(um) ** self.k
        return v

    def describe(self) -> str:
        parts = []
        if self.c != 1.0 or (self.p == 0 and self.k == 0):
            parts.append(f"{self.c}")
        if self.p != 0:
            parts.append(f"t^{self.p}")
        if self.k:
            parts.append(f"log^{self.k} t" if self.k > 1 else "log t")
        return "*".join(parts) or "1"


class PowLogSum:
    """sum_i c_i t^{p_i} log(t)^{k_i}: a factor that is the same on every piece.

    abs_values[i] dominates |values[i]| for the radius model, also through
    cancellations in how the coefficient was built.
    """

    __slots__ = ("shape", "values", "abs_values")
    index = None

    def __init__(self):
        self.shape, self.values, self.abs_values = [], [], []

    @classmethod
    def monomial(cls, c, p, k: int, abs_c: float | None = None) -> "PowLogSum":
        out = cls()
        out.add_monomial(c, p, k, abs_c)
        return out

    @classmethod
    def from_spec(cls, fs: FunctionSpec) -> "PowLogSum":
        return cls.monomial(mpmath.mpmathify(fs.c), fs.p, fs.k)

    def add_monomial(self, c, p, k: int, abs_c: float | None = None) -> None:
        self.shape.append((mpmath.mpmathify(p), k))
        self.values.append(c)
        self.abs_values.append(abs(complex(c)) if abs_c is None else abs_c)

    def coeffs(self, idx):
        return self.values, self.abs_values


def _antiderivative(p, j: int) -> list:
    """[(q, i, coef)] with integral t^p log^j t dt = sum coef t^q log^i t.

    p != -1: t^{p+1} sum_{i<=j} (-1)^{j-i} (j!/i!) / (p+1)^{j-i+1} log^i t;
    p == -1: log^{j+1} t / (j+1).
    """
    if p == -1:
        return [(mpf(0), j + 1, mpf(1) / (j + 1))]
    q = p + 1
    out = []
    for i in range(j, -1, -1):
        coef = (mpf(math.factorial(j)) / math.factorial(i)) / q ** (j - i + 1)
        out.append((q, i, -coef if (j - i) % 2 else coef))
    return out


# ---------------------------------------------------------------------------
# Partition.
# ---------------------------------------------------------------------------

class Partition:
    """Sorted breakpoints of [1, x]: the integers <= x merged with x/n, n <= x.

    Between consecutive breakpoints floor(t), floor(x/t), and hence every
    step-indexed factor, is constant in structure.
    """

    def __init__(self, x: float, need_inverse_points: bool = True):
        if x < 1:
            raise DomainError(f"x must be >= 1, got {x}")
        if x > MAX_PARTITION_X:
            raise CapacityError(
                f"partition for x = {x} would exceed ~{2 * MAX_PARTITION_X} pieces")
        self.x = x
        N = math.floor(x)
        with mpmath.mp.workprec(mpmath.mp.prec + _GUARD):
            xm = mpf(x)
            pts = [mpf(n) for n in range(1, N + 1)]
            if mpf(N) != xm:
                pts.append(xm)
            if need_inverse_points:
                pts.extend(xm / n for n in range(2, N + 1))
            # rounding to float is monotone, so the float key orders as the
            # mpf values do and leaves only float ties to mpf comparisons
            pts = sorted(set(pts), key=lambda p: (float(p), p))
        self.points = pts

    def __len__(self):
        return len(self.points)

    def pieces(self):
        """Yield (a, b, N=floor(x/mid), K=floor(mid)) per piece."""
        x = mpf(self.x)
        for a, b in zip(self.points, self.points[1:]):
            mid = (a + b) / 2
            K = int(mid)  # int() truncates: floor, as mid >= 1
            N = int(x / mid)
            yield a, b, N, K


# ---------------------------------------------------------------------------
# Piece factors: index ("N", "K" or None), shape [(p, k)], and
# coeffs(idx) -> (values, abs_values) aligned with the shape.
# ---------------------------------------------------------------------------

def _running_sums(columns) -> tuple[list, list]:
    """Per column of per-index terms: the prefix sums from 0, and the prefix
    sums of the terms' absolute values that the radius model reads."""
    return ([list(accumulate(col, initial=mpf(0))) for col in columns],
            [list(accumulate((abs(complex(t)) for t in col), initial=0.0)) for col in columns])


class SummatoryFactor:
    """S_a omega(x/t) = sum_{n <= x/t} a(n) omega((x/n)/t), indexed by
    N = floor(x/t), plus optional constants `offset[j]` on log^j t (only for
    omega.p == 0, where they share the shape's t^0 log^j t slots).

    omega(u) = c u^p log^k u gives, with L_n = log(x/n) and A_n = (x/n)^p,
    the t-polynomial  c t^{-p} sum_j C(k,j)(-1)^j log^j t * W_{k-j}(N),
    W_i(N) = sum_{n<=N} a(n) A_n L_n^i.  The W_i are prefix tables.
    """

    index = "N"

    def __init__(self, seq_values, omega: FunctionSpec, x: float, offset=()):
        if any(offset) and omega.p != 0:
            raise DomainError("offset needs omega.p == 0")
        k = omega.k
        xm = mpf(x)
        cols = [[] for _ in range(k + 1)]  # a(n) A_n L_n^i per n
        for n, a_n in enumerate(seq_values, 1):
            term = Ln = 0
            if a_n != 0:
                u = xm / n
                An = mpmath.power(u, omega.p) if omega.p != 0 else mpf(1)
                Ln = mpmath.log(u) if k else mpf(0)
                term = mpmath.mpmathify(a_n) * An
            for i, col in enumerate(cols):
                col.append(term)
                if i < k:
                    term = term * Ln
        self.W, self.W_abs = _running_sums(cols)  # prefix sums, index N
        self.k = k
        cm = mpmath.mpmathify(omega.c)
        self.coef = [cm * math.comb(k, j) * (-1 if j % 2 else 1) for j in range(k + 1)]
        self.coef_abs = [abs(complex(c)) for c in self.coef]
        self.offset = list(offset) + [0] * (k + 1 - len(offset))
        self.offset_abs = [abs(complex(c)) for c in self.offset]
        self.shape = [(-mpmath.mpmathify(omega.p), j) for j in range(k + 1)]

    def coeffs(self, N: int):
        N = min(N, len(self.W[0]) - 1)
        k = self.k
        vals = [self.coef[j] * self.W[k - j][N] + self.offset[j] for j in range(k + 1)]
        absv = [self.coef_abs[j] * self.W_abs[k - j][N] + self.offset_abs[j]
                for j in range(k + 1)]
        return vals, absv


class InnerSumFactor:
    """S_b phi(t) = sum_{k <= t} b(k) phi(t/k), indexed by K = floor(t).

    phi(u) = c u^p log^l u gives c t^p sum_j C(l,j) log^j t V_{l-j}(K) with
    V_i(K) = sum_{k<=K} b(k) k^{-p} (-log k)^i.
    """

    index = "K"

    def __init__(self, seq_values, phi: FunctionSpec):
        l = phi.k
        K_max = len(seq_values)
        p = complex(phi.p)
        table = DirichletTable(p.real, p.imag, mpmath.mp.prec, logs=l > 0)
        # k^-p log^i k from the engine; b(k) and the sign of (-log k)^i are applied here
        powers = [table.values(K_max, i) for i in range(l + 1)]
        self.V, self.V_abs = _running_sums(
            [[0 if b_k == 0 else (-1) ** i * mpmath.mpmathify(b_k) * powers[i][k]
              for k, b_k in enumerate(seq_values, 1)] for i in range(l + 1)])
        self.l = l
        cm = mpmath.mpmathify(phi.c)
        self.coef = [cm * math.comb(l, j) for j in range(l + 1)]
        self.coef_abs = [abs(complex(c)) for c in self.coef]
        self.shape = [(mpmath.mpmathify(phi.p), j) for j in range(l + 1)]

    def coeffs(self, K: int):
        K = min(K, len(self.V[0]) - 1)
        l = self.l
        return ([self.coef[j] * self.V[l - j][K] for j in range(l + 1)],
                [self.coef_abs[j] * self.V_abs[l - j][K] for j in range(l + 1)])


class KernelFactor:
    """The Q or R kernel on pieces with floor(t) = K: `CellKernel.cell(K)`,
    c_K t^s - t for Q and c_K t^s - s t + (s-1)(K + 1/2) for R.

    zeta_column is d(coefficients)/d(zeta): (s-1) on the t^s slot.
    """

    index = "K"

    def __init__(self, spec: KernelSpec, prec: int, target_radius: float = 1e-35):
        if spec.variant == LITTLE_Q:
            raise UnsupportedKernelError("no kernel identity integrates q")
        self.kernel = CellKernel(spec, prec, zeta_target=target_radius)
        self.zeta_radius = self.kernel.zeta.radius
        sm = self.kernel.sm
        self.sm1_abs = abs(complex(sm - 1))
        self.shape = [(sm, 0), (mpf(1), 0)]
        self.zeta_column = [sm - 1, 0]
        self.beta_abs = 1.0
        if spec.variant == R:
            self.shape.append((mpf(0), 0))
            self.zeta_column.append(0)
            self.beta_abs += self.sm1_abs

    def coeffs(self, K: int):
        ck = self.kernel
        c, beta, delta = ck.cell(K)
        abs_c = self.sm1_abs * (float(mpmath.fabs(ck.zeta.value))
                                + float(mpmath.fabs(ck.table.value(K))))
        n = len(self.shape)  # R's delta slot; Q's delta is 0
        return [c, beta, delta][:n], [abs_c, self.beta_abs, abs(complex(delta))][:n]


class PowSumFactor:
    """sum_{k<=t} (t/k)^s = t^s P_K."""

    index = "K"

    def __init__(self, s: ComplexParam, prec: int):
        self.table = power_prefix_table(s.sigma, s.tau, prec)
        self.shape = [(s.as_mpc(), 0)]

    def coeffs(self, K: int):
        P = self.table.value(K)
        return [P], [float(mpmath.fabs(P))]


class HalfMinusFracFactor:
    """1/2 - {t} = 1/2 + K - t."""

    index = "K"
    shape = [(mpf(0), 0), (mpf(1), 0)]

    def coeffs(self, K: int):
        c = mpf(1) / 2 + K
        return [c, mpf(-1)], [abs(complex(c)), 1.0]


class StepPolyFactor:
    """Piecewise log-polynomial in t with coefficients indexed by K = floor(t):
    t^power * sum_j coeffs[j][K] log^j t."""

    index = "K"

    def __init__(self, coeff_columns, power=0):
        self.cols = coeff_columns  # list over j of lists indexed by K
        self.shape = [(mpmath.mpmathify(power), j) for j in range(len(coeff_columns))]

    def coeffs(self, K: int):
        vals = [col[min(K, len(col) - 1)] for col in self.cols]
        return vals, [abs(complex(c)) for c in vals]


def _harmonic_numbers(K_max: int, prec: int) -> list:
    return DirichletTable(1.0, 0.0, prec + _GUARD).values(K_max + 1, cumulative=True)


class HarmonicWeightFactor(StepPolyFactor):
    """t (H(t) - log t - gamma) with H piecewise constant."""

    def __init__(self, K_max: int, prec: int):
        with mpmath.mp.workprec(prec + _GUARD):
            g = gamma_const(prec + _GUARD)
            H = _harmonic_numbers(K_max, prec)
            super().__init__([[h - g for h in H], [mpf(-1)] * len(H)], power=1)


class LogMinusHFactor(StepPolyFactor):
    """log t - H(t), the k = 1 right-hand integrand."""

    def __init__(self, K_max: int, prec: int):
        H = _harmonic_numbers(K_max, prec)
        super().__init__([[-h for h in H], [mpf(1)] * len(H)])


# ---------------------------------------------------------------------------
# The integrator.
# ---------------------------------------------------------------------------

def _compile(factors: list):
    """Multiply the factors' shapes out once and compose with the
    antiderivative map.

    Returns (varying factors, exponents, slots, terms): the antiderivative of
    the product on a piece is sum_o F[o] t^q log^i t over slots[o] = (g, i)
    with exponents[g] = (q, q as an int or None, Re q), and F[o] = sum over
    terms (tuple, outs) with (o, m, m_abs) in outs of
    m * prod_f coeffs_f[tuple[f]].
    """
    varying = [f for f in factors if f.index is not None]
    const = [(mpf(0), 0, mpf(1), 1.0)]  # the constant factors, multiplied out
    for f in factors:
        if f.index is None:
            vals, absv = f.coeffs(None)
            const = [(p0 + p, k0 + k, c0 * c, a0 * a)
                     for p0, k0, c0, a0 in const
                     for (p, k), c, a in zip(f.shape, vals, absv)]
    exponents, slots, terms = [], {}, []
    for tup in itertools.product(*(range(len(f.shape)) for f in varying)):
        p_v = sum((f.shape[i][0] for f, i in zip(varying, tup)), mpf(0))
        k_v = sum(f.shape[i][1] for f, i in zip(varying, tup))
        outs = {}
        for p0, k0, c0, a0 in const:
            for q, i, coef in _antiderivative(p_v + p0, k_v + k0):
                g = next((g for g, e in enumerate(exponents) if e == q), None)
                if g is None:
                    g = len(exponents)
                    exponents.append(q)
                o = slots.setdefault((g, i), len(slots))
                m, m_abs = outs.get(o, (0, 0.0))
                outs[o] = (m + c0 * coef, m_abs + a0 * abs(complex(coef)))
        terms.append((tup, [(o, m, m_abs) for o, (m, m_abs) in outs.items()]))
    exponents = [(q, int(q.real) if q == int(q.real) else None, float(q.real))
                 for q in exponents]
    return varying, exponents, list(slots), terms


def _coefficients(terms, vecs, n: int):
    """(F, F_abs): the antiderivative's slot coefficients on one piece."""
    F = [0] * n
    F_abs = [0.0] * n
    for tup, outs in terms:
        c, c_abs = 1, 1.0
        for (vals, absv), i in zip(vecs, tup):
            c = c * vals[i]
            c_abs *= absv[i]
        for o, m, m_abs in outs:
            F[o] += c * m
            F_abs[o] += c_abs * m_abs
    return F, F_abs


class _Integrand:
    """One integrand's compiled shape and running sums over a walk.

    `shape` indexes the walk's endpoint vectors: the integrand's slots with
    each exponent replaced by its index among the walk's distinct exponents.
    """

    def __init__(self, factors: list, exponent_index):
        self.varying, exponents, slots, self.terms = _compile(factors)
        self.n = len(slots)
        self.shape = tuple((exponent_index(exponents[g]), i) for g, i in slots)
        # per zeta factor: its position and the terms its zeta column reaches
        self.zeta = [(pos, [(tup, outs) for tup, outs in self.terms
                            if f.zeta_column[tup[pos]] != 0])
                     for pos, f in enumerate(self.varying) if hasattr(f, "zeta_column")]
        self.zeta_sens = [0.0] * len(self.zeta)
        self.total = mpf(0)
        self.cond = 0.0

    def add_piece(self, vecs, diff, abs_a, abs_b) -> None:
        """Add one piece, given each varying factor's coefficient vectors."""
        F, F_abs = _coefficients(self.terms, vecs, self.n)
        contrib = mpmath.fdot(F, diff)
        self.total += contrib
        self.cond += (sum(fa * (ua + ub) for fa, ua, ub in zip(F_abs, abs_a, abs_b))
                      + abs(complex(contrib)))
        for z, (pos, zterms) in enumerate(self.zeta):
            zvecs = list(vecs)
            zvecs[pos] = (self.varying[pos].zeta_column, vecs[pos][1])
            Fz, _ = _coefficients(zterms, zvecs, self.n)
            self.zeta_sens[z] += abs(complex(mpmath.fdot(Fz, diff)))

    def result(self, prec: int) -> ApproxValue:
        radius = eps_for(prec) * 64.0 * self.cond
        for (pos, _), sens in zip(self.zeta, self.zeta_sens):
            radius += self.varying[pos].zeta_radius * sens
        return ApproxValue(+self.total, radd(radius), RIGOROUS, prec)


def _walk(part: Partition, integrands: list, prec: int) -> list[ApproxValue]:
    """Every integrand's integral over one walk of `part`, at the working
    precision set by the caller."""
    exps, where = [], {}  # distinct (q, q as an int or None, Re q); (type, q) -> index

    def exponent_index(e):
        key = (type(e[0]), e[0])  # an mpf and an equal mpc stay apart
        if key not in where:
            where[key] = len(exps)
            exps.append(e)
        return where[key]

    runs = [_Integrand(factors, exponent_index) for factors in integrands]
    memo = {}  # id(factor) -> (index, coeffs(index)), shared by the integrands

    def coeffs(f, N, K):
        idx = N if f.index == "N" else K
        hit = memo.get(id(f))
        if hit is None or hit[0] != idx:
            hit = memo[id(f)] = (idx, f.coeffs(idx))
        return hit[1]

    shapes = {}  # distinct compiled shape -> its index
    shape_of = [shapes.setdefault(r.shape, len(shapes)) for r in runs]
    max_log = max((i for shape in shapes for _, i in shape), default=0)

    def endpoint(t):
        """(t^q log^i t, |t^q| |log t|^i) per slot of each shape at t."""
        logt = mpmath.log(t)
        logt_f = float(logt)
        tq = [mpmath.exp(q * logt) if n is None else t ** n for q, n, _ in exps]
        tq_abs = [math.exp(q_re * logt_f) for _, _, q_re in exps]
        logs = [mpf(1)]
        for _ in range(max_log):
            logs.append(logs[-1] * logt)
        return [([tq[g] * logs[i] if i else tq[g] for g, i in shape],
                 [tq_abs[g] * abs(logt_f) ** i for g, i in shape]) for shape in shapes]

    end_b = None
    for a, b, N, K in part.pieces():
        end_a = end_b if end_b is not None else endpoint(a)
        end_b = endpoint(b)
        diffs = [[vb - va for va, vb in zip(ea[0], eb[0])] for ea, eb in zip(end_a, end_b)]
        for r, sh in zip(runs, shape_of):
            r.add_piece([coeffs(f, N, K) for f in r.varying],
                        diffs[sh], end_a[sh][1], end_b[sh][1])
    return [r.result(prec) for r in runs]


def integrate_partitions(x: float, integrands: list,
                         precision: int | None = None) -> list[ApproxValue]:
    """Exact piecewise integral over [1, x] of the product of each integrand's
    factors, with compensated accumulation and a rigorous rounding radius.

    All integrands share one walk of the partition per need_inverse_points
    flag, and each value and radius equals the integrand's integral taken
    alone bit for bit.
    """
    prec = precision or mpmath.mp.prec
    integrands = [list(factors) for factors in integrands]
    groups = {}  # need_inverse_points -> positions in `integrands`
    for j, factors in enumerate(integrands):
        groups.setdefault(any(f.index == "N" for f in factors), []).append(j)
    out = [None] * len(integrands)
    for inverse, members in groups.items():
        part = Partition(x, need_inverse_points=inverse)
        with mpmath.mp.workprec(prec + _GUARD):
            values = _walk(part, [integrands[j] for j in members], prec)
        for j, v in zip(members, values):
            out[j] = v
    return out


def integrate_partition(x: float, factors: list, extra: PowLogSum | None = None,
                        precision: int | None = None) -> ApproxValue:
    """Exact piecewise integral over [1, x] of the product of `factors` times
    `extra`: `integrate_partitions` for one integrand."""
    factors = list(factors) + ([extra] if extra is not None else [])
    return integrate_partitions(x, [factors], precision)[0]


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def mu_over_n_values(N: int, prec: int) -> tuple:
    """(mu(n)/n) for n = 1..N from the engine at prec+guard bits, exact mpf
    values in an immutable tuple."""
    return tuple(DirichletTable(1.0, 0.0, prec + _GUARD).values(N, mu=True)[1:])


def m_weight_factor(x: float, prec: int) -> SummatoryFactor:
    """m(x/t) as a piece factor."""
    return SummatoryFactor(mu_over_n_values(math.floor(x), prec), FunctionSpec.const(1.0), x)


def mcheck_minus_one_factor(x: float, prec: int) -> SummatoryFactor:
    """m-check(x/t) - 1 as a piece factor."""
    return SummatoryFactor(mu_over_n_values(math.floor(x), prec), FunctionSpec.log(1), x,
                           offset=[mpf(-1)])


def mdcheck_normalized_factor(x: float, prec: int) -> SummatoryFactor:
    """m-double-check(x/t) - 2 log(x/t) + 2 gamma as a piece factor."""
    with mpmath.mp.workprec(prec + _GUARD):
        logx = mpmath.log(mpf(x))
        g = gamma_const(prec + _GUARD)
        offset = [-2 * logx + 2 * g, mpf(2)]  # ... + 2 log t
    return SummatoryFactor(mu_over_n_values(math.floor(x), prec), FunctionSpec.log(2), x,
                           offset=offset)


def integrate_m_kernel(x: float, g, precision: int | None = None,
                       weight: str = "m") -> ApproxValue:
    """integral over [1, x] of w(x/t) g(t) / t^2 dt, exactly piecewise.

    w is m (default), m-check - 1 ("mcheck1"), or the normalized
    m-double-check ("mdcheck"); g is a FunctionSpec, a PowLogSum, or a piece
    factor built by the factories in this module (`KernelFactor` for the Q and
    R kernels, truncated power sums, 1/2 - {t}, the harmonic weight).
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    prec = precision or mpmath.mp.prec
    if weight == "m":
        w = m_weight_factor(x, prec)
    elif weight == "mcheck1":
        w = mcheck_minus_one_factor(x, prec)
    elif weight == "mdcheck":
        w = mdcheck_normalized_factor(x, prec)
    else:
        raise DomainError(f"unknown weight {weight!r}")
    if isinstance(g, FunctionSpec):
        g = PowLogSum.from_spec(g)
    elif not hasattr(g, "coeffs"):
        raise UnsupportedKernelError(
            f"{g!r} is outside the closed-form kernel family")
    extra = PowLogSum.monomial(mpf(1), mpf(-2), 0)
    return integrate_partition(x, [w, g], extra, precision=prec)
