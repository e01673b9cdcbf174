from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from moebius import piecewise
from moebius.approx import radd
from moebius.checks import run_check
from moebius.convolution import (S_op, SequenceSpec, dirichlet_convolve,
                                 terre_batch, terre_sides, voyage_sides)
from moebius.errors import CoverageError, DomainError
from moebius.piecewise import FunctionSpec
from moebius.summatory import summatory
from oracles import riemann_convolution_side
import numpy as np


def test_sequencespec_validation():
    with pytest.raises(DomainError):
        SequenceSpec(name="mobius", table=(1, 2))
    with pytest.raises(DomainError):
        SequenceSpec(name="nope")
    with pytest.raises(DomainError):
        SequenceSpec()


def test_named_sequences_match_definitions():
    mob = SequenceSpec.named("mobius").values(12)
    assert mob == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert SequenceSpec.named("one").values(4) == [1, 1, 1, 1]
    assert SequenceSpec.named("alternating").values(5) == [1, -1, 1, -1, 1]
    assert SequenceSpec.named("harmonic").values(3) == [1, Fraction(1, 2), Fraction(1, 3)]


def test_dirichlet_identity_element():
    mob = SequenceSpec.named("mobius")
    one = SequenceSpec.named("one")
    assert dirichlet_convolve(mob, one, 40) == [1] + [0] * 39


def test_dirichlet_divisor_counts():
    one = SequenceSpec.named("one")
    assert dirichlet_convolve(one, one, 6) == [1, 2, 2, 3, 2, 4]


def test_dirichlet_harmonic_bruteforce():
    mob = SequenceSpec.named("mobius")
    har = SequenceSpec.named("harmonic")
    conv = dirichlet_convolve(mob, har, 12)
    mobv = mob.values(12)
    for n in (6, 10, 12):
        brute = sum(Fraction(mobv[d - 1], n // d) for d in range(1, n + 1) if n % d == 0)
        assert conv[n - 1] == brute


def test_S_op_examples():
    one = SequenceSpec.named("one")
    mob = SequenceSpec.named("mobius")
    assert S_op(one, FunctionSpec.const(1.0), 7.3).value == 7
    assert S_op(mob, FunctionSpec.const(1.0), 10.0).value == -1
    # S over mu(n)/n with log kernel = the log-smoothed sum m-check
    N = 50
    mobn = SequenceSpec.explicit([Fraction(m, n) if m else 0
                                  for n, m in enumerate(mob.values(N), start=1)])
    got = S_op(mobn, FunctionSpec.log(1), 50.0)
    want = summatory(50.0, mode="mp").m_check
    assert abs(got.value - want.value) <= got.radius + want.radius


def test_S_op_coverage_error():
    short = SequenceSpec.explicit([1, 1])
    with pytest.raises(CoverageError):
        S_op(short, FunctionSpec.const(1.0), 5.0)


def test_terre_formule_m_instance():
    mob, one = SequenceSpec.named("mobius"), SequenceSpec.named("one")
    lhs, rhs = terre_sides(mob, one, FunctionSpec.power(1.0),
                           FunctionSpec.power(-1.0, 2.0), 10.0)
    assert abs(lhs.value - rhs.value) <= lhs.radius + rhs.radius
    # both sides equal x(1 - 1/x^2) at x = 10
    assert abs(lhs.value - mpf(99) / 10) <= lhs.radius + 1e-30


def test_terre_trivial_empty():
    one = SequenceSpec.named("one")
    lhs, rhs = terre_sides(one, one, FunctionSpec.const(1.0), FunctionSpec.const(1.0), 1.0)
    assert lhs.value == 0 and rhs.value == 0


def test_terre_complex_kernels_high_precision():
    mob, one = SequenceSpec.named("mobius"), SequenceSpec.named("one")
    lhs, rhs = terre_sides(mob, one, FunctionSpec.t_log(1),
                           FunctionSpec.power(2.0), 50.0)
    assert abs(lhs.value - rhs.value) <= lhs.radius + rhs.radius


def test_terre_against_riemann_oracle():
    # one cell cross-checked against a brute-force fine-grid midpoint sum
    mob, one = SequenceSpec.named("mobius"), SequenceSpec.named("one")
    x = 20.0
    lhs, _ = terre_sides(mob, one, FunctionSpec.t_log(1), FunctionSpec.power(2.0), x)
    brute = riemann_convolution_side(
        mob.values(20), one.values(20),
        lambda u: u * np.log(u), lambda u: u**2, x, n_pts=800_000)
    assert abs(float(lhs.value) - brute) < 2e-3 * abs(brute)


def test_terre_matrix_small():
    seqs = [SequenceSpec.named(n) for n in ("mobius", "one", "alternating")]
    kernels = [(FunctionSpec.const(1.0), FunctionSpec.const(1.0)),
               (FunctionSpec.power(1.0), FunctionSpec.power(complex(0.5, 3.0)))]
    for a in seqs:
        for b in seqs:
            for om, ph in kernels:
                lhs, rhs = terre_sides(a, b, om, ph, 10.0)
                assert abs(lhs.value - rhs.value) <= lhs.radius + rhs.radius


def test_voyage_symmetry():
    for om, ph in [(FunctionSpec.power(1.0), FunctionSpec.power(2.0)),
                   (FunctionSpec.t_log(1), FunctionSpec.power(complex(0.5, 3.0)))]:
        lhs, rhs = voyage_sides(om, ph, 50.0)
        assert abs(lhs.value - rhs.value) <= lhs.radius + rhs.radius


def test_terre_batch_computes_each_shared_factor_once_per_index(monkeypatch):
    x = 25.3
    seqs = [SequenceSpec.named(n) for n in ("mobius", "one", "alternating")]
    kernel_pairs = [(FunctionSpec.const(1.0), FunctionSpec.const(1.0)),
                    (FunctionSpec.power(1.0), FunctionSpec.log(1))]
    specs = [(a, b, om, ph) for a in seqs for b in seqs for om, ph in kernel_pairs]
    calls = {}  # factor -> the indices its exact vector was asked for, in order

    def recording(cls):
        exact = cls.exact

        def record(self, idx):
            calls.setdefault(self, []).append(idx)
            return exact(self, idx)
        monkeypatch.setattr(cls, "exact", record)

    recording(piecewise.SummatoryFactor)
    recording(piecewise.InnerSumFactor)
    integrands = []
    walk = piecewise._walk

    def capturing(part, batch, prec):
        integrands.extend(batch)
        return walk(part, batch, prec)

    monkeypatch.setattr(piecewise, "_walk", capturing)
    terre_batch(specs, x)
    # the batch shares factors: a summatory factor serves all three b's
    users = {f: sum(any(g is f for g in factors) for factors in integrands) for f in calls}
    assert max(users.values()) >= 3
    pieces = list(piecewise.Partition(x, need_inverse_points=True).pieces())
    for f, seen in calls.items():
        idx = [N if f.index == "N" else K for _, _, N, K in pieces]
        changes = [i for j, i in enumerate(idx) if j == 0 or idx[j - 1] != i]
        # one call per change of index along the walk, however many integrands share f
        assert seen == changes, (type(f).__name__, users[f])


# the terre check's cells, in its order: 9 sequence pairs x 6 kernel pairs
TERRE_SEQS = [SequenceSpec.named(n) for n in ("mobius", "one", "alternating")]
TERRE_KERNEL_PAIRS = [
    (FunctionSpec.const(1.0), FunctionSpec.const(1.0)),
    (FunctionSpec.power(1.0), FunctionSpec.const(1.0)),
    (FunctionSpec.log(1), FunctionSpec.power(1.0)),
    (FunctionSpec.t_log(1), FunctionSpec.power(2.0)),
    (FunctionSpec.power(1.5), FunctionSpec.log(1)),
    (FunctionSpec.power(1.0), FunctionSpec.power(complex(0.5, 3.0))),
]
TERRE_SPECS = [(a, b, om, ph) for a in TERRE_SEQS for b in TERRE_SEQS
               for om, ph in TERRE_KERNEL_PAIRS]


def test_terre_check_walks_one_partition_per_x(monkeypatch):
    xs = [10.0, 25.3]
    built = []
    init = piecewise.Partition.__init__

    def counting(self, x, *args, **kwargs):
        built.append(x)
        init(self, x, *args, **kwargs)

    monkeypatch.setattr(piecewise.Partition, "__init__", counting)
    rep = run_check("terre", {"x": xs})
    assert built == xs
    monkeypatch.undo()
    # each cell equals its own terre_sides call bit for bit, in the check's order
    order = [(a, b, om, ph, x) for a, b, om, ph in TERRE_SPECS for x in xs]
    assert len(rep.cells) == len(order) == 108
    for cell, (a, b, om, ph, x) in zip(rep.cells, order):
        assert (cell["a"], cell["b"], cell["omega"], cell["phi"], cell["x"]) == (
            a.label(), b.label(), om.describe(), ph.describe(), x)
        lhs, rhs = terre_sides(a, b, om, ph, x, precision=128)
        assert cell["residual"] == float(mpmath.fabs(lhs.value - rhs.value))
        assert cell["radius"] == radd(lhs.radius, rhs.radius)


def test_terre_batch_builds_each_table_once(monkeypatch):
    """The summatory factors of a batch share their x^p n^-p and log(x/n)
    tables: at x = 24.99 the 54 cells build 8 _Powers (5 of them the walk's)
    and 2 _Logs (1 the walk's), not 65 and 25, and every side still equals
    its own terre_sides call bit for bit."""
    x = 24.99
    built = {"_Powers": [], "_Logs": []}

    def counted(cls, log):
        class Counted(cls):
            def __init__(self, *args):
                log.append(repr(args))
                super().__init__(*args)
        return Counted

    for name, log in built.items():
        monkeypatch.setattr(piecewise, name, counted(getattr(piecewise, name), log))
    sides = terre_batch(TERRE_SPECS, x)
    assert (len(built["_Powers"]), len(built["_Logs"])) == (8, 2)
    assert all(len(set(args)) == len(args) for args in built.values())
    monkeypatch.undo()
    for (lhs, rhs), spec in zip(sides, TERRE_SPECS):
        alone = terre_sides(*spec, x)
        assert (lhs.value, lhs.radius, rhs.value, rhs.radius) == (
            alone[0].value, alone[0].radius, alone[1].value, alone[1].radius)


def test_swapped_sequence_pairs_share_one_right_side():
    # a*b = b*a exactly, so (a, b) and (b, a) build one convolution and one
    # summatory factor, and the walk evaluates their right side once
    mu, one, alt = (SequenceSpec.named(n) for n in ("mobius", "one", "alternating"))
    om, ph = FunctionSpec.log(1), FunctionSpec.power(complex(0.5, 3.0))
    (l1, r1), (l2, r2), (_, r3) = terre_batch([(mu, alt, om, ph), (alt, mu, om, ph),
                                               (mu, one, om, ph)], 12.5)
    assert r1 is r2 and r3 is not r1 and l1 is not l2
    alone = terre_sides(alt, mu, om, ph, 12.5)
    assert (r2.value, r2.radius) == (alone[1].value, alone[1].radius)
