import mpmath
import pytest

from moebius import piecewise
from moebius.approx import ApproxValue
from moebius.checks import run_check
from moebius.identities import (abel_s_sides, double_check_borne_sides,
                                formule_m_value, halfstep_candidates,
                                int_check_sides, k1_sides, kgen2_sides,
                                mieux1_sides, mu_power_sum, poids_sides)
from moebius.mellin import MIEUX2, ent_residual, transform_sides


def _agree(lhs, rhs):
    return abs(lhs.value - rhs.value) <= lhs.radius + rhs.radius


@pytest.mark.parametrize("s", [2.0, 3.0, 0.5 + 3j, 0.5 + 14.13j])
@pytest.mark.parametrize("x", [10.0, 100.0])
def test_mieux1(s, x):
    assert _agree(*mieux1_sides([(s, x)])[0])


@pytest.mark.parametrize("s", [2.0, 0.5 + 3j, -0.5 + 5j])
def test_poids(s):
    assert _agree(*poids_sides([(s, 50.0)])[0])


@pytest.mark.parametrize("s,x", [(2.0, 10.0), (2.0, 200.0),
                                 (0.5 + 3j, 10.0), (0.5 + 3j, 200.0)])
def test_k1(s, x):
    assert _agree(*k1_sides([(s, x)])[0])


def test_kgen2_with_surrogate_polynomial():
    assert _agree(*kgen2_sides([(2.0, 50.0)])[0])
    assert _agree(*kgen2_sides([(0.5 + 3j, 30.0)])[0])


@pytest.mark.parametrize("x", [10.0, 1000.0])
def test_double_check_borne(x):
    assert _agree(*double_check_borne_sides(x))


def test_halfstep_adjudication():
    value, cands = halfstep_candidates([(2.0, 30.0)])[0]
    resids = {k: float(mpmath.fabs(value.value - c.value)) for k, c in cands.items()}
    assert resids["sign-corrected"] <= value.radius + cands["sign-corrected"].radius
    assert resids["as-printed"] > 1e-6
    assert min(resids, key=resids.get) == "sign-corrected"


def test_formule_m():
    for x in (2.0, 10.0, 1000.0):
        val, expect = formule_m_value(x)
        assert abs(val.value - expect) <= val.radius


def test_abel_and_int_check():
    assert _agree(*abel_s_sides([(2.0, 10.0)])[0])
    assert _agree(*abel_s_sides([(0.5 + 3j, 100.0)])[0])
    assert _agree(*int_check_sides([(2.0, 10.0)])[0])
    assert _agree(*int_check_sides([(0.5 + 3j, 200.0)])[0])


def test_mu_power_sum_matches_bruteforce():
    from moebius.sieve import sieve_range
    tab = sieve_range(1, 30)
    sm = mpmath.mpc(0.5, 3)
    brute = sum(tab.mu(n) * mpmath.power(n, -sm) for n in range(1, 31))
    got = mu_power_sum(30.5, 0.5 + 3j)
    assert abs(got.value - brute) <= got.radius + 1e-30


def test_mieux2_gamma_sign():
    lhs, rhs_plus, rhs_minus = transform_sides(MIEUX2, [(2.0, 10.0)])[0]
    assert _agree(lhs, rhs_plus)
    assert abs(lhs.value - rhs_minus.value) > 0.01  # 2 gamma (s-1) x^{1-s}


def test_mieux2_complex_halfplane():
    lhs, rhs, _ = transform_sides(MIEUX2, [(0.5 + 3j, 10.0)])[0]
    assert _agree(lhs, rhs)


def _bits(v):
    """Sides as comparable data: raw mpf/mpc tuples, radii and rigor."""
    if isinstance(v, ApproxValue):
        return _bits(v.value), v.radius, v.rigor
    if isinstance(v, (tuple, list)):
        return tuple(_bits(u) for u in v)
    if isinstance(v, dict):
        return {k: _bits(u) for k, u in v.items()}
    return v._mpc_ if isinstance(v, mpmath.mpc) else v._mpf_


BATCHES = [abel_s_sides, int_check_sides, mieux1_sides, poids_sides, k1_sides, kgen2_sides,
           halfstep_candidates, ent_residual]


@pytest.mark.parametrize("sides", BATCHES, ids=lambda fn: fn.__name__)
def test_batch_equals_one_cell_identities(sides):
    # two cells at x = 10 around one at 20.5: the batch groups them by x and
    # must still answer in cell order, each cell bit for bit as its batch of one
    cells = [(2.0, 10.0), (0.5 + 3j, 20.5), (0.5 + 3j, 10.0)]
    batch = sides(cells)
    assert len(batch) == len(cells)
    for cell, got in zip(cells, batch):
        assert _bits(got) == _bits(sides([cell])[0]), cell


#: walks at each check's default grid: one per x and need_inverse_points flag
#: (k1 and k2 integrate an m(x/t) weight and a floor(t)-only right side)
WALKS = {"abel": 3, "int-check": 2, "mieux-1": 3, "poids": 2, "k1": 4, "k2": 2, "halfstep": 2,
         "mieux-2": 2}


@pytest.mark.parametrize("check", list(WALKS))
def test_identity_check_walks_once_per_x(check, monkeypatch):
    built = []
    init = piecewise.Partition.__init__

    def counting(self, x, need_inverse_points=True):
        built.append((x, need_inverse_points))
        init(self, x, need_inverse_points)

    monkeypatch.setattr(piecewise.Partition, "__init__", counting)
    assert run_check(check).passed
    assert len(built) == len(set(built)) == WALKS[check], built
