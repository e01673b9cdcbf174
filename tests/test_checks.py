import json
import math

import mpmath
import pytest

import moebius.checks as checks
from moebius.approx import HEURISTIC, RIGOROUS
from moebius.checks import (BoundReport, compose_headline, improved_landau,
                            landau_constant, landau_lower_check, registry_names,
                            run_check, run_suite)
from moebius.errors import DomainError, InapplicabilityError
from moebius.report import reports_to_csv, reports_to_json


def test_landau_constant_values():
    c1 = landau_constant(complex(0.5, 14.134725141734694))
    assert abs(c1 - 0.0024933) < 1e-6
    c2 = landau_constant(complex(0.5, 14.13))
    assert abs(c2 - 0.0024949) < 1e-6
    assert landau_constant(1 + 0j) == 1.0  # |rho - 1| = 0
    with pytest.raises(DomainError):
        landau_constant(1.5 + 3j)


def test_compose_headline_values():
    assert compose_headline(4, 8.55e-6) == pytest.approx(3.42e-5)
    assert compose_headline(4, 8.55e-6) <= 3.5e-5
    assert compose_headline(4, 0.0) == 0.0
    assert compose_headline(2, 8.55e-6) == pytest.approx(1.71e-5)
    with pytest.raises(InapplicabilityError):
        compose_headline(4, 8.55e-6, x0=1e10)  # bound starts at 2.5e11 > x0


def test_improved_landau_values():
    rho = complex(0.5, 14.13)
    # the experimental inputs reproduce the quoted order: 1/(1+20.512) = 0.0465
    assert improved_landau(rho, 20.512, 9.4, 14.13) == pytest.approx(1 / 21.512)
    # generic sup on both ranges recovers the plain constant's scale
    assert improved_landau(rho, 399.9, 399.9, 14.13) == pytest.approx(1 / 400.9)
    assert improved_landau(rho, 0.0, 0.0, 14.13) == 1.0
    with pytest.raises(DomainError):
        improved_landau(rho, 20.0, 9.4, 10.0)  # T_split below |Im rho|
    with pytest.raises(DomainError):
        improved_landau(rho, -1.0, 9.4, 14.13)


def test_landau_lower_check_small():
    rep = landau_lower_check(10_000)
    assert rep.passed
    assert rep.cells[0]["constant"] == 0.0024933
    assert rep.cells[1]["constant"] == 0.0025
    assert rep.cells[1]["pass"]
    assert rep.payload["min_ratio"] > 0.0025


def test_registry_is_total():
    names = registry_names()
    for required in ["abel", "int-check", "mtronq", "mtronqch", "mtronqchch",
                     "derivK1", "derivK2", "derivK3", "mieux-1", "mieux-2",
                     "poids", "k1", "double-check-borne", "formule-m",
                     "exact-Q-l1", "prop1-a", "prop1-b", "prop1-c", "prop2-a",
                     "prop2-b", "prop2-c", "parm", "parchm", "poids-bound",
                     "balcheck", "balazard-m", "harmonic", "q-bounds", "alpha",
                     "m-conversions", "landau-lower", "hel-truncation",
                     "q-sup", "q-l1", "improved-landau"]:
        assert required in names, required


def test_unknown_check_rejected(monkeypatch):
    with pytest.raises(DomainError):
        run_check("nonsense")
    # a suite is validated before any of its checks runs
    ran = []
    monkeypatch.setattr(checks, "run_check", lambda name, *args: ran.append(name))
    for threads in (1, 2):
        with pytest.raises(DomainError, match="unknown check 'nonsense'"):
            run_suite(["alpha", "nonsense"], threads=threads)
    assert ran == []


def test_identity_report_shape():
    rep = run_check("formule-m", grid={"x": [2.0, 10.0]})
    assert isinstance(rep, BoundReport)
    assert rep.kind == "identity" and rep.passed and rep.rigor == RIGOROUS
    assert len(rep.cells) == 2
    assert rep.worst <= 1e-30


def test_inequality_report_alpha():
    rep = run_check("alpha", grid={"tmax": 2000})
    assert rep.kind == "inequality" and rep.passed
    assert rep.worst >= -1e-12


def test_balcheck_small():
    rep = run_check("balcheck", grid={"xmax": 5000, "n_random": 100})
    assert rep.passed and rep.rigor == RIGOROUS
    # equality at x = 1: margin 0 there, so worst must be >= -radius only
    assert rep.worst >= -1e-12


def test_q_bounds_and_voyage():
    assert run_check("q-bounds").passed
    assert run_check("voyage").passed


def test_prop_checks_heuristic_rigor():
    rep = run_check("prop1-a", grid={"s": [2.0], "x": [1000.0], "sweep_N": 100_000})
    assert rep.rigor == HEURISTIC  # empirical window sup makes it heuristic
    assert rep.passed
    kinds = {c["form"] for c in rep.cells}
    assert kinds == {"identity", "inequality"}


def test_halfstep_and_mdcheck_adjudications():
    rep = run_check("halfstep", grid={"s": [2.0], "x": [30.0]})
    assert rep.passed
    assert rep.payload["matching_bracketing"] == ["sign-corrected"]
    rep2 = run_check("mdcheck-norm", grid={"xmax": 20_000})
    assert rep2.passed
    assert "2log t - 2gamma" in rep2.payload["verdict"]


def test_hel_truncation_short():
    rep = run_check("hel-truncation", grid={"n_t": 25, "trange": (10.0, 500.0)})
    assert rep.passed and rep.rigor == RIGOROUS
    assert rep.worst > 0


def test_exact_Q_l1_check():
    rep = run_check("exact-Q-l1", grid={"T": 100})
    assert rep.passed
    ref2 = [c for c in rep.cells if c["s"] == "2.0"][0]
    assert abs(ref2["reference"] + 0.0677184019) < 1e-9


def test_run_suite_threads_deterministic():
    names = ["alpha", "formule-m"]
    seq = run_suite(names, {"x": [2.0], "tmax": 500}, threads=1)
    prec = mpmath.mp.prec
    par = run_suite(names, {"x": [2.0], "tmax": 500}, threads=2)
    assert mpmath.mp.prec == prec
    assert [r.check for r in seq] == [r.check for r in par]
    assert seq[0].worst == par[0].worst


def test_run_suite_returns_reports_in_request_order():
    # terre is costed above alpha, so it is submitted first
    assert checks._COST_S["terre"] > checks._COST_S.get("alpha", 0.0)
    reps = run_suite(["alpha", "terre"], {"x": [10.0]}, threads=2)
    assert [r.check for r in reps] == ["alpha", "terre"]
    assert all(r.passed for r in reps)


def test_cost_table_names_registry_checks():
    assert set(checks._COST_S) <= set(registry_names())


def test_report_serialization_roundtrip():
    reps = [run_check("formule-m", grid={"x": [2.0]}),
            run_check("alpha", grid={"tmax": 500})]
    js = reports_to_json(reps, stable=True)
    objs = json.loads(js)
    assert [o["check"] for o in objs] == ["formule-m", "alpha"]
    assert all(o["elapsed_ms"] == 0.0 for o in objs)
    assert set(objs[0]) == {"check", "grid", "worst", "location", "pass",
                            "rigor", "elapsed_ms"}
    csv_text = reports_to_csv(reps)
    assert csv_text.splitlines()[0].startswith("check,")
    assert len(csv_text.splitlines()) == 1 + len(reps[0].cells) + len(reps[1].cells)


_S = {"s": [2.0]}
_TRANSFORM = {**_S, "x": [10.0], "T": 1e5}
#: a small grid (and target radius) per registry check, a few seconds in all
_SMALL = {
    "abel": ({**_S, "x": [10.0], "xmax_fast": 1000}, None),
    "int-check": ({**_S, "x": [10.0]}, None),
    **{name: (_TRANSFORM, None) for name in
       ("mtronq", "mtronqch", "mtronqchch", "derivK1", "derivK2", "derivK3")},
    "mieux-1": ({**_S, "x": [10.0]}, None),
    "mieux-2": ({**_S, "x": [10.0]}, None),
    "poids": ({**_S, "x": [10.0]}, None),
    "k1": ({**_S, "x": [10.0]}, None),
    "k2": ({**_S, "x": [10.0]}, None),
    "double-check-borne": ({"x": [10.0]}, None),
    "formule-m": ({"x": [1.0, 10.0]}, None),
    "exact-Q-l1": ({**_S, "T": 20}, None),
    "har": ({**_S, "x": [20.5]}, None),
    "ent": ({**_S, "x": [7.0]}, None),
    "em-cross": ({"sigma": [2.0], "tau": [0.0], "t": [1.5, 10.0]}, None),
    "terre": ({"x": [2.0]}, None),
    "voyage": ({"x": [10.0]}, None),
    "halfstep": ({**_S, "x": [30.0]}, None),
    "mdcheck-norm": ({"xmax": 2000}, None),
    **{f"prop{w}-{letter}": ({**_S, "x": [100.0], "sweep_N": 10_000}, None)
       for w in "12" for letter in "abc"},
    "parm": ({**_S, "x": [10.0]}, None),
    "parchm": ({**_S, "x": [10.0]}, None),
    "poids-bound": ({"s": [0.5], "x": [10.0]}, None),
    "balcheck": ({"xmax": 2000, "n_random": 50}, None),
    "balazard-m": ({"xmax": 2000}, None),
    "harmonic": ({"xmax": 2000}, None),
    "q-bounds": ({"t": [1.5, 10.0]}, None),
    "alpha": ({"tmax": 500}, None),
    "m-conversions": ({"xmax": 2000}, None),
    "landau-lower": ({"xmax": 2000}, None),
    "hel-truncation": ({"n_t": 10, "trange": (10.0, 100.0)}, None),
    "q-sup": ({"trange": (1.0, 3.0)}, None),
    "q-l1": ({}, 0.5),
    "improved-landau": ({}, 0.1),
    "headline": ({**_S, "x": [10.0]}, None),
}


def _plain(v):
    if isinstance(v, (list, tuple)):
        return all(_plain(x) for x in v)
    return type(v) in (bool, int, float, str, complex) or v is None


def test_every_check_names_its_report_and_emits_plain_cells():
    assert set(_SMALL) == set(registry_names())
    reports = [run_check(name, grid, target) for name, (grid, target) in _SMALL.items()]
    for name, rep in zip(_SMALL, reports):
        assert rep.check == name
        assert rep.cells
        for cell in rep.cells:
            bad = {k: type(v) for k, v in cell.items() if not _plain(v)}
            assert not bad, (name, bad)
            assert type(cell["pass"]) is bool, name
    csv_text = reports_to_csv(reports)
    assert len(csv_text.splitlines()) == 1 + sum(len(r.cells) for r in reports)
    objs = json.loads(reports_to_json(reports, stable=True, include_payload=True))
    assert [o["check"] for o in objs] == list(_SMALL)


def test_run_check_and_main_leave_mp_prec_alone(capsys):
    from moebius.cli import main

    saved = mpmath.mp.prec
    reports = {}
    try:
        for prec in (80, 400):
            mpmath.mp.prec = prec
            rep = run_check("alpha", {"tmax": 500})
            reports[prec] = (rep.cells, rep.worst, rep.worst_location, rep.passed, rep.payload)
            assert mpmath.mp.prec == prec
        assert main(["verify", "--suite", "alpha", "--grid", "tmax=500",
                     "--stable-output"]) == 0
        assert mpmath.mp.prec == 400
    finally:
        mpmath.mp.prec = saved
    # the check works at precision + 16 bits whatever the caller's context holds
    assert reports[80] == reports[400]
    assert json.loads(capsys.readouterr().out)[0]["check"] == "alpha"
