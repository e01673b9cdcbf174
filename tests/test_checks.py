import json
import math
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

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


@pytest.fixture
def deadline():
    """Fail a test whose pooled run_suite hangs, rather than hang with it."""
    def expire(signum, frame):
        raise TimeoutError("run_suite did not return")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_suite_raises_when_a_worker_dies(monkeypatch, deadline):
    def run_check(name, *args):
        if name == "q-bounds":
            os._exit(3)
        return name
    monkeypatch.setattr(checks, "run_check", run_check)
    with pytest.raises(RuntimeError, match="'q-bounds' exited without its result"):
        run_suite(["alpha", "q-bounds", "voyage"], threads=2)
    _no_child_left()


@pytest.mark.parametrize("failing", [("voyage",), ("voyage", "alpha"), ("voyage", "q-bounds")])
def test_run_suite_raises_serials_error_and_starts_nothing_after_it(
        monkeypatch, tmp_path, deadline, failing):
    # voyage and q-bounds go out first, to the two workers.  voyage fails at
    # once and its worker takes alpha, before voyage in request order; when
    # q-bounds ends, alpha still runs, and k2, after voyage, must not start
    names = ["alpha", "voyage", "q-bounds", "k2"]
    log = tmp_path / "started"

    def run_check(name, *args):
        with open(log, "a") as f:
            f.write(name + "\n")
        time.sleep({"q-bounds": 0.3, "alpha": 0.6}.get(name, 0.0))
        if name in failing:
            raise DomainError(f"{name} failed")
        return name
    monkeypatch.setattr(checks, "run_check", run_check)
    monkeypatch.setattr(checks, "_COST_S", {"voyage": 2.0, "q-bounds": 1.0})
    errors = []
    for threads in (1, 2):
        with pytest.raises(DomainError) as exc:
            run_suite(names, threads=threads)
        errors.append((type(exc.value), exc.value.args))
        started = log.read_text().split()
        log.unlink()
    first = min(failing, key=names.index)
    assert errors[0] == errors[1] == (DomainError, (f"{first} failed",))
    assert sorted(started) == ["alpha", "q-bounds", "voyage"]
    _no_child_left()


def test_run_suite_carries_a_report_larger_than_a_pipe_buffer(monkeypatch, deadline):
    payload = list(range(100_000))
    assert len(pickle.dumps(payload)) > 65536
    monkeypatch.setattr(checks, "run_check", lambda name, *args: (name, payload))
    names = ["alpha", "voyage", "q-bounds"]
    assert run_suite(names, threads=2) == [(n, payload) for n in names]
    _no_child_left()


def test_pooled_run_suite_imports_no_multiprocessing():
    code = ("import sys; from moebius.checks import run_suite; "
            "reps = run_suite(['alpha', 'q-bounds'], {'tmax': 500}, threads=2); "
            "assert all(r.passed for r in reps); "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(checks.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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


def _count_streams(monkeypatch) -> list:
    mellin = sys.modules["moebius.mellin"]
    streams, stream = [], mellin._stream

    def counting(tts):
        streams.append(len(tts))
        return stream(tts)

    monkeypatch.setattr(mellin, "_stream", counting)
    return streams


@pytest.mark.slow
def test_suite_all_streams_once_per_jump_and_T(monkeypatch):
    # mu at 1e6 and 1e7 and hgap at 1e6: one stream each, where each check
    # streamed its own cells (20 streams) before checks shared them
    streams = _count_streams(monkeypatch)
    reports = run_suite(registry_names(), threads=1)
    assert all(r.passed for r in reports)
    assert len(streams) == 3, streams
    assert not sys.modules["moebius.mellin"]._STORE


def test_stream_workload_is_one_task_in_this_process(monkeypatch, capsys):
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    import workloads
    from moebius import cli, runner

    def refuse(*args):
        raise AssertionError("forked")

    monkeypatch.setattr(runner, "run_forked", refuse)
    streams = _count_streams(monkeypatch)
    argv, expected = workloads.make("stream", 7)
    assert cli.main([*argv, "--threads", "2"]) == 0
    assert [o["check"] for o in json.loads(capsys.readouterr().out)] == list(expected)
    assert streams == [20]


GROUPED = ["mtronq", "alpha", "derivK2", "headline", "prop1-b", "har", "mieux-2"]
GROUPED_GRID = {"s": [2.0], "x": [1000.0], "sweep_N": 100_000, "tmax": 500}


def test_grouped_checks_report_as_alone(deadline):
    alone = [run_check(name, GROUPED_GRID) for name in GROUPED]
    assert all(r.passed for r in alone)
    # two tasks share streams: the mu checks at 1e6, har and mieux-2 (hgap at 1e6)
    assert [task.indices for task in checks._tasks(GROUPED, GROUPED_GRID) if task.cells] == \
        [[0, 2, 3, 4], [5, 6]]
    for threads in (1, 2):
        grouped = run_suite(GROUPED, GROUPED_GRID, threads=threads)
        assert [r.check for r in grouped] == GROUPED
        for a, g in zip(alone, grouped):  # repr: prop1-b's cells hold nan
            assert repr((a.passed, a.worst, a.cells, a.payload)) == \
                repr((g.passed, g.worst, g.cells, g.payload))
        # each task's stream time is on its first report, outside elapsed_ms
        assert [r.check for r in grouped if r.fill_ms > 0] == ["mtronq", "har"]
    assert not sys.modules["moebius.mellin"]._STORE


def test_grouped_domain_error_is_raised_by_its_own_check(monkeypatch, tmp_path, deadline):
    # x = 1e6 lies beyond T = 4e5: the shared stream holds only the x = 1000
    # cells, and mtronq, the first to read x = 1e6, raises; derivK2, in its
    # task after it, never starts
    names = ["alpha", "mtronq", "k2", "derivK2"]
    grid = {"s": [2.0], "x": [1000.0, 1e6], "T": 4e5}
    log = tmp_path / "started"
    real = checks.run_check

    def run_check(name, *args):
        with open(log, "a") as f:
            f.write(name + "\n")
        return name if name in ("alpha", "k2") else real(name, *args)

    monkeypatch.setattr(checks, "run_check", run_check)
    for threads in (1, 2):
        with pytest.raises(DomainError, match="need 1 <= x <= T"):
            run_suite(names, grid, threads=threads)
        started = log.read_text().split()
        log.unlink()
        assert "mtronq" in started and "derivK2" not in started
        if threads == 1:
            assert started == ["alpha", "mtronq"]
    assert not sys.modules["moebius.mellin"]._STORE
    _no_child_left()
