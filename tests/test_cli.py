import json
import subprocess
import sys

import pytest

from moebius.cli import main

RUN = [sys.executable, "-m", "moebius.cli"]


def run_cli(*args):
    return subprocess.run([*RUN, *args], capture_output=True, text=True)


def test_compute_x10():
    r = run_cli("compute", "--x", "10", "--format", "csv")
    assert r.returncode == 0
    assert "M        = -1 (exact)" in r.stdout
    assert "0.09047619047619" in r.stdout


def test_compute_x1_trivial():
    r = run_cli("compute", "--x", "1")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["M"] == 1
    assert obj["m"]["value"].startswith("1.0")


def test_compute_domain_error_exit2():
    assert run_cli("compute", "--x", "0.5").returncode == 2
    assert run_cli("compute", "--x", "10", "--precision", "20").returncode == 2
    assert run_cli("compute", "--x", "10", "--cache-dir", "d").returncode == 2


def test_compute_large_M_field():
    r = run_cli("compute", "--x", "1e6", "--fields", "M", "--mode", "fast")
    assert r.returncode == 0
    assert json.loads(r.stdout)["M"] == 212


def test_verify_exit_zero_and_json_schema():
    r = run_cli("verify", "--suite", "formule-m,alpha", "--stable-output")
    assert r.returncode == 0
    objs = json.loads(r.stdout)
    assert {o["check"] for o in objs} == {"formule-m", "alpha"}
    for o in objs:
        assert set(o) == {"check", "grid", "worst", "location", "pass",
                          "rigor", "elapsed_ms"}


def test_verify_unknown_suite_exit2():
    assert run_cli("verify", "--suite", "not-a-check").returncode == 2
    assert run_cli("verify", "--suite", "alpha,nosuch", "--threads", "2").returncode == 2
    assert run_cli("sieve-cache", "--hi", "100").returncode == 2


def test_verify_error_in_a_worker_exit2():
    args = ("verify", "--suite", "alpha,mtronq", "--s", "0.5")
    serial, pooled = run_cli(*args, "--threads", "1"), run_cli(*args, "--threads", "2")
    assert serial.returncode == pooled.returncode == 2
    assert serial.stderr.startswith("error: ") and len(serial.stderr.splitlines()) == 1
    assert (pooled.stdout, pooled.stderr) == (serial.stdout, serial.stderr)


def test_verify_deterministic_bytes():
    args = ("verify", "--suite", "alpha,q-bounds", "--stable-output")
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout
    assert a.stdout  # nonempty
    # worker processes give the serial bytes; each run is a fresh process,
    # since warm in-process caches hide a shared-precision race
    for args, repeats in (
            (("verify", "--suite", "terre,q-l1", "--x", "24.99", "--target-radius", "0.12",
              "--stable-output"), 3),
            (("verify", "--suite", "fast", "--x", "10,50", "--stable-output"), 1)):
        serial = run_cli(*args, "--threads", "1")
        assert serial.returncode == 0 and serial.stdout
        for _ in range(repeats):
            assert run_cli(*args, "--threads", "2").stdout == serial.stdout, args


def test_verify_csv_format():
    r = run_cli("verify", "--suite", "alpha", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("check,")
    assert lines[1].startswith("alpha,")


def test_verify_grid_overrides():
    r = run_cli("verify", "--suite", "exact-Q-l1", "--s", "2", "--grid", "T=50",
                "--stable-output")
    assert r.returncode == 0
    (obj,) = json.loads(r.stdout)
    assert obj["pass"] is True
    assert obj["grid"]["T"] == 50


def test_verify_abel_on_a_short_sweep():
    # the step-form cells stay inside the sweep when xmax_fast is small
    r = run_cli("verify", "--suite", "abel", "--grid", "xmax_fast=5000", "--stable-output")
    assert r.returncode == 0, r.stderr
    (obj,) = json.loads(r.stdout)
    assert obj["pass"] is True


def test_landau_and_compose_outputs():
    r = run_cli("landau", "--rho", "0.5+14.134725i")
    assert r.returncode == 0
    assert abs(float(r.stdout) - 0.0024933) < 1e-6
    r = run_cli("compose", "--C", "4", "--c", "8.55e-6")
    assert float(r.stdout) == pytest.approx(3.42e-5)


def test_quad_output():
    r = run_cli("quad", "--s", "0.5+14.13i", "--T", "12", "--sup", "9.4",
                "--target-radius", "1e-2")
    assert r.returncode == 0
    assert "tail <= 0.783" in r.stdout  # 9.4/12
    assert "[rigorous]" in r.stdout


def test_config_file(tmp_path):
    cfg = tmp_path / "moebius.cfg"
    cfg.write_text("precision = 96\nthreads = 2\n")
    r = run_cli("--config", str(cfg), "compute", "--x", "10")
    assert r.returncode == 0
    # flags must beat the config
    r2 = run_cli("--config", str(cfg), "--precision", "20", "compute", "--x", "10")
    assert r2.returncode == 2


def test_main_in_process():
    assert main(["compute", "--x", "2"]) == 0
    assert main(["verify", "--suite", "alpha"]) == 0


def test_suite_exit_code_contract():
    from moebius.checks import BoundReport
    from moebius.cli import suite_exit_code
    ok = BoundReport("a", {}, 0.0, {}, True, "rigorous", 0.0)
    heur_fail = BoundReport("b", {}, -1.0, {}, False, "heuristic", 0.0)
    rig_fail = BoundReport("c", {}, -1.0, {}, False, "rigorous", 0.0)
    assert suite_exit_code([ok]) == 0
    assert suite_exit_code([ok, heur_fail]) == 3
    assert suite_exit_code([ok, heur_fail, rig_fail]) == 1


def test_verify_spec_example_invocations():
    r = run_cli("verify", "--suite", "balcheck", "--xmax", "20000")
    assert r.returncode == 0
    r = run_cli("verify", "--suite", "exact-Q-l1", "--s", "2", "--grid", "T=200")
    assert r.returncode == 0


def test_config_sets_every_global_key(tmp_path):
    out = tmp_path / "report.csv"
    cfg = tmp_path / "moebius.cfg"
    cfg.write_text("# all five global options\nprecision = 96\nthreads = 1\n"
                   f"format = csv\noutput = {out}\nstable_output = true\n")
    r = run_cli("--config", str(cfg), "verify", "--suite", "alpha")
    assert r.returncode == 0 and r.stdout == ""
    assert out.read_text().startswith("check,")
    # flags win over the file
    r = run_cli("--config", str(cfg), "--format", "json", "--output", str(tmp_path / "r.json"),
                "verify", "--suite", "alpha")
    assert r.returncode == 0
    (obj,) = json.loads((tmp_path / "r.json").read_text())
    assert obj["elapsed_ms"] == 0.0  # stable_output from the file


@pytest.mark.parametrize("text", ["precison = 20\n", "cache_dir = x\n", "precision = lots\n",
                                  "threads = 1.5\n", "format = xml\n", "stable_output = yes\n",
                                  "output =\n", "precision 96\n"])
def test_config_rejects_bad_lines_exit2(tmp_path, capsys, text):
    cfg = tmp_path / "moebius.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "verify", "--suite", "alpha"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.strip().splitlines()) == 1


def test_config_unreadable_exit2(tmp_path, capsys):
    for path in (tmp_path / "missing.cfg", tmp_path):
        assert main(["--config", str(path), "compute", "--x", "10"]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
