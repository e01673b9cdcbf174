"""Command-line front end.

Subcommands: compute | verify | quad | landau | compose.
Exit codes: 0 all rigorous checks pass; 1 a rigorous check failed; 2 bad
arguments or domain errors; 3 only heuristic checks failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import mpmath

from . import __version__
from .approx import HEURISTIC, PRECISION, render_value
from .checks import FAST_SUITE, compose_headline, landau_constant, registry_names, run_suite
from .errors import MoebiusError
from .kernels import KernelSpec
from .quadrature import integrate_abs_kernel, tail_bound_abs_Q
from .report import format_snapshot, reports_to_csv, reports_to_json, snapshot_to_dict
from .summatory import summatory

EXIT_OK = 0
EXIT_RIGOROUS_FAIL = 1
EXIT_USAGE = 2
EXIT_HEURISTIC_FAIL = 3


def _parse_complex(text: str) -> complex:
    return complex(text.replace("i", "j").replace(" ", ""))


def _parse_grid(text: str) -> dict:
    """key=v1,v2;key2=v3 -> {key: [v1, v2], key2: [v3]} with numeric coercion."""
    grid: dict = {}
    for part in filter(None, text.split(";")):
        key, _, vals = part.partition("=")
        items = []
        for v in vals.split(","):
            v = v.strip()
            try:
                items.append(float(v) if ("." in v or "e" in v.lower()) and "j" not in v
                             else int(v))
            except ValueError:
                try:
                    items.append(_parse_complex(v))
                except ValueError:
                    items.append(v)
        grid[key.strip()] = items if len(items) > 1 else items[0]
    return grid


def _global_options() -> argparse.ArgumentParser:
    """The options every subcommand takes, before or after its name.  They use
    SUPPRESS so a subparser never clobbers values parsed earlier."""
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--precision", type=int,
                        help=f"working precision in bits (>= 53, default {PRECISION})")
    common.add_argument("--threads", type=int,
                        help="worker processes for a suite's tasks (checks that share a "
                             "transform stream form one task), forked, each with its own "
                             "mpmath context (default: CPU count)")
    common.add_argument("--format", choices=("json", "csv"))
    common.add_argument("--output", help="write reports here instead of stdout")
    common.add_argument("--config", help="key=value config file; flags win")
    common.add_argument("--stable-output", action="store_true",
                        help="zero timing fields for byte-identical output")
    return common


def _config_value(action: argparse.Action, text: str):
    """`text` parsed as the flag `action` parses its argument; a switch takes
    true or false."""
    if not text:
        raise ValueError("expected a value")
    if action.nargs == 0:
        if text.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return text.lower() == "true"
    value = (action.type or str)(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {', '.join(action.choices)}")
    return value


def _load_config(path: str) -> dict:
    """key = value lines (# comments) -> typed global options, keyed and
    parsed as the global flags but --config.  Raises ValueError with a
    one-line message on an unreadable file, a line without '=', an unknown
    key or a malformed value."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    actions = {a.dest: a for a in _global_options()._actions if a.dest != "config"}
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        where = f"config file {path}, line {lineno}"
        if not eq:
            raise ValueError(f"{where}: expected key = value")
        if key not in actions:
            raise ValueError(f"{where}: unknown key {key!r} "
                             f"(known: {', '.join(actions)})")
        try:
            cfg[key] = _config_value(actions[key], val)
        except ValueError as exc:
            raise ValueError(f"{where}: bad value {val!r} for {key}: {exc}") from None
    return cfg


def build_parser() -> argparse.ArgumentParser:
    common = _global_options()
    p = argparse.ArgumentParser(prog="moebius", allow_abbrev=False, parents=[common],
                                description="Moebius summatory functions, explicit "
                                            "kernels and verified identity sweeps")
    p.add_argument("--version", action="version", version=f"moebius {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="summatory snapshot at x", parents=[common])
    c.add_argument("--x", required=True)
    c.add_argument("--fields", default=None, help="comma list from M,m,m_check,m_dcheck,m1,H,H_check")
    c.add_argument("--mode", choices=("auto", "fast", "mp"), default="auto")

    v = sub.add_parser("verify", help="run verification suites", parents=[common])
    v.add_argument("--suite", required=True,
                   help="comma list of check ids, or 'all' / 'fast'")
    v.add_argument("--grid", default=None, help="grid overrides: key=v1,v2;key2=v3")
    v.add_argument("--s", default=None, help="parameter s, e.g. 2 or 0.5+14.13i")
    v.add_argument("--x", default=None, help="x grid, comma separated")
    v.add_argument("--xmax", type=float, default=None)
    v.add_argument("--trange", default=None, help="t range lo:hi")
    v.add_argument("--T", type=float, default=None, help="truncation point override")
    v.add_argument("--target-radius", type=float, default=None)
    v.add_argument("--payload", action="store_true", help="include adjudication payloads")

    q = sub.add_parser("quad", parents=[common],
                       help="rigorous integral of |Q_s(t)|/t^2 over [1, T] plus tail bound")
    q.add_argument("--s", required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--target-radius", type=float, default=1e-2)
    q.add_argument("--sup", type=float, default=None,
                   help="explicit sup bound for the tail (default: best available)")

    l = sub.add_parser("landau", help="lower-bound constant at a zeta zero", parents=[common])
    l.add_argument("--rho", required=True)

    co = sub.add_parser("compose", help="headline composition C * c", parents=[common])
    co.add_argument("--C", type=float, required=True)
    co.add_argument("--c", type=float, required=True)
    co.add_argument("--x0", type=float, default=1e12)
    co.add_argument("--t0", type=float, default=2.5e11)
    return p


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text + ("\n" if not text.endswith("\n") else ""))
    else:
        print(text)


def cmd_compute(args) -> int:
    x = float(args.x)
    snap = summatory(x, mode=args.mode, precision=args.precision)
    fields = args.fields.split(",") if args.fields else None
    if args.format == "json":
        import json
        _emit(args, json.dumps(snapshot_to_dict(snap, fields), indent=1))
    else:
        _emit(args, format_snapshot(snap, fields))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = registry_names()
    elif args.suite == "fast":
        names = list(FAST_SUITE)
    else:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
    grid = _parse_grid(args.grid) if args.grid else {}
    if args.s:
        grid["s"] = [_parse_complex(v) for v in args.s.split(",")]
        if all(v.imag == 0 for v in grid["s"]):
            grid["s"] = [v.real for v in grid["s"]]
    if args.x:
        grid["x"] = [float(v) for v in args.x.split(",")]
    if args.xmax is not None:
        grid["xmax"] = args.xmax
    if args.trange:
        lo, _, hi = args.trange.partition(":")
        grid["trange"] = (float(lo), float(hi))
    if args.T is not None:
        grid["T"] = args.T
    reports = run_suite(names, grid, args.target_radius, args.precision, args.threads)
    if args.format == "csv":
        _emit(args, reports_to_csv(reports))
    else:
        _emit(args, reports_to_json(reports, stable=args.stable_output,
                                    include_payload=args.payload))
    return suite_exit_code(reports)


def suite_exit_code(reports) -> int:
    """0: all pass; 1: a rigorous check failed; 3: only heuristic failures."""
    if any(not r.passed and r.rigor != HEURISTIC for r in reports):
        return EXIT_RIGOROUS_FAIL
    if any(not r.passed and r.rigor == HEURISTIC for r in reports):
        return EXIT_HEURISTIC_FAIL
    return EXIT_OK


def cmd_quad(args) -> int:
    s = _parse_complex(args.s)
    spec = KernelSpec.make("Q", s)
    val = integrate_abs_kernel(spec, args.T, args.target_radius,
                               precision=args.precision)
    tail = tail_bound_abs_Q(spec, args.T, sup=args.sup)
    lines = [
        f"integral over [1, {args.T}] of |Q_s|/t^2 at s = {s}:",
        f"  head  = {render_value(val.value, val.radius)} [{val.rigor}]",
        f"  tail <= {tail:.6g}",
        f"  total in [{float(val.value) - val.radius:.6f}, "
        f"{float(val.value) + val.radius + tail:.6f}]",
    ]
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_landau(args) -> int:
    rho = _parse_complex(args.rho)
    _emit(args, f"{landau_constant(rho):.7g}")
    return EXIT_OK


def cmd_compose(args) -> int:
    value = compose_headline(args.C, args.c, x0=args.x0, t0=args.t0)
    _emit(args, f"{value:.6g}")
    return EXIT_OK


_GLOBAL_DEFAULTS = {
    "precision": PRECISION,
    "threads": None,  # filled with cpu_count at resolution time
    "format": "json",
    "output": None,
    "config": None,
    "stable_output": False,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    explicit = {k for k in _GLOBAL_DEFAULTS if hasattr(args, k)}
    try:
        cfg = _load_config(args.config) if "config" in explicit else {}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for key, val in cfg.items():
        if key not in explicit:
            setattr(args, key, val)
            explicit.add(key)
    for key, val in _GLOBAL_DEFAULTS.items():
        if key not in explicit:
            if key == "threads":
                val = os.cpu_count() or 1
            setattr(args, key, val)
    if args.precision < 53:
        print("precision must be >= 53 bits", file=sys.stderr)
        return EXIT_USAGE
    if args.threads < 1:
        print("threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    handlers = {"compute": cmd_compute, "verify": cmd_verify, "quad": cmd_quad,
                "landau": cmd_landau, "compose": cmd_compose}
    try:
        with mpmath.mp.workprec(args.precision + 16):
            return handlers[args.command](args)
    except (MoebiusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
