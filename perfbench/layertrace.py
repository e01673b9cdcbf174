"""Per-layer tracing from outside the program.

`install()` wraps the public functions of each moebius layer module, plus a
few methods named below, and rebinds every reference other moebius modules
hold to them: module globals (`from .sieve import iter_segments`), module
level dicts and closure cells (the check registry).  Each call is a span; a
generator is a span per `next()`.  Spans carry name, start, end, parent and
thread, and a layer's self time is its span time minus its child spans on
the same thread.  Under the CLI's thread pool a span also holds the time its
thread waited for the GIL, so self times may add up to more than the wall.  Work counters are taken at the same boundaries, and cache
hit ratios from the program's own `lru_cache`s.

Hooks look their targets up by name and skip a missing one, so a later
change that removes a function loses only that counter (listed in
`missing`), not the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ["sieve", "summatory", "zeta", "kernels", "quadrature", "piecewise",
          "convolution", "mellin", "identities", "checks", "cli"]

# method spans: (module, class, method)
METHODS = [("piecewise", "Partition", "__init__"), ("piecewise", "Partition", "pieces"),
           ("mellin", "TruncatedTransform", "__init__")]

# cache hit ratios: metric -> (module, lru_cache-wrapped function)
CACHES = {"summatory.prefix_sweep_hit_ratio": ("summatory", "prefix_sweep"),
          "zeta.prefix_table_hit_ratio": ("zeta", "power_prefix_table"),
          "kernels.frac_tail_hit_ratio": ("kernels", "frac_tail_evaluator"),
          "piecewise.mu_over_n_hit_ratio": ("piecewise", "mu_over_n_values")}


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, thread, tag]
        self.counts: Counter = Counter()
        self.keys: defaultdict = defaultdict(list)
        self.missing: list[str] = []
        self.caches: dict = {}  # metric -> cache_info of the lru_cache it reads
        self._lock = threading.Lock()
        self._local = threading.local()

    def open(self, name: str, tag=None) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                threading.get_ident(), tag]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._local.stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def key(self, name: str, key) -> None:
        with self._lock:
            self.keys[name].append(key)


def _span_call(rec: Recorder, name: str, fn, before=None, after=None, tag=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = rec.open(name, tag(args, kwargs) if tag else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(result)
        return result
    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _span_gen(rec: Recorder, name: str, fn, each=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                idx = rec.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                if each is not None:
                    each(item)
                yield item
        finally:
            gen.close()
    return wrapper


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _hooks(rec: Recorder, zeta) -> dict:
    """Counters per span name: {name: dict(before=, after=, each=, tag=)}."""

    def sieve_values(table):
        rec.count("sieve.values", len(table.values))

    def cumsum(args, kwargs):
        rec.count("summatory.cumsum_values", len(_arg(args, kwargs, 0, "terms")))

    def transform(args, kwargs):
        # __init__(self, s, x, T, weight, ...)
        x = float(_arg(args, kwargs, 2, "x"))
        T = float(_arg(args, kwargs, 3, "T"))
        rec.count("mellin.transforms")
        rec.count("mellin.stream_values", math.floor(T))
        rec.key("mellin.transform_keys", (_arg(args, kwargs, 4, "weight"), x, T))

    def zeta_call(args, kwargs):
        sp = zeta.ComplexParam.coerce(_arg(args, kwargs, 0, "s"))
        rec.count("zeta.em_calls")
        rec.key("zeta.em_keys", (sp.sigma, sp.tau, _arg(args, kwargs, 1, "target_radius", 1e-30),
                                 _arg(args, kwargs, 2, "precision") or zeta.mpmath.mp.prec,
                                 _arg(args, kwargs, 3, "want_derivative", True)))

    def quad_cells(args, kwargs):
        rec.count("quadrature.cells", max(0, math.ceil(float(_arg(args, kwargs, 1, "T"))) - 1))

    def counter(name):
        return lambda args, kwargs: rec.count(name)

    return {
        "sieve.iter_segments": {"each": sieve_values},
        "sieve.sieve_range": {"after": sieve_values},
        "summatory.compensated_cumsum": {"before": cumsum},
        "mellin.TruncatedTransform.__init__": {"before": transform},
        "zeta.zeta_em": {"before": zeta_call},
        "kernels.kernel_eval": {"before": counter("kernels.eval_calls")},
        "kernels.kernel_eval_em": {"before": counter("kernels.eval_calls")},
        "quadrature.integrate_abs_kernel": {"before": quad_cells},
        "quadrature.integrate_signed_kernel": {"before": quad_cells},
        "piecewise.Partition.__init__": {"before": counter("piecewise.partitions")},
        "piecewise.Partition.pieces": {"each": lambda item: rec.count("piecewise.pieces")},
        "convolution.terre_sides": {"before": counter("convolution.sides_calls")},
        "convolution.voyage_sides": {"before": counter("convolution.sides_calls")},
        "checks.run_check": {"tag": lambda args, kwargs: _arg(args, kwargs, 0, "check_id")},
    }


def _wrap(rec: Recorder, name: str, fn, hooks: dict):
    h = hooks.get(name, {})
    if inspect.isgeneratorfunction(fn):
        return _span_gen(rec, name, fn, h.get("each"))
    return _span_call(rec, name, fn, h.get("before"), h.get("after"), h.get("tag"))


def _is_traced_function(obj, module_name: str) -> bool:
    wrapped = inspect.isfunction(obj) or hasattr(obj, "cache_info")
    return wrapped and getattr(obj, "__module__", None) == module_name


def _rebind(replace: dict) -> None:
    """Point every moebius reference to an original at its wrapper: module
    globals, values of module-level dicts, and closure cells of both."""
    by_id = {id(orig): wrapper for orig, wrapper in replace.items()}

    def patch_closure(fn) -> None:
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                if id(cell.cell_contents) in by_id:
                    cell.cell_contents = by_id[id(cell.cell_contents)]
            except ValueError:  # empty cell
                pass

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "moebius" or mod_name.startswith("moebius.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in by_id:
                setattr(mod, attr, by_id[id(value)])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in by_id:
                        value[k] = by_id[id(v)]
                    else:
                        patch_closure(v)
            else:
                patch_closure(value)


def install() -> Recorder:
    """Wrap the layers of the imported moebius package; return the recorder."""
    rec = Recorder()
    mods = {name: importlib.import_module(f"moebius.{name}") for name in LAYERS}
    hooks = _hooks(rec, mods["zeta"])
    replace = {}
    traced = set()
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if not attr.startswith("_") and _is_traced_function(obj, mod.__name__):
                replace[obj] = _wrap(rec, f"{short}.{attr}", obj, hooks)
                traced.add(f"{short}.{attr}")
    for short, cls_name, meth in METHODS:
        fn = getattr(getattr(mods[short], cls_name, None), meth, None)
        if fn is not None:
            setattr(getattr(mods[short], cls_name), meth,
                    _wrap(rec, f"{short}.{cls_name}.{meth}", fn, hooks))
            traced.add(f"{short}.{cls_name}.{meth}")
    _rebind(replace)
    for metric, (short, name) in CACHES.items():
        rec.caches[metric] = getattr(getattr(mods[short], name, None), "cache_info", None)
    rec.missing = sorted({*hooks, *(f"{m}.{n}" for m, n in CACHES.values())} - traced)
    return rec


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(rec: Recorder, checks: list[str]) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced call."""
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in rec.spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    check_wall = defaultdict(float)
    suite_start = None
    check_starts = []
    for i, (name, start, end, _, _, tag) in enumerate(rec.spans):
        self_s[name.split(".", 1)[0]] += (end - start) - child_time[i]
        if name == "checks.run_suite" and suite_start is None:
            suite_start = start
        if name == "checks.run_check":
            check_wall[tag] += end - start
            check_starts.append(start)
    c = rec.counts
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS if layer != "checks"}
    out.update({
        "sieve.values": c["sieve.values"],
        "sieve.values_per_s": _ratio(c["sieve.values"], self_s["sieve"]),
        "summatory.cumsum_values": c["summatory.cumsum_values"],
        "mellin.transforms": c["mellin.transforms"],
        "mellin.distinct_transforms": len(set(rec.keys["mellin.transform_keys"])),
        "mellin.stream_values": c["mellin.stream_values"],
        "mellin.values_per_s": _ratio(c["mellin.stream_values"], self_s["mellin"]),
        "zeta.em_calls": c["zeta.em_calls"],
        "zeta.em_repeat_ratio": _ratio(len(rec.keys["zeta.em_keys"])
                                       - len(set(rec.keys["zeta.em_keys"])), c["zeta.em_calls"]),
        "kernels.eval_calls": c["kernels.eval_calls"],
        "quadrature.cells": c["quadrature.cells"],
        "quadrature.cells_per_s": _ratio(c["quadrature.cells"], self_s["quadrature"]),
        "piecewise.partitions": c["piecewise.partitions"],
        "piecewise.pieces": c["piecewise.pieces"],
        "piecewise.pieces_per_s": _ratio(c["piecewise.pieces"], self_s["piecewise"]),
        "convolution.sides_calls": c["convolution.sides_calls"],
        "checks.wait_s": sum(s - suite_start for s in check_starts) if suite_start else 0.0,
    })
    for metric, cache_info in rec.caches.items():
        info = cache_info() if cache_info is not None else None
        out[metric] = _ratio(info.hits, info.hits + info.misses) if info else 0.0
    for check in checks:
        out[f"checks.{check}.wall_s"] = check_wall.get(check, 0.0)
    return out
