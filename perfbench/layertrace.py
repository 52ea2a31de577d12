"""Per-layer spans for logsurf, installed from outside the library.

Every public function defined in a layer module is wrapped, and every
``logsurf.*`` module attribute that holds the same function object is
rebound to the wrapper (``reflect`` and ``germs`` import names directly,
so patching the defining module alone would miss their calls).
``restore`` puts every original binding back.

A timed wrapper keeps a stack of open spans; a span's self time is its
duration minus the durations of the spans it opened.  Spans are folded
into per-function totals and per-(parent, child) call counts as they
close, so memory stays flat however many calls a run makes.

``surface`` functions are counted, not timed: ``dense_eval`` makes about
10k of them per op, and their time stays in their callers' self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("surface", "series", "germs", "logpower", "corner", "reflect", "cli")
COUNTED_ONLY = frozenset({"surface"})
# Attribute set on every wrapper; it holds the wrapped original.
MARK = "__perfbench_original__"


def logsurf_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "logsurf" or name.startswith("logsurf."))
    ]


def bound_wrappers() -> list[str]:
    """Names of logsurf module attributes that still hold a wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in logsurf_modules()
        for attr, val in vars(mod).items()
        if hasattr(val, MARK)
    ]


class LayerTrace:
    """Wraps the layer functions while installed and aggregates their spans."""

    def __init__(self):
        self.calls = Counter()
        self.errors = Counter()
        self.incl = Counter()
        self.self_time = Counter()
        self.edges = Counter()
        self.landed = 0
        self.descent = 0
        self.outside = 0
        self._stack = []
        self._bound = []
        # Set while the extend_eval hook runs, so its calls go uncounted.
        self._paused = [False]

    def install(self) -> None:
        if self._bound:
            raise RuntimeError("trace already installed")
        reflect = importlib.import_module("logsurf.reflect")
        self._membership = reflect.membership
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"logsurf.{layer}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if layer in COUNTED_ONLY:
                    wrapper = self._counted(name, fn)
                else:
                    pre = self._descent if name == "reflect.extend_eval" else None
                    wrapper = self._timed(name, fn, pre)
                setattr(wrapper, MARK, fn)
                wrappers[id(fn)] = (fn, wrapper)
        for mod in logsurf_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._bound.append((mod, attr, val))

    def restore(self) -> None:
        while self._bound:
            mod, attr, val = self._bound.pop()
            setattr(mod, attr, val)

    def _descent(self, states, base, z):
        self._paused[0] = True
        try:
            level = self._membership(states, z)
        finally:
            self._paused[0] = False
        if level is None:
            self.outside += 1
        else:
            self.landed += 1
            self.descent += level - 1

    def _counted(self, name, fn):
        calls, errors, paused = self.calls, self.errors, self._paused

        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise

        return wrapper

    def _timed(self, name, fn, pre):
        stack = self._stack
        calls, errors, edges = self.calls, self.errors, self.edges
        incl, self_time = self.incl, self.self_time
        paused = self._paused
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            if pre is not None:
                # Charged to no span: the parent treats it as a child's time.
                t = clock()
                pre(*args, **kwargs)
                if stack:
                    stack[-1][1] += clock() - t
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                incl[name] += elapsed
                self_time[name] += elapsed - frame[1]
                edges[(parent, name)] += 1
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def metrics(self, ops: int, time_scale: float = 1.0) -> dict:
        """The per-layer metrics of the traced ops, normalised per op.

        Times are multiplied by time_scale (see speed.py).
        """
        c = self.calls
        inc = Counter({k: v * time_scale for k, v in self.incl.items()})
        slf = Counter({k: v * time_scale for k, v in self.self_time.items()})

        def layer_sum(table, layer):
            return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls_per_op"] = layer_sum(c, layer) / ops
            if layer not in COUNTED_ONLY:
                m[f"{layer}.self_ms_per_op"] = layer_sum(slf, layer) * 1e3 / ops
            m[f"{layer}.errors_per_op"] = layer_sum(self.errors, layer) / ops
        for fn in ("series.reversion", "series.binom_pow", "series.ps_eval",
                   "germs.apply_germ", "germs.invert", "germs.compose", "logpower.evaluate"):
            m[f"{fn}.calls_per_op"] = c[fn] / ops
        for fn in ("series.binom_pow", "series.ps_compose", "series.ps_eval",
                   "germs.apply_germ", "cli.run"):
            m[f"{fn}.self_ms_per_op"] = slf[fn] * 1e3 / ops
        for fn in ("series.reversion", "series.compose_germ", "reflect.step",
                   "corner.poisson_disk"):
            m[f"{fn}.incl_ms_per_op"] = inc[fn] * 1e3 / ops
        certifying = c["germs.make_germ"] + c["germs.invert"] + c["germs.root_pullback"]
        m["germs.sampled_h_sup.per_certify"] = c["germs.sampled_h_sup"] / certifying if certifying else 0.0
        evals = c["reflect.extend_eval"]
        m["reflect.extend_eval.incl_us_per_call"] = inc["reflect.extend_eval"] * 1e6 / evals if evals else 0.0
        m["reflect.extend_eval.descent_mean"] = self.descent / self.landed if self.landed else 0.0
        m["reflect.extend_eval.outside_ratio"] = self.outside / evals if evals else 0.0
        return m

    def report(self, count: int = 12) -> list[str]:
        """The functions with the most self time, each with its main caller."""
        callers = defaultdict(Counter)
        for (parent, child), n in self.edges.items():
            callers[child][parent] += n
        lines = [f"{'self s':>8} {'calls':>9}  function  (main caller: calls), unscaled"]
        for name, secs in sorted(self.self_time.items(), key=lambda kv: kv[1], reverse=True)[:count]:
            parent, n = callers[name].most_common(1)[0]
            lines.append(f"{secs:8.3f} {self.calls[name]:9d}  {name}  ({parent}: {n})")
        return lines
