"""Span tracing around the public functions of the package's modules.

The tracer wraps each public function and public method of the traced
modules from outside: the wrapper replaces every reference to the original
function object in the package's module namespaces, so calls between
modules (``from .rng import make_generator``) are traced too.  No file of
the package changes.

A span is (id, parent id, name, start, end, op, extra).  Spans of one
operation share the ``op`` label, the parent is the enclosing span on the
same thread, and ``extra`` holds counts read from the call's arguments and
result.  Spans stay in memory; ``summary`` aggregates them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("config", "cli", "timefns", "rng", "ou", "invariant", "certificates",
          "ergodic", "absorbed", "measures")

VALIDATORS = ("ou.OUSpec.validate", "absorbed.BoundaryPair.validate")


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _survival_flags(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    return {"paths": a["n_paths"], "path_steps": a["n_paths"] * (len(a["ts"]) - 1),
            "alive": int(result.sum())}


def _engine(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    return {"noise_elems": 2 * len(a["ids"]) * (len(a["ts"]) - 1)}


def _fleming_viot(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    n_steps = int(round(a["T"] / a["dt"]))
    log = result.system.resample_log
    return {"particle_steps": a["n_particles"] * n_steps, "steps": n_steps,
            "respawns": len(log), "respawn_steps": len({t for t, _, _ in log})}


def _ergodic_time_averages(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    n_steps = int(round(max(a["t_values"]) / a["dt"]))
    return {"replica_steps": a["n_replicas"] * n_steps, "threads": a["threads"]}


# span name -> function (fn, args, kwargs, result) -> extra counts
PROBES = {
    "absorbed.survival_flags": _survival_flags,
    "absorbed._engine": _engine,
    "absorbed.fleming_viot": _fleming_viot,
    "ergodic.ergodic_time_averages": _ergodic_time_averages,
}

# private functions traced for a computed metric (noise batch shape)
PRIVATE = {"absorbed": ("_engine",)}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self.active = False
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        probe = PROBES.get(name)
        counting = name == "timefns.integrate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            extra = None
            if counting:  # count integrand evaluations through the f argument
                a = _bind(fn, args, kwargs)
                f, evals = a["f"], [0]

                def f_counted(x):
                    evals[0] += 1
                    return f(x)
                a["f"] = f_counted
                args, kwargs = tuple(a.values()), {}
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, tracer.op,
                                     {"error": type(exc).__name__}))
                raise
            t1 = time.perf_counter()
            stack.pop()
            if counting:
                extra = {"evals": evals[0]}
            elif probe is not None:
                extra = probe(fn, args, kwargs, result)
            tracer.spans.append((sid, parent, name, t0, t1, tracer.op, extra))
            return result
        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        import importlib

        modules = {layer: importlib.import_module(f"apmarkov.{layer}") for layer in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "apmarkov" or n.startswith("apmarkov."))]
        for layer, mod in modules.items():
            names = list(getattr(mod, "__all__", None) or
                         [n for n in vars(mod) if not n.startswith("_")])
            names += [n for n in PRIVATE.get(layer, ()) if n in vars(mod)]
            self.missing += [f"{layer}.{n}" for n in PRIVATE.get(layer, ())
                             if n not in vars(mod)]
            for attr in names:
                obj = getattr(mod, attr, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for m in package:  # every namespace that imported it
                        for k, v in list(vars(m).items()):
                            if v is obj:
                                setattr(m, k, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def summary(self) -> dict:
        """Per-name calls, total and self time; per-op layer self time;
        summed probe counts.  Self time is a span's duration minus the
        durations of its child spans."""
        child_time: dict = defaultdict(float)
        for sid, parent, name, t0, t1, op, extra in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        names: dict = {}
        extras: dict = defaultdict(lambda: defaultdict(float))
        maxima: dict = defaultdict(float)
        layer_self_by_op: dict = defaultdict(lambda: defaultdict(float))
        validations = 0
        for sid, parent, name, t0, t1, op, extra in self.spans:
            dur = t1 - t0
            self_s = dur - child_time.get(sid, 0.0)
            rec = names.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += self_s
            if op is not None:
                layer_self_by_op[op][name.split(".", 1)[0]] += self_s
                if name in VALIDATORS:
                    validations += 1
            for k, v in (extra or {}).items():
                if isinstance(v, (int, float)):
                    extras[name][k] += v
                    maxima[f"{name}.{k}"] = max(maxima[f"{name}.{k}"], v)
        return {
            "names": {n: {"calls": c, "total_s": t, "self_s": s}
                      for n, (c, t, s) in sorted(names.items())},
            "extras": {n: dict(v) for n, v in extras.items()},
            "maxima": dict(maxima),
            "layer_self_by_op": {op: dict(v) for op, v in layer_self_by_op.items()},
            "validations_in_ops": validations,
            "missing": self.missing,
        }
