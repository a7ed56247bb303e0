"""Layer tracing installed from outside the package.

Wraps the public functions of every monokit layer module (in each module
that binds them, not only the defining one), the enumerate_graph, phi and
graph_contains methods of every OperatorHandle subclass, and two private
counters: lp._pivot (the only outside handle on simplex pivots) and
operators._pairwise_gap_failures (pairs examined by the monotone scan).

Spans are kept in memory as compact arrays (name, start, end, parent, job)
and written out once, when the run ends. A span's self time is its
duration minus the time covered by its direct children.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Modules whose public functions are layers; core, verdicts and errors are
# data types and get no metrics.
LAYERS = ("regions", "operators", "fitzpatrick", "convex", "lp", "sumcalc",
          "classify", "specfile", "cli")
# Modules that bind layer functions under their own names.
BINDERS = LAYERS + ("gallery", "core", "verdicts")
METHODS = ("enumerate_graph", "phi", "graph_contains")
ROOT = "job"


class Tracer:
    """Span recorder; records only while `on` is set, transparent otherwise."""

    def __init__(self):
        self.on = False
        self.job = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_id = array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.enum_keys: set = set()
        self.negative_self = 0

    def _nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_id.append(self.job)
        self.end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        child = self._child.pop()
        dur = t - self.start[idx]
        own = dur - child
        if own < -1e-9:
            self.negative_self += 1
        name = self.names[self.name_id[idx]]
        self.calls[name] += 1
        self.self_s[name] += own
        if self._child:
            self._child[-1] += dur

    def parent_name(self) -> str | None:
        """Name of the innermost open span, if any."""
        if not self._stack:
            return None
        return self.names[self.name_id[self._stack[-1]]]

    def span_count(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name_id, "i4"),
            start=np.frombuffer(self.start, "f8"),
            end=np.frombuffer(self.end, "f8"),
            parent=np.frombuffer(self.parent, "i4"),
            job=np.frombuffer(self.job_id, "i4"))


def _wrap(fn, name, tracer: Tracer, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, out)
        return out
    traced.__wrapped_by_bench__ = True
    return traced


def _counted(fn, counter, tracer: Tracer, amount=None):
    """No span, only a count; for calls too frequent or too small to time."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.on:
            tracer.counts[counter] += 1 if amount is None else amount(args)
        return fn(*args, **kwargs)
    counted.__wrapped_by_bench__ = True
    return counted


def _len_counter(key):
    def after(tracer, args, out):
        tracer.counts[key] += len(out)
    return after


def _after_enumerate(tracer, args, out):
    tracer.counts["operators.enumerate_graph.points"] += len(out)
    self, V, g = args[0], args[1], args[2]
    try:
        key = (type(self).__name__, self, V, g)
        hash(key)
    except TypeError:
        key = (type(self).__name__, id(self), id(V), g)
    tracer.enum_keys.add(key)


def _after_batch(tracer, args, out):
    tracer.counts["convex.max_affine_eval_batch.rows"] += int(args[1].shape[0])


def _pairs(args):
    n = len(args[0])
    return n * (n - 1) // 2


AFTER = {
    "regions.grid_sample": _len_counter("regions.grid_sample.points"),
    "fitzpatrick.scan_grid": _len_counter("fitzpatrick.scan_grid.points"),
    "convex.max_affine_eval_batch": _after_batch,
}


def _wrap_solve(fn, tracer: Tracer, lp_module):
    infeasible = lp_module.LPStatus.INFEASIBLE

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        if tracer.parent_name() == "convex.envelope_eval":
            tracer.counts["convex.envelope_eval.lp_calls"] += 1
        idx = tracer.open("lp.solve")
        try:
            out = fn(*args, **kwargs)
        except Exception:
            tracer.counts["lp.solve.errors"] += 1
            raise
        finally:
            tracer.close(idx)
        if out.status is infeasible:
            tracer.counts["lp.solve.infeasible"] += 1
        return out
    traced.__wrapped_by_bench__ = True
    return traced


def _wrap_phi(fn, tracer: Tracer):
    @functools.wraps(fn)
    def traced(self, V, *args, **kwargs):
        if not tracer.on:
            return fn(self, V, *args, **kwargs)
        route = "closed" if self.phi_is_exact(V) else "sampled"
        idx = tracer.open("operators.phi." + route)
        try:
            return fn(self, V, *args, **kwargs)
        finally:
            tracer.close(idx)
    traced.__wrapped_by_bench__ = True
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; idempotent per process."""
    import monokit  # noqa: F401  (loads every module but cli)
    import monokit.cli  # noqa: F401
    from monokit import lp, operators

    wrapped: dict[int, object] = {}

    def wrapper_for(obj):
        key = id(obj)
        if key not in wrapped:
            layer = obj.__module__.rsplit(".", 1)[-1]
            name = f"{layer}.{obj.__name__}"
            if name == "lp.solve":
                wrapped[key] = _wrap_solve(obj, tracer, lp)
            else:
                wrapped[key] = _wrap(obj, name, tracer, AFTER.get(name))
        return wrapped[key]

    binders = [sys.modules["monokit"]] + [sys.modules[f"monokit.{m}"]
                                          for m in BINDERS]
    for module in binders:
        for attr, obj in list(vars(module).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and not getattr(obj, "__wrapped_by_bench__", False)
                    and obj.__module__.rsplit(".", 1)[-1] in LAYERS
                    and obj.__module__.startswith("monokit.")):
                setattr(module, attr, wrapper_for(obj))

    lp._pivot = _counted(lp._pivot, "lp.pivots", tracer)
    operators._pairwise_gap_failures = _counted(
        operators._pairwise_gap_failures, "operators.is_monotone.pairs",
        tracer, _pairs)

    for cls in _handle_classes(operators.OperatorHandle):
        for meth in METHODS:
            fn = cls.__dict__.get(meth)
            if fn is None or getattr(fn, "__wrapped_by_bench__", False):
                continue
            if meth == "phi":
                setattr(cls, meth, _wrap_phi(fn, tracer))
            elif meth == "enumerate_graph":
                setattr(cls, meth, _wrap(fn, "operators.enumerate_graph",
                                         tracer, _after_enumerate))
            else:
                setattr(cls, meth, _wrap(fn, "operators.graph_contains",
                                         tracer))


def _handle_classes(base):
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen
