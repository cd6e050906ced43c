"""Span tracing of geowalk's layers, installed from outside the package.

:func:`install` replaces every public function and public method of the
layer modules (the names in each module's ``__all__``) with a wrapper that
records one span per call: name, start, end, parent span, and a work count
(rows for batched calls).  References copied by ``from .x import y`` are
rebound too, so calls between modules are seen.  Spans stay in memory and
:meth:`Tracer.dump` writes them once, when the traced process ends.

:func:`layer_metrics` reads such a dump and derives the per-layer metrics;
a layer's self time is its span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

LAYERS = (
    "manifolds",
    "bodies",
    "targets",
    "walk",
    "anneal",
    "diagnostics",
    "quadrature",
    "config",
    "cli",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.units = array("q")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, units=None, post=None):
        """Traced twin of ``fn``.  ``name`` may be a callable of the call's
        arguments; ``units`` gives the span's work count from the arguments;
        ``post`` sees ``(tracer, args, kwargs, result)`` and returns the
        result handed back to the caller."""
        fixed = None if callable(name) else self.name_id(name)
        span_name, parent, start, end, work = (
            self.span_name, self.parent, self.start, self.end, self.units
        )
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(fixed if fixed is not None else self.name_id(name(args, kwargs)))
            parent.append(stack[-1])
            work.append(units(args, kwargs) if units is not None else 1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                result = post(self, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def dump(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            units=np.frombuffer(self.units, dtype=np.int64),
            counters=np.array(json.dumps(dict(self.counters))),
        )


# ---------------------------------------------------------------------------
# What to record beyond the span itself.


def _rows(position: int):
    return lambda args, kwargs: len(args[position])


def _chain_counts(tracer, args, kwargs, result):
    stats = result.stats
    tracer.counters["walk.steps"] += stats.steps
    tracer.counters["walk.boundary_rejections"] += stats.boundary_rejections
    tracer.counters["walk.filter_rejections"] += stats.filter_rejections
    tracer.counters["walk.cut_locus_hits"] += stats.cut_locus_hits
    return result


def _anneal_counts(tracer, args, kwargs, result):
    lockstep = int(sum(result.allocations))
    tracer.counters["anneal.lockstep_steps"] += lockstep
    tracer.counters["anneal.trial_steps"] += lockstep * len(result.values)
    tracer.counters["anneal.rejections"] += sum(rec.rejections for trace in result.traces for rec in trace)
    return result


def _ensemble_units(args, kwargs):
    steps = kwargs.get("steps", args[4] if len(args) > 4 else 1)
    return len(args[0]) * int(steps)


def _trace_target(tracer, args, kwargs, result):
    return replace(
        result,
        f=tracer.wrap(result.f, "targets.f"),
        f_many=tracer.wrap(result.f_many, "targets.f_many", units=_rows(0)),
    )


def _options(layer: str, attr: str, is_method: bool) -> dict:
    if is_method and attr.endswith("_many") and attr != "haar_many":
        return {"units": _rows(1)}
    if (layer, attr) == ("walk", "run_chain"):
        return {"post": _chain_counts}
    if (layer, attr) == ("walk", "step_ensemble"):
        return {"units": _ensemble_units}
    if (layer, attr) == ("anneal", "anneal_trials"):
        return {"post": _anneal_counts}
    if (layer, attr) == ("diagnostics", "run_builtin_check"):
        return {"name": lambda args, kwargs: f"diagnostics.check.{args[0]}"}
    if layer == "targets" and attr in ("distance_to", "sqdist_to", "linear"):
        return {"post": _trace_target}
    return {}


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every layer module: its
    ``__all__``, or its public names when it has none."""
    modules = {layer: importlib.import_module(f"geowalk.{layer}") for layer in LAYERS}
    rebind = {}
    for layer, module in modules.items():
        public = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
        for attr in public:
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for meth, member in list(vars(obj).items()):
                    if meth.startswith("_") or not inspect.isfunction(member):
                        continue
                    opts = _options(layer, meth, True)
                    opts.setdefault("name", f"{layer}.{meth}")
                    setattr(obj, meth, tracer.wrap(member, **opts))
            elif inspect.isfunction(obj):
                opts = _options(layer, attr, False)
                opts.setdefault("name", f"{layer}.{attr}")
                rebind[obj] = tracer.wrap(obj, **opts)
    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("geowalk"):
            continue
        for key, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in rebind:
                setattr(module, key, rebind[value])


# ---------------------------------------------------------------------------
# Reading a dump.

# name -> unit of every per-layer metric, in report order.  BENCHMARK.json
# is the one list of them; the built-in checks timed are the ones it names.
METRICS = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
}
CHECKS = tuple(
    name[len("diagnostics.") : -len("_s")] for name in METRICS if name.startswith("diagnostics.")
)


class Spans:
    def __init__(self, path: Path):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.span_name = data["span_name"]
            self.parent = data["parent"]
            self.units = data["units"]
            self.duration = (data["end"] - data["start"]).astype(float) * 1e-9
            self.counters = json.loads(str(data["counters"]))
        child = np.zeros(self.duration.size)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.span_name, ids)

    def calls(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str) -> float:
        return float(self.duration[self.mask(*names)].sum())

    def self_total(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def per_call_us(self, *names: str) -> float:
        calls = self.calls(*names)
        return self.total(*names) / calls * 1e6 if calls else 0.0

    def per_unit_us(self, *names: str) -> float:
        m = self.mask(*names)
        units = int(self.units[m].sum())
        return float(self.duration[m].sum()) / units * 1e6 if units else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(path: Path) -> dict[str, float]:
    """Per-layer metrics of one traced run (everything in :data:`METRICS`
    except the anneal width fit and the tracing overhead, which need other
    runs).  A layer the run never calls reads 0."""
    s = Spans(path)
    c = s.counters
    steps = c.get("walk.steps", 0)
    walk_rejections = c.get("walk.boundary_rejections", 0) + c.get("walk.filter_rejections", 0)
    lockstep = c.get("anneal.lockstep_steps", 0)
    return {
        "manifolds.exp_us": s.per_call_us("manifolds.exp"),
        "manifolds.tangent_us": s.per_call_us("manifolds.tangent_gaussian"),
        "manifolds.dist_us": s.per_call_us("manifolds.dist"),
        "manifolds.exp_many_us_per_row": s.per_unit_us("manifolds.exp_many"),
        "manifolds.tangent_many_us_per_row": s.per_unit_us("manifolds.tangent_from_gaussian_many"),
        "manifolds.dist_many_us_per_row": s.per_unit_us("manifolds.dist_many"),
        "manifolds.exp_calls": s.calls("manifolds.exp", "manifolds.exp_many"),
        "manifolds.dist_calls": s.calls("manifolds.dist", "manifolds.dist_many"),
        "bodies.contains_us": s.per_call_us("bodies.contains_coords"),
        "bodies.contains_many_us_per_row": s.per_unit_us("bodies.contains_many"),
        "bodies.contains_calls": s.calls("bodies.contains_coords", "bodies.contains_many"),
        "bodies.uniform_draw_s": s.total("bodies.sample_uniform_many", "bodies.rejection_sample_uniform"),
        "targets.f_us": s.per_call_us("targets.f"),
        "targets.f_many_us_per_row": s.per_unit_us("targets.f_many"),
        "targets.f_calls": s.calls("targets.f", "targets.f_many"),
        "walk.step_us": _ratio(s.total("walk.run_chain"), steps) * 1e6,
        "walk.self_us_per_step": _ratio(s.self_total("walk.run_chain"), steps) * 1e6,
        "walk.accept_ratio": _ratio(steps - walk_rejections, steps),
        "walk.boundary_reject_ratio": _ratio(c.get("walk.boundary_rejections", 0), steps),
        "walk.filter_reject_ratio": _ratio(c.get("walk.filter_rejections", 0), steps),
        "walk.ensemble_us_per_row_step": s.per_unit_us("walk.step_ensemble"),
        "anneal.lockstep_us": _ratio(s.total("anneal.anneal_trials"), lockstep) * 1e6,
        "anneal.self_us_per_step": _ratio(s.self_total("anneal.anneal_trials"), lockstep) * 1e6,
        "anneal.accept_ratio": 1.0
        - _ratio(c.get("anneal.rejections", 0), c.get("anneal.trial_steps", 0))
        if lockstep
        else 0.0,
        **{f"diagnostics.{check}_s": s.total(f"diagnostics.check.{check}") for check in CHECKS},
        "quadrature.integrate_us": s.per_call_us("quadrature.integrate"),
        "quadrature.integrate_calls": s.calls("quadrature.integrate"),
        "config.load_s": s.total("config.load_config"),
        "cli.self_s": s.self_total("cli.main"),
    }
