"""Spans and counters around the calls into each pcosync layer.

The wrappers live here, outside the package.  ``install`` rebinds every
global of a ``pcosync`` module that names a wrapped function, so calls made
through that module go through the wrapper.  A function that no longer
exists is skipped and its metrics read 0, so the benchmark keeps running
after a layer is rewritten.

Spans (name, start, end, parent) are kept in memory and written out with
``dump`` when the run ends.  A span's self time is its duration minus the
durations of its children; calls in one thread nest without overlap, so
that is the part of its interval the children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

LAYERS = ("cli", "dtmc", "dynamics", "metrics", "analysis", "export")

# Solve and factor entry points of NumPy/SciPy, timed as "analysis.linsolve"
# wherever pcosync calls them: by name, or through a module alias like
# ``np.linalg.solve`` or ``spla.spsolve``.
LINSOLVE_ENTRY_POINTS = {
    "numpy.linalg": ("solve",),
    "scipy.linalg": ("solve", "lu_factor", "lu_solve"),
    "scipy.sparse.linalg": ("spsolve", "splu", "spilu", "factorized", "bicgstab", "gmres"),
}

# Per-layer metrics reported by the traced run, with their units.
UNITS = {
    "analysis.linsolve_s": "s",
    "analysis.linsolve_calls": "count",
    "analysis.linsolve_unknowns": "count",
    "analysis.solve_query_s": "s",
    "analysis.solve_query_calls": "count",
    "analysis.reach_probability_s": "s",
    "analysis.expected_reward_s": "s",
    "analysis.target_set_s": "s",
    "analysis.aggregate_s": "s",
    "analysis.target_states": "count",
    "analysis.monte_carlo_s": "s",
    "analysis.mc_samples": "count",
    "analysis.mc_censored": "count",
    "metrics.phase_coherence_s": "s",
    "metrics.phase_coherence_calls": "count",
    "dtmc.build_dtmc_s": "s",
    "dtmc.build_dtmc_self_s": "s",
    "dtmc.build_dtmc_calls": "count",
    "dtmc.states": "count",
    "dtmc.transitions": "count",
    "dtmc.states_per_s": "1/s",
    "dynamics.successor_distribution_s": "s",
    "dynamics.successor_distribution_calls": "count",
    "dynamics.skip_successor_calls": "count",
    "dynamics.failure_vectors": "count",
    "dynamics.branches_per_failure_vector": "ratio",
    "export.export_model_s": "s",
    "export.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_ratio": "ratio",
}


def self_times(parents: list[int], durations: list[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = list(durations)
    for child, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[child]
    return own


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name: str, fn: Callable, on_call=None, on_result=None) -> Callable:
        """Wrap fn so each call records a span; the hooks update counters."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            if on_call is not None:
                on_call(counts, args)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        """Wrap fn so each call only increments a counter (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path) -> None:
        spans = [
            [self.names[n], s, e, p]
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
        ]
        path.write_text(json.dumps({"columns": ["name", "start", "end", "parent"], "spans": spans}))

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far; wall_s is the
        traced run's end-to-end time."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = self_times(list(self.parent), durations)
        incl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        own_by_name: dict[str, float] = defaultdict(float)
        for nid, d, o in zip(self.name, durations, own):
            name = self.names[nid]
            incl[name] += d
            calls[name] += 1
            own_by_name[name] += o
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, o in own_by_name.items():
            layer_self[name.split(".", 1)[0]] += o
        c = self.counts
        m = {
            "analysis.linsolve_s": incl["analysis.linsolve"],
            "analysis.linsolve_calls": calls["analysis.linsolve"],
            "analysis.linsolve_unknowns": c["analysis.linsolve_unknowns"],
            "analysis.target_states": c["analysis.target_states"],
            "analysis.mc_samples": c["analysis.mc_samples"],
            "analysis.mc_censored": c["analysis.mc_censored"],
            "metrics.phase_coherence_calls": calls["metrics.phase_coherence"],
            "dtmc.build_dtmc_self_s": own_by_name["dtmc.build_dtmc"],
            "dtmc.build_dtmc_calls": calls["dtmc.build_dtmc"],
            "dtmc.states": c["dtmc.states"],
            "dtmc.transitions": c["dtmc.transitions"],
            "dtmc.states_per_s": _ratio(c["dtmc.states"], incl["dtmc.build_dtmc"]),
            "dynamics.successor_distribution_calls": calls["dynamics.successor_distribution"],
            "dynamics.skip_successor_calls": c["dynamics.skip_successor_calls"],
            "dynamics.failure_vectors": c["dynamics.failure_vectors"],
            "dynamics.branches_per_failure_vector": _ratio(
                c["dynamics.branches"], c["dynamics.failure_vectors"]
            ),
            "export.bytes_written": c["export.bytes_written"],
            "analysis.solve_query_calls": calls["analysis.solve_query"],
            **{f"{layer}.self_s": s for layer, s in layer_self.items()},
            "trace.wall_s": wall_s,
            "trace.self_sum_ratio": _ratio(sum(layer_self.values()), wall_s),
        }
        for name in ("analysis.solve_query", "analysis.reach_probability",
                     "analysis.expected_reward", "analysis.target_set", "analysis.aggregate",
                     "analysis.monte_carlo", "metrics.phase_coherence", "dtmc.build_dtmc",
                     "dynamics.successor_distribution", "export.export_model"):
            m[f"{name}_s"] = incl[name]
        return {k: float(v) for k, v in m.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_model(counts, model) -> None:
    counts["dtmc.states"] += getattr(model, "n_states", 0)
    counts["dtmc.transitions"] += getattr(model, "n_transitions", 0)


def _count_branches(counts, dist) -> None:
    branches = getattr(dist, "branches", ())
    counts["dynamics.branches"] += len(branches)
    counts["dynamics.failure_vectors"] += sum(len(getattr(b, "witnesses", ())) for b in branches)


def _count_targets(counts, targets) -> None:
    # a set of indices, or a boolean mask after a rewrite
    is_mask = getattr(targets, "dtype", None) == bool
    counts["analysis.target_states"] += int(targets.sum()) if is_mask else len(targets)


def _count_samples(counts, result) -> None:
    counts["analysis.mc_samples"] += getattr(result, "samples", 0)
    counts["analysis.mc_censored"] += getattr(result, "censored", 0)


def _count_bytes(counts, paths) -> None:
    counts["export.bytes_written"] += sum(Path(p).stat().st_size for p in dict(paths).values())


def _count_unknowns(counts, args) -> None:
    shape = getattr(args[0], "shape", None) if args else None
    if shape:
        counts["analysis.linsolve_unknowns"] += shape[0]


# (module, function, hook on result) for each span; the span is named
# "<module>.<function>".
SPANS = (
    ("cli", "main", None),
    ("dtmc", "build_dtmc", _count_model),
    ("dynamics", "successor_distribution", _count_branches),
    ("metrics", "phase_coherence", None),
    ("analysis", "solve_query", None),
    ("analysis", "reach_probability", None),
    ("analysis", "expected_reward", None),
    ("analysis", "target_set", _count_targets),
    ("analysis", "aggregate", None),
    ("analysis", "monte_carlo", _count_samples),
    ("export", "export_model", _count_bytes),
)
COUNTERS = (("dynamics", "skip_successor", "dynamics.skip_successor_calls"),)


def _package_modules() -> list[types.ModuleType]:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "pcosync" or n.startswith("pcosync."))]


def _rebind(modules, original, wrapper) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _proxy(module: types.ModuleType, replacements: dict) -> types.ModuleType:
    """A copy of module with some attributes replaced; other lookups fall
    through to the module itself."""
    proxy = types.ModuleType(module.__name__, module.__doc__)
    proxy.__dict__.update(vars(module))
    proxy.__dict__.update(replacements)
    proxy.__getattr__ = lambda attr: getattr(module, attr)
    return proxy


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points in every loaded pcosync module."""
    modules = _package_modules()
    for mod_name, fn_name, on_result in SPANS:
        original = getattr(sys.modules.get(f"pcosync.{mod_name}"), fn_name, None)
        if original is not None:
            _rebind(modules, original, tracer.span(f"{mod_name}.{fn_name}", original,
                                                   on_result=on_result))
    for mod_name, fn_name, key in COUNTERS:
        original = getattr(sys.modules.get(f"pcosync.{mod_name}"), fn_name, None)
        if original is not None:
            _rebind(modules, original, tracer.counter(key, original))

    proxies: dict[types.ModuleType, types.ModuleType] = {}
    for lib_name, fn_names in LINSOLVE_ENTRY_POINTS.items():
        lib = importlib.import_module(lib_name)
        wrapped = {}
        for fn_name in fn_names:
            original = getattr(lib, fn_name, None)
            if original is not None:
                wrapped[fn_name] = tracer.span("analysis.linsolve", original,
                                               on_call=_count_unknowns)
                _rebind(modules, original, wrapped[fn_name])
        proxies[lib] = _proxy(lib, wrapped)
    for parent_name, child_name in (("numpy", "numpy.linalg"), ("scipy.sparse", "scipy.sparse.linalg")):
        parent = importlib.import_module(parent_name)
        proxies[parent] = _proxy(parent, {"linalg": proxies[sys.modules[child_name]]})
    for lib, proxy in proxies.items():
        _rebind(modules, lib, proxy)
