"""Span tracer that wraps ergoflux's functions from outside the package.

``Tracer.install`` replaces every public function of each layer module, in
every module namespace that holds it (``optimizer.evolve_numeric`` as well as
``dynamics.evolve_numeric``), by a wrapper that records one span: name,
parent span, request, start and end. Three private boundaries the per-layer
metrics need are wrapped too: ``brentq`` as ``scenarios`` reaches it through
its ``_sopt`` alias, the work closure ``square_drive_work_fn`` returns, and
the methods of ``SquarePulseSolution``. Nothing in the package is edited.

Spans live in flat ``array`` buffers while the pass runs; self times are
computed once at the end (span duration minus the time its child spans
cover) and the spans are written to an ``.npz`` file. A name the package no
longer defines is skipped, so its counts read zero.
"""
from __future__ import annotations

import importlib
import inspect
import math
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "scenarios", "energetics", "dynamics", "optimizer", "emitted_field", "verification")

_SOLUTION_METHODS = ("__init__", "coherence", "coherence_rate", "excited_population", "state")

# per-layer metric -> span names it covers; ``calls`` counts the first name
GROUPS = {
    "scenarios.stop_search": ("scenarios.optimal_square_work",),
    "scenarios.root": ("scenarios._sopt.brentq",),
    "scenarios.pulsed": ("scenarios.scenario_pulsed",),
    "scenarios.sweep": ("scenarios.sweep",),
    "energetics.work_fn": ("energetics.square_drive_work_fn",),
    "energetics.work_eval": ("energetics.square_drive_work_fn.work",),
    "dynamics.square_solution": tuple(f"dynamics.SquarePulseSolution.{m}" for m in _SOLUTION_METHODS),
    "dynamics.evolve_numeric": ("dynamics.evolve_numeric",),
    "energetics.accumulate": ("energetics.accumulate",),
    "optimizer.gradient": ("optimizer.control_work_and_gradient",),
    "optimizer.objective": ("optimizer.control_work",),
    "optimizer.exp_scan": ("optimizer.optimize_exponential_tau",),
    "optimizer.solve": ("optimizer.solve_optimal_control",),
    "verification.bound_scan": ("verification.ergotropy_bound_scan",),
    "verification.conservation": ("verification.conservation_suite",),
    "verification.scale": ("verification.scale_invariance_check",),
    "emitted_field.husimi": ("emitted_field.husimi",),
}

# (metric, unit) in the order they are reported
PER_LAYER = [
    ("scenarios.stop_search.calls", "count"),
    ("scenarios.stop_search.self_s", "s"),
    ("scenarios.root.calls", "count"),
    ("scenarios.root.self_s", "s"),
    ("scenarios.root.per_cell", "roots/cell"),
    ("scenarios.pulsed.calls", "count"),
    ("scenarios.pulsed.self_s", "s"),
    ("scenarios.sweep.self_s", "s"),
    ("energetics.work_fn.builds", "count"),
    ("energetics.work_eval.calls", "count"),
    ("energetics.work_eval.self_s", "s"),
    ("dynamics.square_solution.calls", "count"),
    ("dynamics.square_solution.self_s", "s"),
    ("dynamics.evolve_numeric.calls", "count"),
    ("dynamics.evolve_numeric.steps", "count"),
    ("dynamics.evolve_numeric.self_s", "s"),
    ("dynamics.evolve_numeric.steps_per_s", "1/s"),
    ("energetics.accumulate.calls", "count"),
    ("energetics.accumulate.samples", "count"),
    ("energetics.accumulate.self_s", "s"),
    ("optimizer.gradient.calls", "count"),
    ("optimizer.gradient.fine_steps", "count"),
    ("optimizer.gradient.self_s", "s"),
    ("optimizer.objective.calls", "count"),
    ("optimizer.objective.fine_steps", "count"),
    ("optimizer.objective.self_s", "s"),
    ("optimizer.linesearch.accept_ratio", "ratio"),
    ("optimizer.exp_scan.calls", "count"),
    ("optimizer.exp_scan.self_s", "s"),
    ("optimizer.solve.self_s", "s"),
    ("verification.bound_scan.cells", "count"),
    ("verification.bound_scan.self_s", "s"),
    ("verification.conservation.self_s", "s"),
    ("verification.scale.self_s", "s"),
    ("emitted_field.husimi.points", "count"),
    ("emitted_field.husimi.self_s", "s"),
    ("cli.self_s", "s"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"],
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead", "ratio"),
]


class _Alias:
    """Stands in for a module alias such as ``scenarios._sopt`` with some names wrapped."""

    def __init__(self, target, **wrapped):
        self._target = target
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _fine_steps(arguments, out) -> int:
    """RK4 steps of one ``control_work`` or ``control_work_and_gradient`` call."""
    controls = np.asarray(arguments["controls"], dtype=float)
    n_sub = arguments["n_sub"]
    if n_sub is None:  # the solver always passes it; other callers get the default
        from ergoflux.optimizer import _default_n_sub

        times = np.asarray(arguments["times"], dtype=float)
        n_sub = _default_n_sub(float(times[1] - times[0]), arguments["gamma"], float(np.abs(controls).max()))
    return (len(controls) - 1) * n_sub


# span name -> (count key, measure(bound arguments, result))
COUNTS = {
    "dynamics.evolve_numeric": ("dynamics.evolve_numeric.steps", lambda a, out: len(out.times) - 1),
    "energetics.accumulate": ("energetics.accumulate.samples", lambda a, out: len(a["traj"].times)),
    "optimizer.control_work_and_gradient": ("optimizer.gradient.fine_steps", _fine_steps),
    "optimizer.control_work": ("optimizer.objective.fine_steps", _fine_steps),
    "optimizer.solve_optimal_control": ("optimizer.starts", lambda a, out: a["n_starts"]),
    "verification.ergotropy_bound_scan": ("verification.bound_scan.cells", lambda a, out: out.gap.size),
    "emitted_field.husimi": ("emitted_field.husimi.points", lambda a, out: out.q.size),
}


class Tracer:
    """Records spans around ergoflux's layer boundaries while installed."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("H")
        self.parent = array("i")
        self.request_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.request = -1
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # ---------------- recording ----------------

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``; ``after`` sees (args, kwargs, result)."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        kind, parent, req, start, end, stack = (
            self.kind, self.parent, self.request_of, self.start, self.end, self._stack)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            req.append(tracer.request)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                out = after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, key, measure):
        """An ``after`` hook adding ``measure(arguments, result)`` to ``counts[key]``."""
        signature = inspect.signature(fn)

        def after(args, kwargs, out):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts[key] += measure(bound.arguments, out)
            return out

        return after

    # ---------------- installing ----------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        def wrap_work_closure(args, kwargs, out):
            return self.wrap("energetics.square_drive_work_fn.work", out)

        wrapped: dict[int, object] = {}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                after = wrap_work_closure if name == "energetics.square_drive_work_fn" else None
                if name in COUNTS:
                    after = self._counter(obj, *COUNTS[name])
                wrapped[id(obj)] = self.wrap(name, obj, after)
        for mod in (self.package, *self.modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])

        scenarios = self.modules["scenarios"]
        sopt = getattr(scenarios, "_sopt", None)
        if sopt is not None and hasattr(sopt, "brentq"):
            self._set(scenarios, "_sopt", _Alias(sopt, brentq=self.wrap("scenarios._sopt.brentq", sopt.brentq)))

        solution = getattr(self.modules["dynamics"], "SquarePulseSolution", None)
        for meth in _SOLUTION_METHODS:
            if solution is not None and meth in vars(solution):
                self._set(solution, meth, self.wrap(f"dynamics.SquarePulseSolution.{meth}", vars(solution)[meth]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---------------- reporting ----------------

    def self_times(self) -> np.ndarray:
        """Self time per span name: duration minus the time child spans cover."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        kind = np.frombuffer(self.kind, dtype=np.uint16)
        return np.bincount(kind, weights=dur - child, minlength=len(self.names))

    def metrics(self, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Every per-layer metric of `PER_LAYER`; layers a pass never reaches read zero."""
        kind = np.frombuffer(self.kind, dtype=np.uint16)
        calls = np.bincount(kind, minlength=len(self.names))
        own = self.self_times()
        by_name = {name: (int(calls[i]), float(own[i])) for i, name in enumerate(self.names)}

        out: dict[str, float] = dict(self.counts)
        for group, names in GROUPS.items():
            out[f"{group}.calls"] = by_name.get(names[0], (0, 0.0))[0]
            out[f"{group}.self_s"] = sum(by_name.get(n, (0, 0.0))[1] for n in names)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for name, (_, t) in by_name.items() if name.startswith(layer + "."))

        out["energetics.work_fn.builds"] = out["energetics.work_fn.calls"]
        cells = out["scenarios.stop_search.calls"]
        out["scenarios.root.per_cell"] = out["scenarios.root.calls"] / cells if cells else 0.0
        steps, busy = out.get("dynamics.evolve_numeric.steps", 0), out["dynamics.evolve_numeric.self_s"]
        out["dynamics.evolve_numeric.steps_per_s"] = steps / busy if busy > 0.0 else 0.0
        tries = out["optimizer.objective.calls"]
        accepted = out["optimizer.gradient.calls"] - out.get("optimizer.starts", 0)
        out["optimizer.linesearch.accept_ratio"] = accepted / tries if tries else 0.0
        out["trace.untraced_s"] = untraced_s
        out["trace.traced_s"] = traced_s
        out["trace.overhead"] = traced_s / untraced_s - 1.0 if untraced_s > 0.0 else math.nan
        return {name: out.get(name, 0) for name, _ in PER_LAYER}

    def save(self, path: Path) -> None:
        """Write every span out: name table plus one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            kind=np.frombuffer(self.kind, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
