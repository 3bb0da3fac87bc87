"""Per-layer span tracing, installed from outside the package.

A layer is one module of the package.  `LayerTracer` wraps every public
function of every layer at every binding inside the package: the defining
module's own globals, the package namespace, and modules that did
`from .x import f` (the CLI and figures do).  Patching only the defining
module would miss those calls.  Leaving the `with` block restores the
original bindings.

Spans are aggregated on the fly per (layer, function, parent layer), because
kernels run 10^5-10^6 times per run.  A span's self time is its duration
minus the durations of its direct child spans; a layer's self time is the sum
over its spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable

LAYERS = ("cli", "params", "dispersion", "optics", "kinematics", "spectrum", "plates",
          "fock", "output", "figures")
ROOT = "root"
MARK = "__bench_traced__"

# Called after a traced function returns: (positional args, result, seconds).
Observer = Callable[[tuple, object, float], None]


class SpanAggregator:
    """Nested spans folded into per-(layer, function, parent layer) totals."""

    def __init__(self) -> None:
        # (layer, function, parent layer) -> [calls, total seconds, self seconds]
        self.stats: dict[tuple[str, str, str], list] = {}
        # Open spans: [layer, function, start, seconds covered by children].
        self._open: list[list] = [[ROOT, "", 0.0, 0.0]]

    def push(self, layer: str, function: str, now: float) -> None:
        self._open.append([layer, function, now, 0.0])

    def pop(self, now: float) -> float:
        """Close the innermost span; returns its duration."""
        layer, function, start, children = self._open.pop()
        elapsed = now - start
        parent = self._open[-1]
        parent[3] += elapsed
        key = (layer, function, parent[0])
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - children
        return elapsed

    def rows(self) -> list[list]:
        """[layer, function, parent layer, calls, total s, self s], sorted."""
        return [[*key, *value] for key, value in sorted(self.stats.items())]


def layer_of(value: object, package: str) -> str | None:
    """The layer a public function belongs to, or None."""
    if not inspect.isfunction(value) or value.__name__.startswith("_"):
        return None
    if getattr(value, MARK, False):
        return None
    prefix, _, layer = value.__module__.rpartition(".")
    return layer if prefix == package and layer in LAYERS else None


def package_modules(package: str) -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))]


def bound_wrappers(package: str) -> list[str]:
    """Bindings inside the package that still hold a tracing wrapper."""
    return [f"{module.__name__}.{name}" for module in package_modules(package)
            for name, value in vars(module).items() if getattr(value, MARK, False)]


class LayerTracer:
    """Context manager that traces calls into the package's layers.

    The package must already be imported.  `observers` maps
    "layer.function" to a callback run after each successful call.
    """

    def __init__(self, package: str = "quasimode",
                 observers: dict[str, Observer] | None = None) -> None:
        self.spans = SpanAggregator()
        self._observers = observers or {}
        self._wrappers: dict[object, Callable] = {}
        self._bindings: list[tuple[object, str, Callable]] = []
        for module in package_modules(package):
            for name, value in list(vars(module).items()):
                layer = layer_of(value, package)
                if layer is None:
                    continue
                if value not in self._wrappers:
                    self._wrappers[value] = self._wrap(value, layer)
                self._bindings.append((module, name, value))
        unknown = set(self._observers) - {f"{layer_of(f, package)}.{f.__name__}"
                                          for f in self._wrappers}
        if unknown:
            raise ValueError(f"observers for functions that are not traced: {sorted(unknown)}")

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        spans, clock, name = self.spans, time.perf_counter, fn.__name__
        observe = self._observers.get(f"{layer}.{name}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans.push(layer, name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = spans.pop(clock())
            if observe is not None:
                observe(args, result, elapsed)
            return result

        setattr(traced, MARK, True)
        return traced

    def __enter__(self) -> "LayerTracer":
        for module, name, original in self._bindings:
            setattr(module, name, self._wrappers[original])
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in self._bindings:
            setattr(module, name, original)
