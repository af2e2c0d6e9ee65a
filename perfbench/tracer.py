"""Span tracing around the calls into each triheat module, from outside.

Each wrapper replaces a public name on the module where its caller looks it
up (``triheat.sweep.steady_state``, not ``triheat.solvers.steady_state``), so
the program is traced without being edited. ``triheat.linalg`` is not
wrapped: its calls are too fine-grained to time without distorting them, so
its cost shows up in its callers' self time.

Spans stay in memory as tuples and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "config", "model", "lindblad", "solvers", "observables", "sweep", "svgplot")

# (module, attribute, layer): every public name the CLI and the sweep engine
# call across a module boundary, at the module that looks it up.
WRAPPED = (
    ("triheat.cli", "load_params", "config"),
    ("triheat.cli", "load_sweep", "config"),
    ("triheat.cli", "total_hamiltonian", "model"),
    ("triheat.cli", "bath_channels", "model"),
    ("triheat.sweep", "total_hamiltonian", "model"),
    ("triheat.sweep", "bath_channels", "model"),
    ("triheat.cli", "build_superoperator", "lindblad"),
    ("triheat.sweep", "build_superoperator", "lindblad"),
    ("triheat.cli", "steady_state", "solvers"),
    ("triheat.sweep", "steady_state", "solvers"),
    ("triheat.cli", "evolve", "solvers"),
    ("triheat.solvers", "bath_currents", "observables"),
    ("triheat.cli", "bath_currents", "observables"),
    ("triheat.cli", "run_sweep", "sweep"),
    ("triheat.cli", "emit_csv", "sweep"),
    ("triheat.cli", "emit_plot", "svgplot"),
)


def _bound(fn, args, kwargs):
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    bound.apply_defaults()
    return bound.arguments


def _counts(name: str, fn, args, kwargs, result) -> dict[str, float]:
    """Work counts read off a call's arguments and result, after its span ended.

    Bytes are computed from array and file sizes, not measured traffic.
    """
    if name == "lindblad.build_superoperator":
        nbytes = getattr(getattr(result, "matrix", None), "nbytes", None)
        return {} if nbytes is None else {"generator_bytes": nbytes}
    if name == "solvers.evolve":
        a = _bound(fn, args, kwargs)
        if "t_final" in a and "dt_max" in a:
            return {"rk4_steps": max(1, math.ceil(a["t_final"] / a["dt_max"]))}
    if name == "sweep.run_sweep" and isinstance(result, list):
        failed = sum(1 for row in result if getattr(row, "status", "ok") != "ok")
        return {"points": len(result), "failed_points": failed}
    if name in ("sweep.emit_csv", "svgplot.emit_plot"):
        path = _bound(fn, args, kwargs).get("path")
        if path is not None and os.path.exists(path):
            return {"bytes": os.path.getsize(path)}
    return {}


class Tracer:
    """Installs the wrappers and records their spans.

    A span is ``(id, parent_id, request, layer, name, start, end, failed,
    counts)``. Spans of one top-level call share its ``request`` number.
    The parent is the innermost open span, which holds because the benchmark
    calls the program from one thread and sweeps run at ``--threads 1``.
    """

    def __init__(self, wrapped=WRAPPED) -> None:
        self.wrapped = wrapped
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.request = 0
        self._ids = itertools.count(1)
        self._open: list[int] = []
        self._originals: list[tuple] = []

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; exceptions propagate with the span kept."""
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = time.perf_counter()
            self._open.pop()
            counts = {} if failed else _counts(name, fn, args, kwargs, result)
            self.spans.append((span_id, parent, self.request, layer, name, start, end, failed, counts))
        return result

    def _wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every name in ``wrapped``; a name that no longer exists is recorded as absent."""
        for module_name, attr, layer in self.wrapped:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, f"{layer}.{attr}"))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def write(self, path) -> None:
        fields = ("id", "parent", "request", "layer", "name", "start", "end", "failed", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _timed(spans: list[tuple]):
    """Yield (span, duration ms, self ms, parent span or None).

    A span's self time is its duration minus its children's; children of one
    span run one after another, so their durations do not overlap.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] in by_id:
            child_time[s[1]] += s[6] - s[5]
    for s in spans:
        yield s, (s[6] - s[5]) * 1e3, (s[6] - s[5] - child_time[s[0]]) * 1e3, by_id.get(s[1])


def request_stats(spans: list[tuple]) -> dict[str, float]:
    """Per-layer and per-function calls, busy and self time (ms), and work counts.

    Busy time sums the outermost spans of a layer, so a layer calling itself
    is not counted twice.
    """
    out: dict[str, float] = defaultdict(float)
    for (_, _, _, layer, name, _, _, failed, counts), dur, self_ms, parent in _timed(spans):
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_ms"] += self_ms
        if parent is None or parent[3] != layer:
            out[f"{layer}.busy_ms"] += dur
        out[f"{layer}.failed_calls"] += failed
        out[f"{name}.calls"] += 1
        out[f"{name}.self_ms"] += self_ms
        for key, value in counts.items():
            out[f"{name}.{key}"] += value
    return out


def call_samples(spans: list[tuple]) -> dict[str, dict[str, list[float]]]:
    """Duration and self time of every call, in ms, keyed by function name."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: {"ms": [], "self_ms": []})
    for span, dur, self_ms, _ in _timed(spans):
        out[span[4]]["ms"].append(dur)
        out[span[4]]["self_ms"].append(self_ms)
    return out


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
