"""Span tracer that times calls into qlidar's public functions from outside.

``Tracer.install()`` wraps every public function of the layer modules and
rebinds it wherever qlidar holds a reference: the defining module, every
module that imported it by name (``from .channel import apply_loss``), the
package namespace and module-level dispatch tables such as the CLI's
command map.  Each call records a span (name, start, end, parent) in memory;
``uninstall()`` restores the originals.

Forked pool workers inherit the wrappers but switch them off, so their spans
are not collected: a pooled call is seen only at the boundary that started
the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("states", "channel", "metrics", "allocation", "fading", "fock", "cli")


class Tracer:
    """In-memory spans of calls into qlidar's public functions."""

    def __init__(self):
        # span index -> (name, start, end, parent index or -1)
        self.spans: list = []
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list = []
        self._fork_hook = False

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        import qlidar

        modules = [importlib.import_module(f"qlidar.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for namespace in [vars(qlidar)] + [vars(m) for m in modules]:
            for attr, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((namespace, attr, obj))
                    namespace[attr] = wrappers[obj]
                elif isinstance(obj, dict) and attr != "__builtins__":
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._restore.append((obj, key, value))
                            obj[key] = wrappers[value]
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._disable)
            self._fork_hook = True

    def _disable(self) -> None:
        self.enabled = False

    def uninstall(self) -> None:
        self.enabled = False
        for container, key, original in reversed(self._restore):
            container[key] = original
        self._restore.clear()

    def take(self) -> list:
        """Return and clear the spans recorded so far."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans: list) -> dict[str, dict]:
    """Per function: calls, total self time and the list of span durations.

    Self time is a span's duration minus the durations of its direct
    children; children of one span run one after another, so their
    intervals do not overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["durations"].append(end - start)
    return stats


def percentiles_us(durations: list[float]) -> tuple[float, float]:
    """(p50, p99) of span durations in microseconds; zeros when never called."""
    if not durations:
        return 0.0, 0.0
    p50, p99 = np.percentile(np.asarray(durations) * 1e6, [50.0, 99.0])
    return float(p50), float(p99)


def write_spans(path, spans: list) -> None:
    """Write spans as CSV with times in microseconds from the first span."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("span,name,start_us,end_us,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f},{parent}\n")
