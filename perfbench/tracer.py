"""Span aggregation around svlite's public entry points.

Spans are wrapped from the benchmark's side of each call, at the place the
program binds the callee (``svlite.cli.encode_frame``, ``Channel.transmit``
and so on), so the package itself is untouched. Each span adds its duration
to its layer's total and to its parent's child time; a layer's self time is
its total minus the part covered by its child spans. Only per-layer sums are
kept, not one record per span: a traced 20k-frame run makes about half a
million spans, and the report needs only their sums.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self._stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._stack: list[float] = []  # child time of each open span

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span per call under ``name``."""
        stats = self._stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return traced

    def merge(self, exported: dict) -> None:
        """Add layer sums exported by another process's tracer."""
        for name, (calls, total, self_s) in exported.items():
            stats = self._stats.setdefault(name, [0, 0.0, 0.0])
            stats[0] += calls
            stats[1] += total
            stats[2] += self_s

    def export(self) -> dict:
        return {name: list(s) for name, s in self._stats.items()}

    def metrics(self, layers) -> dict:
        """calls, total_us and self_us_per_call for every named layer."""
        out = {}
        for name in layers:
            calls, total, self_s = self._stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_us"] = (total * 1e6, "us")
            out[f"{name}.self_us_per_call"] = (
                self_s * 1e6 / calls if calls else 0.0, "us")
        return out


@contextmanager
def patched(replacements):
    """Temporarily set ``(owner, attribute, value)`` triples, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
