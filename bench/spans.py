"""Outside-in tracing of the biphoton layers.

The benchmark records spans from its own files: it replaces the public
functions each layer exposes, as ``biphoton.cli`` calls them, plus
``TagStream.channel_times``, with wrappers that time the call. Nothing inside
the program changes. Calls a layer makes internally through its own module
(``window_sweep`` building its histogram, for one) are not wrapped, so their
time stays in the caller's self time.

A span holds name, start, end, parent span and thread. Spans live in memory
and are written out by the caller when the run ends. Worker-thread spans that
have no open span on their own thread take the open ``cli.main`` span as
parent, so the sweep pool's calls nest under the command that started them.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

ROOT = "cli.main"
# spans of the calls that produce tag streams
SOURCES = ("simulator.simulate", "tagstream.read")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; one root span may be open at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._next_id = 0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, describe=None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        if name == ROOT:
            self._root = span_id
        info: dict = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            info["raised"] = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if name == ROOT:
                self._root = None
            span = Span(span_id, name, start, end, parent, threading.get_ident(), info)
            with self._lock:
                self.spans.append(span)
        if describe is not None:
            info.update(describe(result, args, kwargs))
        return result

    def wrap(self, name: str, fn: Callable, describe=None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, describe)

        return traced

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def patch(replacements: list[tuple[object, str, Callable]]) -> Callable[[], None]:
    """Set ``owner.attr = value`` for each entry; return a function that undoes it."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    for owner, attr, value in replacements:
        setattr(owner, attr, value)

    def restore() -> None:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore


def _tags(result, args, kwargs) -> dict:
    return {"tags": len(result)}


def _read(result, args, kwargs) -> dict:
    return {"tags": len(result), "bytes": os.path.getsize(args[0])}


def _scanned(result, args, kwargs) -> dict:
    return {"scanned": len(args[0])}


def _fit(result, args, kwargs) -> dict:
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def traced_functions(tracer: Tracer, on_histogram=None) -> list[tuple[object, str, Callable]]:
    """Replacements that trace every layer boundary ``biphoton.cli`` crosses.

    ``on_histogram(result, args, kwargs)`` is called after each traced
    correlation histogram, so the caller can keep its input.
    """
    import biphoton.cli as cli
    from biphoton.tagstream import TagStream

    def histogram(result, args, kwargs) -> dict:
        if on_histogram is not None:
            on_histogram(result, args, kwargs)
        return {"pairs": int(result.counts.sum()), "starts": int(result.n_starts)}

    names = {
        "simulate_source": ("simulator.simulate", _tags),
        "read_tags": ("tagstream.read", _read),
        "cross_correlation_histogram": ("correlator.histogram", histogram),
        "heralded_autocorrelation": ("correlator.heralded", None),
        "coincidence_metrics": ("correlator.metrics", None),
        "window_sweep": ("correlator.window_sweep", None),
        "normalized_g2": ("correlator.g2", None),
        "write_histogram_csv": ("correlator.csv", None),
        "write_fasel_csv": ("correlator.csv", None),
        "fit_double_exponential": ("fitting.fit", _fit),
        "fit_symmetric_exponential": ("fitting.fit", _fit),
    }
    out = [
        (cli, attr, tracer.wrap(span, getattr(cli, attr), describe))
        for attr, (span, describe) in names.items()
    ]
    out.append(
        (
            TagStream,
            "channel_times",
            tracer.wrap("tagstream.channel_times", TagStream.channel_times, _scanned),
        )
    )
    return out


def counted_sources(counter: list[int]) -> list[tuple[object, str, Callable]]:
    """Replacements that only add the tags each source returns to ``counter[0]``.

    Untraced runs use these to know their input size; they read no clock.
    """
    import biphoton.cli as cli

    def counting(fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter[0] += len(result)
            return result

        return counted

    return [(cli, attr, counting(getattr(cli, attr))) for attr in ("simulate_source", "read_tags")]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: the span's duration minus the part of its
    interval its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        kids = [(max(k.start, span.start), min(k.end, span.end)) for k in children.get(span.id, [])]
        result[span.id] = span.duration - union_length(kids)
    return result
