"""Tracing spans: nestable wall-time measurements with two exporters.

A span is one timed region of execution.  Spans nest — opening a span
while another is open makes it a child — so a run produces a tree
whose roots are the top-level operations (usually one per experiment).
Two export formats are provided:

* :meth:`Span.to_dict` — a plain JSON tree (name, start, duration,
  attributes, children), attached to experiment reports;
* :func:`chrome_trace_json` — the Chrome trace-event format, loadable
  in ``chrome://tracing`` / Perfetto for flame-graph inspection
  (written by ``repro run ... --trace PATH``).

Use via the scope-aware helper::

    with telemetry.span("angle_search.sweep") as sp:
        ...
        sp.attrs["probes"] = n
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence


class Span:
    """One timed region; ``duration_s`` is set when the span closes."""

    __slots__ = ("name", "start_s", "duration_s", "attrs", "children")

    def __init__(self, name: str, start_s: float, attrs: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.start_s = start_s
        self.duration_s: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_ms": None
            if self.duration_s is None
            else self.duration_s * 1000.0,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, dur={self.duration_s})"


class Tracer:
    """Collects one scope's span forest.

    ``roots`` holds completed (and any still-open) top-level spans;
    ``_open`` is the stack of currently-open spans that new spans
    attach under.
    """

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._open: List[Span] = []

    def start(self, name: str, attrs: Optional[Dict[str, object]] = None) -> Span:
        span = Span(name, time.perf_counter(), attrs)
        if self._open:
            self._open[-1].children.append(span)
        else:
            self.roots.append(span)
        self._open.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.duration_s = time.perf_counter() - span.start_s
        # Tolerate out-of-order finishes (shouldn't happen with the
        # context-manager API): pop through to the finished span.
        while self._open:
            if self._open.pop() is span:
                break

    def graft(self, roots: Sequence[Span]) -> None:
        """Adopt a child scope's completed span trees.

        They land under the currently-open span (so an experiment
        invoked from within a traced region nests naturally) or as new
        roots otherwise.
        """
        target = self._open[-1].children if self._open else self.roots
        target.extend(roots)


def chrome_trace_events(roots: Sequence[Span], pid: int = 1) -> List[Dict[str, object]]:
    """Flatten a span forest into Chrome complete ('X') trace events.

    Timestamps are rebased so the earliest span starts at 0 µs.
    """
    events: List[Dict[str, object]] = []

    def walk(span: Span) -> None:
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": pid,
                "tid": 1,
                "ts": span.start_s * 1e6,
                "dur": 0.0 if span.duration_s is None else span.duration_s * 1e6,
                "args": dict(span.attrs),
            }
        )
        for child in span.children:
            walk(child)

    for root in roots:
        walk(root)
    if events:
        t0 = min(e["ts"] for e in events)
        for e in events:
            e["ts"] = e["ts"] - t0
    return events


def chrome_trace_json(roots: Sequence[Span]) -> Dict[str, object]:
    """The full ``chrome://tracing``-loadable document."""
    return {
        "traceEvents": chrome_trace_events(roots),
        "displayTimeUnit": "ms",
    }


__all__ = ["Span", "Tracer", "chrome_trace_events", "chrome_trace_json"]
