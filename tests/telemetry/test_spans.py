"""Span trees, durations, and the Chrome trace exporter."""

import json

from repro import telemetry
from repro.telemetry.spans import Span, Tracer, chrome_trace_events, chrome_trace_json


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        a = tracer.start("a")
        b = tracer.start("b")
        tracer.finish(b)
        c = tracer.start("c")
        tracer.finish(c)
        tracer.finish(a)
        assert [s.name for s in tracer.roots] == ["a"]
        assert [s.name for s in a.children] == ["b", "c"]

    def test_durations_are_set_and_ordered(self):
        tracer = Tracer()
        a = tracer.start("a")
        b = tracer.start("b")
        tracer.finish(b)
        tracer.finish(a)
        assert a.duration_s is not None and b.duration_s is not None
        assert a.duration_s >= b.duration_s >= 0.0

    def test_graft_without_open_span_adds_roots(self):
        tracer = Tracer()
        orphan = Span("orphan", start_s=0.0)
        orphan.duration_s = 1.0
        tracer.graft([orphan])
        assert tracer.roots == [orphan]

    def test_span_helper_records_attrs(self):
        with telemetry.scope("s") as sc:
            with telemetry.span("op", probes=3) as sp:
                sp.attrs["extra"] = "yes"
            root = sc.tracer.roots[0]
            assert root.attrs == {"probes": 3, "extra": "yes"}
            assert root.duration_s is not None


class TestSpanDict:
    def test_to_dict_shape(self):
        span = Span("op", start_s=1.0, attrs={"k": 1})
        span.duration_s = 0.25
        child = Span("sub", start_s=1.1)
        child.duration_s = 0.05
        span.children.append(child)
        d = span.to_dict()
        assert d["name"] == "op"
        assert d["duration_ms"] == 250.0
        assert d["attrs"] == {"k": 1}
        assert d["children"][0]["name"] == "sub"
        json.dumps(d)  # JSON-ready


class TestChromeExport:
    def _forest(self):
        root = Span("root", start_s=10.0, attrs={"n": 2})
        root.duration_s = 1.0
        child = Span("child", start_s=10.25)
        child.duration_s = 0.5
        root.children.append(child)
        return [root]

    def test_events_are_rebased_and_complete(self):
        events = chrome_trace_events(self._forest())
        assert [e["name"] for e in events] == ["root", "child"]
        assert events[0]["ph"] == "X"
        assert events[0]["ts"] == 0.0
        assert events[0]["dur"] == 1e6
        assert events[1]["ts"] == 0.25e6
        assert events[1]["dur"] == 0.5e6

    def test_document_is_chrome_loadable_shape(self):
        doc = chrome_trace_json(self._forest())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        json.dumps(doc)

    def test_empty_forest(self):
        assert chrome_trace_events([]) == []
