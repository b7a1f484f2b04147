"""Unit tests for the Chrome-trace tracer."""

import json

import pytest

from repro.telemetry import Tracer


class TestTracer:
    def test_complete_span_fields(self):
        tracer = Tracer()
        tracer.complete("pcie", "nic.up", "Tlp", 1e-6, 3e-6,
                        {"bits": 800})
        (event,) = tracer.events
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1.0)   # microseconds
        assert event["dur"] == pytest.approx(2.0)
        assert event["args"] == {"bits": 800}

    def test_instant(self):
        tracer = Tracer()
        tracer.instant("sim", "processes", "spawn", 0.5)
        phases = [e["ph"] for e in tracer.events]
        assert phases == ["i"]

    def test_ids_stable_per_process_and_thread(self):
        tracer = Tracer()
        tracer.complete("pcie", "a", "x", 0, 1)
        tracer.complete("pcie", "a", "y", 1, 2)
        tracer.complete("pcie", "b", "z", 2, 3)
        tracer.complete("nic", "a", "w", 3, 4)
        events = tracer.events
        assert events[0]["pid"] == events[1]["pid"] == events[2]["pid"]
        assert events[0]["tid"] == events[1]["tid"]
        assert events[2]["tid"] != events[0]["tid"]
        assert events[3]["pid"] != events[0]["pid"]

    def test_metadata_names_processes_and_threads(self):
        tracer = Tracer()
        tracer.complete("pcie", "server.up", "Tlp", 0, 1)
        trace = tracer.chrome_trace()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["name"]: e["args"]["name"] for e in meta}
        assert names["process_name"] == "pcie"
        assert names["thread_name"] == "server.up"

    def test_event_cap_counts_drops(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.instant("p", "t", f"e{i}", i)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert tracer.chrome_trace()["otherData"]["droppedEvents"] == 3

    def test_json_round_trips(self):
        tracer = Tracer()
        tracer.complete("p", "t", "span", 0.0, 1e-3)
        parsed = json.loads(tracer.to_json())
        assert "traceEvents" in parsed
        assert parsed["displayTimeUnit"] == "ns"

    def test_write_produces_loadable_file(self, tmp_path):
        tracer = Tracer()
        tracer.instant("p", "t", "tick", 1.0)
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        parsed = json.loads(path.read_text())
        assert any(e.get("name") == "tick" for e in parsed["traceEvents"])

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        tracer.complete("p", "t", "odd", 2.0, 1.0)
        assert tracer.events[0]["dur"] == 0.0
