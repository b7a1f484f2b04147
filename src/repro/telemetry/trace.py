"""Event tracing with Chrome ``chrome://tracing`` / Perfetto JSON export.

The tracer records two event shapes keyed to the *simulator* clock
(seconds, converted to the microseconds Chrome expects):

* **complete spans** (``ph: "X"``) — an interval with a duration: a TLP
  occupying a PCIe lane, a WQE moving through a NIC send queue;
* **instants** (``ph: "i"``) — a point event: a retransmission firing, a
  process spawning.

Naming follows the trace-viewer model: one *process* per simulated
component ("pcie", "server.nic", "fld"), one *thread* per queue or link
within it ("server.nic.up", "sq1", "rq2").  Process/thread ids are
assigned on first use and emitted as metadata records so the viewer
shows real names.

The event list is bounded (``max_events``); once full, further events
are counted in ``dropped`` rather than stored, so a forgotten tracer on
a long simulation degrades to a counter instead of eating the heap.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

SECONDS_TO_US = 1e6


class Tracer:
    """Records timestamped events and serializes Chrome trace JSON."""

    enabled = True

    def __init__(self, max_events: int = 1_000_000):
        self._events: List[Dict[str, Any]] = []
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[str, str], int] = {}
        self.max_events = max_events
        self.dropped = 0

    # -- id management ----------------------------------------------------

    def _pid(self, process: str) -> int:
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[process] = pid
        return pid

    def _tid(self, process: str, thread: str) -> int:
        key = (process, thread)
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[key] = tid
        return tid

    # -- recording --------------------------------------------------------

    def _push(self, event: Dict[str, Any]) -> None:
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(event)

    def complete(self, process: str, thread: str, name: str,
                 start: float, end: float,
                 args: Optional[Dict[str, Any]] = None) -> None:
        """A span [start, end] (simulation seconds) on process/thread."""
        event = {
            "name": name,
            "ph": "X",
            "ts": start * SECONDS_TO_US,
            "dur": max(0.0, (end - start) * SECONDS_TO_US),
            "pid": self._pid(process),
            "tid": self._tid(process, thread),
        }
        if args:
            event["args"] = args
        self._push(event)

    def instant(self, process: str, thread: str, name: str, ts: float,
                args: Optional[Dict[str, Any]] = None) -> None:
        """A point event at ``ts`` (simulation seconds)."""
        event = {
            "name": name,
            "ph": "i",
            "s": "t",  # thread-scoped
            "ts": ts * SECONDS_TO_US,
            "pid": self._pid(process),
            "tid": self._tid(process, thread),
        }
        if args:
            event["args"] = args
        self._push(event)

    # -- export -----------------------------------------------------------

    def _metadata_events(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        for process, pid in self._pids.items():
            records.append({
                "name": "process_name", "ph": "M", "pid": pid,
                "args": {"name": process},
            })
        for (process, thread), tid in self._tids.items():
            records.append({
                "name": "thread_name", "ph": "M",
                "pid": self._pids[process], "tid": tid,
                "args": {"name": thread},
            })
        return records

    def chrome_trace(self) -> Dict[str, Any]:
        """The full trace object chrome://tracing / Perfetto loads."""
        return {
            "traceEvents": self._metadata_events() + self._events,
            "displayTimeUnit": "ns",
            "otherData": {"droppedEvents": self.dropped},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.chrome_trace(), indent=indent)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)

    @property
    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class NullTracer:
    """The disabled tracer: ``enabled`` is False, and every recording
    site checks it before building its arguments::

        if tracer.enabled:
            tracer.complete(...)
    """

    enabled = False


NULL_TRACER = NullTracer()
