"""Always-on service telemetry: request tracing + flight recorder.

The profiler (:mod:`repro.obs.spans`) is *opt-in deep attribution* —
you choose a run, pay for full span trees, and read the report. A
long-lived daemon needs the opposite trade: **always-on** breadcrumbs
cheap enough to leave enabled, with just enough retained context to
explain a slow or failed request after the fact. This module is that
layer; :mod:`repro.serve.server` drives it.

Two pieces:

* **Flight recorder** — :class:`FlightRecorder`, a bounded ring
  buffer (``collections.deque(maxlen=...)``: appends are O(1), old
  events fall off the far end, no per-event allocation beyond the
  event dict itself) of structured events: request ``admit`` /
  ``coalesce`` / ``flush`` / ``complete`` / ``error``, ``reject``
  (backpressure), ``cache`` (plan-cache hits by source). It also
  retains full timing span trees for the N *slowest* requests as
  exemplars (a min-heap: a new request only enters once it is slower
  than the fastest retained exemplar). Dumped as NDJSON on a ``dump``
  wire request, on SIGUSR1, or when a request errors.

* **Facade** — :class:`Telemetry` allocates trace/flush IDs and
  funnels events to the recorder; when constructed ``enabled=False``
  every event method is a cheap early return, which is what the
  telemetry-overhead gate in ``benchmarks/bench_serve.py`` measures
  against.

Nothing here touches the simulated machine or its counters: the
bit-and-counter identity invariant is unaffected by telemetry being
on or off (``tests/serve/test_identity.py`` runs with it on).
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
from collections import deque

__all__ = ["FlightRecorder", "Telemetry"]


class FlightRecorder:
    """Bounded ring buffer of structured events + slowest exemplars."""

    def __init__(self, capacity: int = 512, slowest: int = 8) -> None:
        self.capacity = int(capacity)
        self.slowest = int(slowest)
        self._events: deque = deque(maxlen=self.capacity)
        self._exemplars: list = []  # min-heap of (total_ms, seq, tree)
        self._seq = itertools.count(1)
        self._xseq = itertools.count(1)
        self.recorded = 0
        self._lock = threading.Lock()

    def record(self, kind: str, **fields) -> None:
        # hot path, per request: one dict literal, one atomic
        # deque.append (bounded, old events fall off), no lock —
        # ``seq`` from the shared counter keeps recorded order total
        seq = next(self._seq)
        self._events.append(
            {"seq": seq, "ts": time.time(), "kind": kind,
             **fields})
        self.recorded = seq

    def note_slow(self, total_ms: float, trace_id: str, flush_id: str,
                  cache: str, path: str, timing: dict) -> None:
        """Offer a completed request as a slow exemplar. The span tree
        is only materialized once the request actually displaces the
        fastest retained exemplar — the common (fast-request) case is
        one lock-free comparison against the heap minimum (re-checked
        under the lock before mutating)."""
        x = self._exemplars
        if len(x) >= self.slowest and total_ms <= x[0][0]:
            return
        with self._lock:
            if (len(self._exemplars) >= self.slowest
                    and total_ms <= self._exemplars[0][0]):
                return
            entry = (total_ms, next(self._xseq), {
                "trace": trace_id,
                "flush": flush_id,
                "cache": cache,
                "path": path,
                "spans": dict(timing),
            })
            if len(self._exemplars) < self.slowest:
                heapq.heappush(self._exemplars, entry)
            else:
                heapq.heapreplace(self._exemplars, entry)

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._events)

    def events(self) -> list[dict]:
        """Snapshot of retained events, oldest first. Timestamps are
        recorded raw (``round`` is measurable on the hot path) and
        tidied to microseconds here, on the cold snapshot path."""
        out = []
        for e in list(self._events):
            e = dict(e)
            e["ts"] = round(e["ts"], 6)
            out.append(e)
        return out

    def exemplars(self) -> list[dict]:
        """Retained slowest-request span trees, slowest first."""
        with self._lock:
            ordered = sorted(self._exemplars, reverse=True)
        return [dict(tree, total_ms=round(ms, 3)) for ms, _, tree in ordered]

    def dump(self) -> dict:
        """The full recorder state as one JSON-serializable document."""
        return {
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": self.events(),
            "exemplars": self.exemplars(),
        }

    def dump_ndjson(self) -> str:
        """The recorder state as NDJSON: a header line, one line per
        event, one line per exemplar."""
        lines = [json.dumps({"kind": "flight_recorder",
                             "recorded": self.recorded,
                             "dropped": self.dropped},
                            sort_keys=True)]
        lines += [json.dumps(e, sort_keys=True, default=str)
                  for e in self.events()]
        lines += [json.dumps(dict(t, kind="exemplar"), sort_keys=True,
                             default=str)
                  for t in self.exemplars()]
        return "\n".join(lines) + "\n"


class Telemetry:
    """The daemon's always-on telemetry facade.

    Allocates trace and flush IDs, records flight-recorder events, and
    is a no-op shell when ``enabled=False`` (every event method
    returns immediately) — the off-state the overhead gate compares
    against.
    """

    def __init__(self, enabled: bool = True, flight_capacity: int = 512,
                 slowest: int = 8) -> None:
        self.enabled = bool(enabled)
        self.recorder = FlightRecorder(capacity=flight_capacity,
                                       slowest=slowest)
        self._trace_ids = itertools.count(1)
        self._flush_ids = itertools.count(1)

    def new_trace_id(self) -> str:
        return f"t{next(self._trace_ids)}"

    def new_flush_id(self) -> str:
        return f"f{next(self._flush_ids)}"

    # -- event sites (each mirrors one hop of a request's life) -------
    # The three per-request sites (admit / coalesce / complete) build
    # their event dicts inline instead of going through
    # FlightRecorder.record — the extra call + kwargs repack costs
    # more than the event itself on the serving hot path.
    def admitted(self, trace_id: str, *, pipeline: str, n: int,
                 dtype: str, mode: str) -> None:
        if self.enabled:
            r = self.recorder
            seq = next(r._seq)
            r._events.append(
                {"seq": seq, "ts": time.time(), "kind": "admit",
                 "trace": trace_id, "pipeline": pipeline, "n": n,
                 "dtype": dtype, "mode": mode})
            r.recorded = seq

    def rejected(self, *, reason: str, inflight: int) -> None:
        if self.enabled:
            self.recorder.record("reject", reason=reason, inflight=inflight)

    def coalesced(self, trace_id: str, *, key) -> None:
        if self.enabled:
            r = self.recorder
            seq = next(r._seq)
            r._events.append(
                {"seq": seq, "ts": time.time(), "kind": "coalesce",
                 "trace": trace_id, "pipeline": key.pipeline, "n": key.n,
                 "dtype": key.dtype, "mode": key.mode})
            r.recorded = seq

    def flushed(self, flush_id: str, *, traces: list, reason: str,
                rows: int, key) -> None:
        if self.enabled:
            self.recorder.record("flush", flush=flush_id, traces=list(traces),
                                 reason=reason, rows=rows,
                                 pipeline=key.pipeline, n=key.n)

    def cache_outcome(self, flush_id: str, *, sources: dict) -> None:
        if self.enabled and sources:
            self.recorder.record("cache", flush=flush_id,
                                 sources=dict(sources))

    def completed(self, trace_id: str, *, flush_id: str, timing: dict,
                  cache: str, path: str) -> None:
        if self.enabled:
            r = self.recorder
            seq = next(r._seq)
            r._events.append(
                {"seq": seq, "ts": time.time(), "kind": "complete",
                 "trace": trace_id, "flush": flush_id, "timing": timing,
                 "cache": cache, "path": path})
            r.recorded = seq
            r.note_slow(timing.get("total_ms", 0.0), trace_id,
                        flush_id, cache, path, timing)

    def errored(self, trace_id: str | None, *, error: str) -> None:
        if self.enabled:
            self.recorder.record("error", trace=trace_id, error=error)

    def stats_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "flight": {
                "capacity": self.recorder.capacity,
                "recorded": self.recorder.recorded,
                "dropped": self.recorder.dropped,
                "exemplars": len(self.recorder.exemplars()),
            },
        }
