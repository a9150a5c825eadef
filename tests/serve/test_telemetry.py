"""Always-on serve telemetry: end-to-end trace identity, timing
breakdowns, plan-cache outcomes, the flight recorder's bounds and
exemplars, and the Prometheus exposition of a live daemon.

The headline gate: for any served request, the trace ID in the
response matches a flight-recorder event chain spanning
admit → coalesce → flush → complete, and the flush event lists that
request's trace ID.
"""

import sys

import numpy as np
import pytest

from repro.engine.native import native_available, reset_native_caches
from repro.obs.exposition import parse_exposition
from repro.serve import ServeConfig, ServerThread


def _events_for(dump: dict, trace_id: str) -> list[dict]:
    """The recorder's events touching one trace, in recorded order."""
    return [e for e in dump["events"]
            if e.get("trace") == trace_id
            or trace_id in (e.get("traces") or ())]


class TestTraceIdentity:
    def test_trace_chain_spans_admit_to_complete(self):
        rows = [list(range(1, 33)) for _ in range(8)]
        with ServerThread(ServeConfig(max_rows=8, flush_ms=10_000)) as st:
            results = st.submit_many(
                [{"pipeline": "chain_scan", "data": r} for r in rows])
            dump = st.flight_dump()

        assert len({res.trace_id for res in results}) == len(results), \
            "trace IDs must be unique per request"
        for res in results:
            chain = _events_for(dump, res.trace_id)
            kinds = [e["kind"] for e in chain]
            assert kinds == ["admit", "coalesce", "flush", "complete"], (
                f"trace {res.trace_id}: bad event chain {kinds}")
            flush_ev = chain[2]
            assert res.trace_id in flush_ev["traces"]
            complete_ev = chain[3]
            assert complete_ev["flush"] == flush_ev["flush"], (
                "complete event must reference the flush that served it")

    def test_one_flush_serves_all_coalesced_traces(self):
        with ServerThread(ServeConfig(max_rows=8, flush_ms=10_000)) as st:
            results = st.submit_many(
                [{"pipeline": "elementwise", "data": list(range(1, 17))}
                 for _ in range(8)])
            dump = st.flight_dump()
        flushes = [e for e in dump["events"] if e["kind"] == "flush"]
        assert len(flushes) == 1
        assert sorted(flushes[0]["traces"]) == sorted(
            res.trace_id for res in results)
        assert flushes[0]["rows"] == 8
        assert flushes[0]["reason"] == "rows"

    def test_timing_breakdown_and_cache_outcome(self, monkeypatch):
        # no ambient cache dir: a warm native artifact would turn the
        # first flush into a disk resolution
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        cfg = ServeConfig(max_rows=4, flush_ms=10_000)
        with ServerThread(cfg) as st:
            first = st.submit_many(
                [{"pipeline": "scan", "data": list(range(1, 65))}
                 for _ in range(4)])
            second = st.submit_many(
                [{"pipeline": "scan", "data": list(range(2, 66))}
                 for _ in range(4)])
        for res in first + second:
            t = res.timing
            assert set(t) == {"coalesce_ms", "queue_ms", "execute_ms",
                              "total_ms"}
            assert all(v >= 0 for v in t.values())
            assert t["total_ms"] >= t["execute_ms"]
        # first flush of a cold daemon compiles; the same shape again
        # replays from the in-memory cache
        assert all(res.cache == "compile" for res in first)
        assert all(res.cache == "memory" for res in second)

    @pytest.mark.skipif(not native_available(),
                        reason="no C toolchain on this host")
    def test_disk_cache_source_surfaces(self, tmp_path):
        req = {"pipeline": "chain_scan", "data": list(range(1, 65))}
        cfg = ServeConfig(cache_dir=str(tmp_path), backend="native")
        reset_native_caches()
        with ServerThread(cfg) as st:
            first = st.submit(req["pipeline"], req["data"])
        assert first.cache == "compile"
        # a fresh daemon (cold in-memory cache, no bound library) over
        # the same directory: the miss binds the persisted C artifact
        reset_native_caches()
        with ServerThread(cfg) as st:
            res = st.submit(req["pipeline"], req["data"])
            stats = st.stats()
        assert res.cache == "disk"
        assert np.array_equal(res.output, first.output)
        assert stats["plan_store"]["artifacts"] == 2
        sources = stats["plan_cache"]["sources"]
        assert sources["disk"] >= 1
        assert sources["memory"] + sources["disk"] + sources["compile"] \
            == stats["plan_cache"]["hits"] + stats["plan_cache"]["misses"]

    def test_per_flush_resolutions_partition_the_lookups(self):
        """Each flush's plan-cache sources are the delta of its own
        worker engine's tally; with more workers than cores the deltas
        must still add up to exactly the shared cache's lookups (a
        delta leaking across concurrent flushes would overcount)."""
        reqs = [{"pipeline": pipe, "data": list(range(1, n + 1))}
                for n in (2000, 4000, 8000)
                for pipe in ("chain_scan", "scan", "reverse", "filter")
                for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServerThread(ServeConfig(workers=4, max_rows=2,
                                          flush_ms=1.0)) as st:
                results = st.submit_many(reqs)
                doc = parse_exposition(st.metrics_exposition())
                sources = st.stats()["plan_cache"]["sources"]
        finally:
            sys.setswitchinterval(interval)
        errors = [r for r in results if isinstance(r, BaseException)]
        assert not errors, errors[:3]
        counted = {labels["source"]: v for _, labels, v
                   in doc["repro_serve_plan_cache_resolutions_total"]
                   ["samples"]}
        assert sum(counted.values()) == sum(sources.values())
        assert counted.get("compile", 0) == sources["compile"]

    def test_wire_response_carries_trace(self):
        from repro.serve import ServeClient

        with ServerThread(ServeConfig(port=0)) as st:
            host, port = st.address
            with ServeClient(host=host, port=port) as client:
                resp = client.execute_traced("reverse", [1, 2, 3, 4])
        assert resp["trace"].startswith("t")
        assert resp["cache"] in ("memory", "disk", "compile", "none")
        assert resp["timing"]["total_ms"] >= resp["timing"]["execute_ms"]
        assert np.array_equal(resp["result"], [4, 3, 2, 1])


class TestTelemetryOff:
    def test_disabled_daemon_serves_identically_with_no_events(self):
        cfg = ServeConfig(telemetry=False, max_rows=4, flush_ms=10_000)
        with ServerThread(cfg) as st:
            results = st.submit_many(
                [{"pipeline": "chain_scan", "data": list(range(1, 33))}
                 for _ in range(4)])
            dump = st.flight_dump()
            stats = st.stats()
        for res in results:
            assert res.trace_id == ""
            assert res.timing == {}
        assert dump["events"] == []
        assert dump["recorded"] == 0
        assert stats["telemetry"]["enabled"] is False
        assert stats["requests"]["ok"] == 4


class TestFlightRecorder:
    def test_ring_buffer_bounds_and_drop_accounting(self):
        cfg = ServeConfig(max_rows=2, flush_ms=10_000, flight_capacity=8)
        with ServerThread(cfg) as st:
            for _ in range(6):
                st.submit_many(
                    [{"pipeline": "elementwise", "data": [1, 2, 3, 4]}
                     for _ in range(2)])
            dump = st.flight_dump()
        assert len(dump["events"]) == 8
        assert dump["recorded"] > 8
        assert dump["dropped"] == dump["recorded"] - len(dump["events"])
        # the ring retains the *newest* events
        seqs = [e["seq"] for e in dump["events"]]
        assert seqs == sorted(seqs)

    def test_slowest_exemplars_retained_in_order(self):
        cfg = ServeConfig(max_rows=1, flush_ms=10_000, flight_exemplars=3)
        with ServerThread(cfg) as st:
            for i in range(7):
                st.submit("scan", list(range(1, 40 + i)))
            dump = st.flight_dump()
        exemplars = dump["exemplars"]
        assert len(exemplars) == 3
        totals = [x["total_ms"] for x in exemplars]
        assert totals == sorted(totals, reverse=True)
        for x in exemplars:
            assert set(x["spans"]) == {"coalesce_ms", "queue_ms",
                                       "execute_ms", "total_ms"}
            assert x["trace"].startswith("t") and x["flush"].startswith("f")

    def test_backpressure_rejections_recorded(self):
        cfg = ServeConfig(max_rows=64, flush_ms=5, queue_limit=1)
        with ServerThread(cfg) as st:
            results = st.submit_many(
                [{"pipeline": "chain_scan", "data": [1, 2, 3, 4]}
                 for _ in range(6)])
            dump = st.flight_dump()
        rejected = [r for r in results if isinstance(r, Exception)]
        rejects = [e for e in dump["events"] if e["kind"] == "reject"]
        assert len(rejects) == len(rejected)
        assert all(e["reason"] == "overloaded" for e in rejects)


class TestExposition:
    def test_live_daemon_scrape_is_strictly_valid(self):
        with ServerThread(ServeConfig(max_rows=4, flush_ms=10_000,
                                      workers=2)) as st:
            st.submit_many(
                [{"pipeline": "chain_scan", "data": list(range(1, 33))}
                 for _ in range(4)])
            st.submit("filter", list(range(1, 17)))
            text = st.metrics_exposition()
        doc = parse_exposition(text)  # raises on any format violation
        assert "repro_serve_requests_total" in doc
        total = next(v for name, labels, v
                     in doc["repro_serve_requests_total"]["samples"]
                     if not labels)
        assert total == 5
        labeled = doc["repro_serve_pipeline_requests_total"]["samples"]
        by_pipeline = {labels["pipeline"]: v for _, labels, v in labeled}
        assert by_pipeline == {"chain_scan": 4, "filter": 1}
        assert "repro_serve_instructions" in doc
        assert "repro_serve_plan_cache_lookups" in doc

    def test_profiled_daemon_counts_each_flush_once(self):
        """--profile merges the workers' collector registries into the
        scrape; the flush counters must still match the stats document."""
        with ServerThread(ServeConfig(profile=True, flush_ms=1.0)) as st:
            for _ in range(5):
                st.submit("chain_scan", list(range(1, 33)))
            doc = parse_exposition(st.metrics_exposition())
            coalescing = st.stats()["coalescing"]

        def total(family):
            return next(v for _, labels, v in doc[family]["samples"]
                        if not labels)

        assert total("repro_serve_flushes_total") == coalescing["flushes"]
        assert total("repro_serve_rows_total") == coalescing["rows"]
        # the collectors did merge in: their engine counters are there
        assert "repro_engine_plan_cache_hits_total" in doc

    def test_counters_unperturbed_by_telemetry(self):
        reqs = [{"pipeline": "scan", "data": list(range(1, 65))}
                for _ in range(4)]
        stats = {}
        for enabled in (True, False):
            with ServerThread(ServeConfig(max_rows=4, flush_ms=10_000,
                                          telemetry=enabled)) as st:
                st.submit_many(reqs)
                stats[enabled] = st.stats()
        assert stats[True]["counters"] == stats[False]["counters"], (
            "telemetry must never perturb the machine's instruction "
            "counters")


@pytest.mark.parametrize("pipeline", ["chain_scan", "filter"])
def test_stats_document_gains_telemetry_sections(pipeline):
    with ServerThread(ServeConfig(max_rows=2, flush_ms=10_000)) as st:
        st.submit_many([{"pipeline": pipeline, "data": [3, 1, 4, 1]}
                        for _ in range(2)])
        stats = st.stats()
    assert stats["telemetry"]["enabled"] is True
    assert stats["telemetry"]["flight"]["recorded"] > 0
    assert stats["uptime_s"] >= 0
    assert stats["pipelines"][pipeline]["requests"] == 2
    assert "latency_ms" in stats["pipelines"][pipeline]
