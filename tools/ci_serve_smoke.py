"""CI probe: drive the serving daemon end to end as a real subprocess.

Starts ``python -m repro serve`` on an ephemeral port, parses the
``REPRO_SERVE listening addr=...`` announce line, runs a mixed
workload (every default pipeline, mixed lengths, a strict-mode batch)
over one pipelined client connection, and asserts:

* every response is bit-identical to executing the same request
  sequentially through a direct :class:`repro.SVM` call (the serving
  identity invariant, checked over the wire this time) — pack
  pipelines (``filter``, ``radix_pack``) on their defined survivor
  prefix, cross-checked against a plain NumPy model, with the stats
  document proving their flushes took the ``"ragged"`` path;
* the ``stats`` request reports a sane document (requests all ok,
  at least one coalesced flush, nonzero instruction counters);
* always-on telemetry holds end to end: every execute response
  carries a unique trace ID with a timing breakdown and plan-cache
  outcome, the ``metrics`` request scrapes as *strictly valid*
  Prometheus text exposition (validated with
  :func:`repro.obs.exposition.parse_exposition`, which rejects rather
  than skips malformed lines) whose flush total equals the ``stats``
  document's (one count per flush), the ``dump`` request returns a flight
  recorder whose event chains match the response trace IDs, and
  SIGUSR1 makes the daemon write the same recorder as NDJSON to
  ``--flight-dump``;
* ``repro top --once`` renders a live frame against the daemon;
* a ``shutdown`` request drains the daemon, it exits 0, and the
  ``--stats-json`` file it leaves behind agrees with the wire stats.

    PYTHONPATH=src python tools/ci_serve_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.obs.exposition import parse_exposition
from repro.serve import ServeClient
from repro.serve.protocol import PIPELINES
from repro.svm import SVM

SEED = 513


def _radix_pack_model(d: np.ndarray) -> np.ndarray:
    """Plain NumPy model of the radix_pack pipeline: stable partition
    by bit 0 (zeros first), then keep values < 2^15."""
    part = np.concatenate([d[(d & 1) == 0], d[(d & 1) == 1]])
    return part[part < 2**15]


#: NumPy models of the pack pipelines' defined survivor prefixes —
#: responses carry only these lanes (plus a ``valid`` count).
PACK_MODELS = {
    "filter": lambda d: d[(d >= 2**14) & (d < 3 * 2**14)],
    "radix_pack": _radix_pack_model,
}


def build_workload() -> list[dict]:
    g = np.random.default_rng(SEED)
    reqs: list[dict] = []
    reqs += [{"pipeline": "chain_scan",
              "data": g.integers(0, 2**16, 2600, dtype=np.uint32).tolist()}
             for _ in range(6)]
    reqs += [{"pipeline": "elementwise",
              "data": g.integers(0, 2**16, 2600, dtype=np.uint32).tolist()}
             for _ in range(4)]
    reqs += [{"pipeline": "scan",
              "data": g.integers(0, 2**16, 900, dtype=np.uint32).tolist()}
             for _ in range(3)]
    reqs += [{"pipeline": "reverse",
              "data": g.integers(0, 2**16, 2600, dtype=np.uint32).tolist()}
             for _ in range(3)]
    reqs += [{"pipeline": "filter",
              "data": g.integers(0, 2**16, 2600, dtype=np.uint32).tolist()}
             for _ in range(3)]
    reqs += [{"pipeline": "radix_pack",
              "data": g.integers(0, 2**16, 2600, dtype=np.uint32).tolist()}
             for _ in range(3)]
    reqs += [{"pipeline": "chain_scan", "mode": "strict",
              "data": g.integers(0, 2**16, 2600, dtype=np.uint32).tolist()}
             for _ in range(2)]
    return reqs


def sequential_reference(requests: list[dict]) -> list[np.ndarray]:
    svm = SVM(vlen=1024, codegen="paper")
    outs = []
    for r in requests:
        svm.mode = r.get("mode") or "auto"
        data = svm.array(np.asarray(r["data"], dtype=np.uint32))
        with svm.lazy() as lz:
            out = PIPELINES[r["pipeline"]](lz, data)
        outs.append(out.to_numpy())
        svm.free(out)
        if out is not data:
            svm.free(data)
    return outs


def check_exposition(text: str, stats: dict, n_requests: int) -> None:
    """Strictly parse a live scrape and spot-check the families the
    dashboard relies on; each flush must be counted exactly once, so
    the scrape's flush total equals the ``stats`` document's."""
    doc = parse_exposition(text)  # raises ExpositionError on violation

    for family, want in (
            ("repro_serve_requests_total", n_requests),
            ("repro_serve_flushes_total", stats["coalescing"]["flushes"])):
        got = next(v for _, labels, v in doc[family]["samples"]
                   if not labels)
        assert got == want, (family, got, want)
    by_pipeline: dict[str, float] = {}
    for _, labels, v in doc["repro_serve_pipeline_requests_total"]["samples"]:
        by_pipeline[labels["pipeline"]] = \
            by_pipeline.get(labels["pipeline"], 0) + v
    assert sum(by_pipeline.values()) == n_requests, by_pipeline
    assert "repro_serve_latency_ms" in doc
    assert "repro_serve_instructions" in doc
    assert "repro_serve_plan_cache_lookups" in doc
    print(f"metrics: strict exposition parse OK "
          f"({len(doc)} families, per-pipeline {by_pipeline})")


def check_flight_dump(dump: dict, traced: list[dict]) -> None:
    """The recorder must hold, for every traced response, an event
    chain admit -> coalesce -> flush -> complete whose flush lists the
    trace ID."""
    events = dump["events"]
    for resp in traced:
        trace = resp["trace"]
        chain = [e["kind"] for e in events
                 if e.get("trace") == trace
                 or trace in (e.get("traces") or ())]
        assert chain == ["admit", "coalesce", "flush", "complete"], (
            f"trace {trace}: bad chain {chain}")
    kinds = {e["kind"] for e in events}
    assert kinds <= {"admit", "coalesce", "flush", "complete", "cache",
                     "reject", "error"}, kinds
    assert dump["recorded"] >= len(events) > 0
    print(f"flight recorder: {len(events)} events retained, "
          f"{len(traced)} trace chains verified, "
          f"{len(dump['exemplars'])} slow exemplars")


def check_ndjson_dump(path: str) -> None:
    """The SIGUSR1 NDJSON file: a header line then one JSON doc per
    retained event/exemplar."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    docs = [json.loads(ln) for ln in lines]
    assert docs[0]["kind"] == "flight_recorder", docs[0]
    assert docs[0]["recorded"] > 0
    assert all("kind" in d for d in docs[1:])
    print(f"SIGUSR1 dump: {len(docs)} NDJSON lines at {path}")


def run_top(host: str, port: int) -> None:
    """``repro top --once`` must render a frame against the live
    daemon."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "top", "--host", host,
         "--port", str(port), "--once"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    frame = out.stdout
    for needle in ("repro top", "requests", "coalescing", "plan cache",
                   "flight"):
        assert needle in frame, f"missing {needle!r} in top frame:\n{frame}"
    print("repro top: live frame rendered "
          f"({len(frame.splitlines())} lines)")


def main() -> int:
    tmpdir = tempfile.mkdtemp(prefix="repro-serve-")
    stats_path = os.path.join(tmpdir, "stats.json")
    flight_path = os.path.join(tmpdir, "flight.ndjson")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--flush-ms", "5", "--max-rows", "8",
         "--stats-json", stats_path, "--flight-dump", flight_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        announce = proc.stdout.readline()
        m = re.match(r"REPRO_SERVE listening addr=([\d.]+):(\d+)", announce)
        if not m:
            proc.kill()
            _, stderr = proc.communicate()
            print(f"FAIL: bad announce line {announce!r}\n{stderr}")
            return 1
        host, port = m.group(1), int(m.group(2))
        print(f"daemon up at {host}:{port}")

        requests = build_workload()
        with ServeClient(host=host, port=port) as client:
            assert client.ping(), "ping failed"
            served = client.execute_many(requests)

            # telemetry: traced responses, then the recorder they must
            # appear in
            g = np.random.default_rng(SEED + 1)
            traced = [
                client.execute_traced(
                    "scan", g.integers(0, 2**16, 700, dtype=np.uint32)
                    .tolist())
                for _ in range(3)
            ]
            assert len({r["trace"] for r in traced}) == 3, traced
            for resp in traced:
                assert resp["trace"].startswith("t"), resp
                t = resp["timing"]
                assert t["total_ms"] >= t["execute_ms"] >= 0, t
                assert resp["cache"] in ("memory", "disk", "compile",
                                         "none"), resp
            print(f"tracing: {len(traced)} traced responses with "
                  "timing breakdowns")

            # pack over the wire: the response is the defined survivor
            # prefix with its length in the ``valid`` field
            d = g.integers(0, 2**16, 2600, dtype=np.uint32)
            fresp = client.execute_traced("filter", d.tolist())
            fwant = PACK_MODELS["filter"](d)
            assert fresp["valid"] == len(fresp["result"]) == fwant.size, (
                fresp["valid"], fwant.size)
            assert np.array_equal(
                np.asarray(fresp["result"], dtype=np.uint32), fwant)
            print(f"pack wire semantics: valid={fresp['valid']} survivor "
                  f"lanes of n=2600 on the {fresp['path']!r} path")
            extra = len(traced) + 1

            check_exposition(client.metrics(), client.stats(),
                             len(requests) + extra)
            check_flight_dump(client.dump(), traced)
            run_top(host, port)

            # SIGUSR1 → NDJSON dump to --flight-dump, daemon untouched
            if hasattr(signal, "SIGUSR1"):
                os.kill(proc.pid, signal.SIGUSR1)
                deadline = time.monotonic() + 30
                while (not os.path.exists(flight_path)
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                check_ndjson_dump(flight_path)
                assert client.ping(), "daemon died on SIGUSR1"

            wire_stats = client.stats()
            assert client.shutdown(), "shutdown not acknowledged"

        failures = [r for r in served if not isinstance(r, np.ndarray)]
        assert not failures, f"request failures: {failures}"

        reference = sequential_reference(requests)
        for i, (got, want) in enumerate(zip(served, reference)):
            pipe = requests[i]["pipeline"]
            if pipe in PACK_MODELS:
                model = PACK_MODELS[pipe](
                    np.asarray(requests[i]["data"], dtype=np.uint32))
                assert np.array_equal(got, model), (
                    f"request {i} ({pipe}) diverged from the NumPy model")
                assert np.array_equal(got, want[:got.size]), (
                    f"request {i} ({pipe}) diverged from the sequential "
                    "reference prefix")
            else:
                assert np.array_equal(got, want), (
                    f"request {i} ({pipe}) diverged from the sequential "
                    "reference")
        print(f"identity: {len(served)} served results bit-identical "
              "to sequential SVM calls (pack pipelines on their "
              "survivor prefixes)")

        total_reqs = len(requests) + extra
        req = wire_stats["requests"]
        co = wire_stats["coalescing"]
        assert req["ok"] == total_reqs, req
        assert req["errors"] == 0 and req["rejected"] == 0, req
        assert co["flushes"] >= 1 and co["rows"] == total_reqs, co
        assert co["ratio"] > 1.0, f"no coalescing happened: {co}"
        assert wire_stats["instructions"] > 0
        sources = wire_stats["plan_cache"]["sources"]
        assert sources["compile"] >= 1 and sources["memory"] >= 1, sources
        # the coalesced filter and radix_pack flushes must have taken
        # the masked ragged path, not the per-row loop fallback
        assert co["paths"]["ragged"] >= 2, co["paths"]
        print(f"stats: {co['rows']} rows in {co['flushes']} flushes "
              f"(ratio {co['ratio']}), paths {co['paths']}")

        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"daemon exit {proc.returncode}\n{stderr}"
        assert "served" in stdout, stdout
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    with open(stats_path) as f:
        final_stats = json.load(f)
    assert final_stats["requests"]["ok"] == total_reqs, final_stats
    assert final_stats["counters"] == wire_stats["counters"], (
        "stats-json counters drifted from the wire stats")
    print("serve smoke: OK "
          f"(final stats written to {stats_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
