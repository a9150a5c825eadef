"""The asyncio plan-serving daemon.

One :class:`Server` owns:

* a :class:`~repro.serve.coalesce.Coalescer` grouping concurrent
  requests by ``(pipeline, n, dtype, mode)`` on a deadline window;
* a worker pool — each worker is an :class:`~repro.svm.context.SVM`
  context with its own simulated machine (counters stay additive), all
  sharing **one** warm :class:`~repro.engine.cache.PlanCache` and, when
  configured, one cache directory (native C artifacts, tuning DB), so
  a plan compiled for any request serves every later request of the
  same shape;
* optional TCP / unix-socket listeners speaking the NDJSON protocol
  (:mod:`repro.serve.protocol`), plus the in-process async
  :meth:`Server.submit` API used by tests and benchmarks.

Each flush executes through :func:`repro.batch.run_batch` — one
bucket, since the coalescer key fixes ``(n, dtype)`` — in a
thread-pool executor so the
event loop keeps accepting while NumPy crunches. Backpressure is a
bounded in-flight count: past ``queue_limit`` requests are rejected
with :class:`~repro.errors.ServeOverloadedError` before any work
happens. Graceful shutdown drains the window and every queued flush
before the workers stop, so no accepted request is ever dropped.

The repro invariant holds end-to-end: a coalesced flush's results and
per-category counters are bit-identical to executing its requests
sequentially through direct SVM calls (``tests/serve/`` gates this).
Pack pipelines flush as one masked 2D evaluation on the batch runner's
``"ragged"`` path; their responses carry only the defined survivor
prefix (the ``valid`` field), on every path, since lanes past a row's
kept count are undefined under the single-row semantics too.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import monotonic

import numpy as np

from ..engine.cache import PlanCache
from ..engine.native import artifact_stats
from ..errors import (
    ServeClosedError,
    ServeError,
    ServeOverloadedError,
    ServeProtocolError,
)
from ..obs.exposition import render_exposition
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import Telemetry
from ..svm.context import SVM
from ..svm.opspec import support_matrix
from . import protocol
from .coalesce import BucketKey, Coalescer, Flush, PendingRequest

__all__ = ["ServeConfig", "ExecuteResult", "Server", "ServerThread"]

_STOP = object()  # worker-queue sentinel


def _cache_outcome(sources: dict) -> str:
    """A flush's plan-cache outcome from its resolutions by tier,
    worst tier wins: one compile makes the flush a "compile" even if
    later groups hit memory."""
    for source in ("compile", "disk", "memory"):
        if sources.get(source):
            return source
    return "none"


@dataclass
class ServeConfig:
    """Everything ``repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int | None = None          #: TCP port (0 = ephemeral); None = no TCP
    unix_path: str | None = None     #: unix-socket path; None = no unix socket
    flush_ms: float = 2.0            #: coalescing window deadline
    max_rows: int = 64               #: coalescing window fill trigger
    queue_limit: int = 1024          #: max in-flight requests (backpressure)
    workers: int = 1                 #: executor pool size (SVM contexts)
    vlen: int = 1024
    codegen: str = "paper"
    mode: str = "auto"               #: default per-request execution mode
    backend: str | None = None
    cache_dir: str | None = None     #: shared native artifacts + tuning DB
    #: None (off), "auto", or a TunePolicy — workers consult the
    #: shape→config tuning DB per request shape at dispatch time
    tune: object | None = None
    profile: bool = False            #: per-worker engine/batch obs collectors
    max_requests: int | None = None  #: graceful exit after N execute requests
    telemetry: bool = True           #: always-on tracing + flight recorder
    flight_capacity: int = 512       #: flight-recorder ring size (events)
    flight_exemplars: int = 8        #: slowest-request span trees retained
    flight_dump: str | None = None   #: NDJSON dump path written on error


@dataclass
class ExecuteResult:
    """One served request's output plus its dispatch evidence."""

    output: np.ndarray
    n: int
    path: str          #: "2d", "ragged", or "loop" — how the flush executed
    flush_rows: int    #: coalesced requests sharing the flush
    latency_ms: float
    #: defined-prefix length for pack pipelines (``output`` is already
    #: sliced to it); None when every lane of the result is defined
    valid: int | None = None
    trace_id: str = ""                       #: telemetry trace ID
    #: queue/coalesce/execute breakdown of ``latency_ms`` (all in ms)
    timing: dict = field(default_factory=dict)
    cache: str = "none"                      #: plan-cache outcome of the flush


class Server:
    """The serving daemon (see module docstring). Lifecycle::

        server = Server(ServeConfig(port=0))
        await server.start()
        res = await server.submit("chain_scan", rows)
        await server.shutdown()     # drains, then stops

    All public methods must run on the server's event loop; sync
    callers use :class:`ServerThread`.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        if self.config.mode not in protocol.MODES:
            raise ServeProtocolError(
                f"unsupported mode {self.config.mode!r}")
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.config.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        #: The warm cache every worker shares.
        self.plan_cache = PlanCache()
        self.metrics = MetricsRegistry()
        #: Always-on service telemetry: trace IDs + flight recorder.
        self.telemetry = Telemetry(
            enabled=self.config.telemetry,
            flight_capacity=self.config.flight_capacity,
            slowest=self.config.flight_exemplars)
        self._clock = monotonic
        self._started_at = monotonic()
        # hot-path metric objects resolved once — the per-request path
        # must not pay a registry lookup (name + label freezing) per
        # event, or always-on telemetry stops being free
        m = self.metrics
        self._m_requests = m.counter("serve.requests")
        self._m_ok = m.counter("serve.ok")
        self._m_rejected = m.counter("serve.rejected")
        self._m_errors = m.counter("serve.errors")
        self._m_latency = m.summary("serve.latency_ms")
        self._pipe_metrics: dict[tuple[str, str], tuple] = {}
        self._coalescer = Coalescer(flush_ms=self.config.flush_ms,
                                    max_rows=self.config.max_rows,
                                    clock=self._clock)
        self._worker_svms: list[SVM] = []
        self._worker_tasks: list[asyncio.Task] = []
        self._flush_q: asyncio.Queue = asyncio.Queue()
        self._pool: ThreadPoolExecutor | None = None
        self._wakeup = asyncio.Event()
        self._window_task: asyncio.Task | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._accepting = False
        self._inflight = 0
        self._served = 0
        self._shutdown_started = False
        self._closed = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        cfg = self.config
        for _ in range(cfg.workers):
            svm = SVM(vlen=cfg.vlen, codegen=cfg.codegen, mode=cfg.mode,
                      backend=cfg.backend, cache_dir=cfg.cache_dir,
                      plan_cache=self.plan_cache, profile=cfg.profile,
                      tune=cfg.tune)
            self._worker_svms.append(svm)
        self._pool = ThreadPoolExecutor(
            max_workers=cfg.workers, thread_name_prefix="repro-serve")
        self._worker_tasks = [
            asyncio.create_task(self._worker(svm, i),
                                name=f"serve-worker-{i}")
            for i, svm in enumerate(self._worker_svms)
        ]
        self._window_task = asyncio.create_task(
            self._window_loop(), name="serve-window")
        if cfg.unix_path is not None:
            self._servers.append(await asyncio.start_unix_server(
                self._handle_conn, path=cfg.unix_path,
                limit=protocol.MAX_FRAME))
        if cfg.port is not None:
            self._servers.append(await asyncio.start_server(
                self._handle_conn, cfg.host, cfg.port,
                limit=protocol.MAX_FRAME))
        self._accepting = True

    @property
    def address(self) -> tuple[str, int] | None:
        """The bound TCP ``(host, port)`` (after :meth:`start` with a
        ``port`` configured), else None."""
        for srv in self._servers:
            for sock in srv.sockets or ():
                name = sock.getsockname()
                if isinstance(name, tuple):
                    return (name[0], name[1])
        return None

    async def shutdown(self) -> None:
        """Graceful drain: reject new requests, flush the residual
        window, execute every queued flush, then stop the workers and
        close the listeners. Idempotent; concurrent callers wait."""
        if self._shutdown_started:
            await self._closed.wait()
            return
        self._shutdown_started = True
        self._accepting = False
        for srv in self._servers:
            srv.close()
        for flush in self._coalescer.drain():
            self._flush_q.put_nowait(flush)
        if self._window_task is not None:
            self._window_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._window_task
        for _ in self._worker_tasks:
            self._flush_q.put_nowait(_STOP)
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        for srv in self._servers:
            with contextlib.suppress(Exception):
                await srv.wait_closed()
        self._closed.set()

    async def wait_closed(self) -> None:
        """Block until a shutdown (request, signal, or
        ``max_requests``) completes."""
        await self._closed.wait()

    # ------------------------------------------------------------------
    # the in-process request API
    # ------------------------------------------------------------------
    async def submit(self, pipeline: str, data, *, dtype: str = "uint32",
                     mode: str | None = None) -> ExecuteResult:
        """Queue one request into the coalescing window and await its
        result. Raises :class:`~repro.errors.ServeOverloadedError` when
        the bounded queue is full, :class:`~repro.errors.ServeClosedError`
        while draining, :class:`~repro.errors.ServeProtocolError` on a
        bad pipeline/dtype/mode/shape."""
        if not self._accepting:
            raise ServeClosedError("server is draining; request rejected")
        if pipeline not in protocol.PIPELINES:
            raise ServeProtocolError(
                f"unknown pipeline {pipeline!r}; "
                f"registered: {sorted(protocol.PIPELINES)}")
        if dtype not in protocol.DTYPES:
            raise ServeProtocolError(f"unsupported dtype {dtype!r}")
        mode = mode or self.config.mode
        if mode not in protocol.MODES:
            raise ServeProtocolError(f"unsupported mode {mode!r}")
        arr = np.asarray(data, dtype=protocol.DTYPES[dtype])
        if arr.ndim != 1 or arr.size == 0:
            raise ServeProtocolError(
                f"data must be non-empty and 1-D, got shape {arr.shape}")
        tel = self.telemetry
        self._m_requests.inc()
        if self._inflight >= self.config.queue_limit:
            self._m_rejected.inc()
            tel.rejected(reason="overloaded", inflight=self._inflight)
            raise ServeOverloadedError(self.config.queue_limit)
        self._inflight += 1
        t0 = self._clock()
        trace_id = tel.new_trace_id() if tel.enabled else ""
        fut = asyncio.get_running_loop().create_future()
        key = BucketKey(pipeline, int(arr.size), dtype, mode)
        pm = None
        if tel.enabled:
            tel.admitted(trace_id, pipeline=pipeline, n=int(arr.size),
                         dtype=dtype, mode=mode)
            pm = self._pipe_metrics.get((pipeline, mode))
            if pm is None:
                pm = (self.metrics.counter("serve.pipeline.requests",
                                           pipeline=pipeline, mode=mode),
                      self.metrics.summary("serve.pipeline.latency_ms",
                                           pipeline=pipeline))
                self._pipe_metrics[(pipeline, mode)] = pm
            pm[0].inc()
        full = self._coalescer.add(key,
                                   PendingRequest(arr, t0, fut, trace_id))
        if tel.enabled:
            tel.coalesced(trace_id, key=key)
        if full is not None:
            self._flush_q.put_nowait(full)
        else:
            self._wakeup.set()
        try:
            output, meta, valid = await fut
        except BaseException as exc:
            self._m_errors.inc()
            tel.errored(trace_id or None, error=repr(exc))
            self._dump_on_error()
            raise
        finally:
            self._inflight -= 1
            self._served += 1
            if (self.config.max_requests is not None
                    and self._served >= self.config.max_requests
                    and not self._shutdown_started):
                asyncio.get_running_loop().create_task(self.shutdown())
        latency_ms = (self._clock() - t0) * 1e3
        self._m_ok.inc()
        self._m_latency.observe(round(latency_ms, 3))
        timing: dict = {}
        if tel.enabled:
            # the request's life split at the flush boundaries:
            # window wait (admit -> flush pop), queue wait (pop ->
            # worker starts), execute (run_batch), total (admit ->
            # result)
            timing = {
                "coalesce_ms": round(
                    max(0.0, (meta["flush_at"] - t0) * 1e3), 3),
                "queue_ms": round(
                    max(0.0, (meta["exec_start"] - meta["flush_at"]) * 1e3),
                    3),
                "execute_ms": round(meta["execute_ms"], 3),
                "total_ms": round(latency_ms, 3),
            }
            tel.completed(trace_id, flush_id=meta["flush_id"],
                          timing=timing, cache=meta["cache"],
                          path=meta["path"])
            pm[1].observe(round(latency_ms, 3))
        return ExecuteResult(output=output, n=int(arr.size),
                             path=meta["path"], flush_rows=meta["rows"],
                             latency_ms=latency_ms, trace_id=trace_id,
                             timing=timing, cache=meta["cache"],
                             valid=valid)

    # ------------------------------------------------------------------
    # window + workers
    # ------------------------------------------------------------------
    async def _window_loop(self) -> None:
        """Flush buckets whose deadline passed. Deadlines are monotone
        (a newer bucket can never be due before an older one), so the
        loop sleeps until the earliest deadline and only needs a
        wake-up when the window goes from empty to non-empty."""
        while True:
            self._wakeup.clear()
            deadline = self._coalescer.deadline()
            if deadline is None:
                await self._wakeup.wait()
                continue
            delay = deadline - self._clock()
            if delay > 0:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._wakeup.wait(), timeout=delay)
                continue
            for flush in self._coalescer.expired():
                self._flush_q.put_nowait(flush)

    def _execute_flush(self, svm: SVM, flush: Flush):
        """Thread-pool body: one coalesced bucket through the batch
        runner on this worker's machine.

        Also returns the flush's plan resolutions by tier: the delta
        of the worker engine's tally across ``run_batch``. It is exact
        because the engine belongs to this worker alone, and a worker
        runs one flush at a time."""
        from ..batch import run_batch  # local: batch depends on svm

        key = flush.key
        svm.mode = key.mode
        exec_start = self._clock()
        wait_ms = (exec_start
                   - min(r.enqueued_at for r in flush.requests)) * 1e3
        tally = svm.engine.resolutions
        before = dict(tally)
        res = run_batch(svm, protocol.PIPELINES[key.pipeline],
                        [r.data for r in flush.requests],
                        dtype=protocol.DTYPES[key.dtype])
        execute_ms = (self._clock() - exec_start) * 1e3
        sources = {tier: k - before[tier] for tier, k in tally.items()
                   if k != before[tier]}
        # pack pipelines: only the first ``lengths[i]`` lanes of a row
        # are defined, so the wire result is the valid prefix on every
        # path (ragged and loop alike — uniform response semantics)
        outputs = [out if k is None else out[:k]
                   for out, k in zip(res.outputs, res.lengths)]
        return (outputs, list(res.lengths), res.buckets[0].path, wait_ms,
                sources, exec_start, execute_ms)

    async def _worker(self, svm: SVM, idx: int = 0) -> None:
        loop = asyncio.get_running_loop()
        tel = self.telemetry
        while True:
            flush = await self._flush_q.get()
            if flush is _STOP:
                self._flush_q.task_done()
                return
            flush_id = tel.new_flush_id() if tel.enabled else ""
            if tel.enabled:
                tel.flushed(flush_id,
                            traces=[r.trace_id for r in flush.requests],
                            reason=flush.reason, rows=flush.rows,
                            key=flush.key)
            try:
                (outputs, lengths, path, wait_ms, sources, exec_start,
                 execute_ms) = await loop.run_in_executor(
                    self._pool, self._execute_flush, svm, flush)
            except BaseException as exc:  # noqa: BLE001 - fan failure out
                err = exc if isinstance(exc, ServeError) else ServeError(
                    f"flush execution failed: {exc!r}")
                tel.errored(None, error=f"flush {flush_id}: {exc!r}")
                self._dump_on_error()
                for req in flush.requests:
                    if not req.future.done():
                        req.future.set_exception(err)
            else:
                m = self.metrics
                m.counter("serve.flushes").inc()
                m.counter("serve.rows").inc(flush.rows)
                m.counter(f"serve.flush.{path}").inc()
                m.histogram("serve.rows_per_flush").observe(flush.rows)
                m.summary("serve.flush_wait_ms").observe(round(wait_ms, 3))
                cache = _cache_outcome(sources)
                if tel.enabled:
                    tel.cache_outcome(flush_id, sources=sources)
                    m.counter("serve.flush.path", path=path,
                              pipeline=flush.key.pipeline).inc()
                    m.counter("serve.worker.flushes", worker=str(idx)).inc()
                    for source, count in sorted(sources.items()):
                        m.counter("serve.plan_cache.resolutions",
                                  source=source).inc(count)
                meta = {"path": path, "rows": flush.rows,
                        "flush_id": flush_id, "cache": cache,
                        "flush_at": flush.at, "exec_start": exec_start,
                        "execute_ms": execute_ms}
                for req, out, k in zip(flush.requests, outputs, lengths):
                    if not req.future.done():
                        req.future.set_result((out, meta, k))
            finally:
                self._flush_q.task_done()

    # ------------------------------------------------------------------
    # stats + telemetry documents
    # ------------------------------------------------------------------
    def _dump_on_error(self) -> None:
        """Write the flight recorder as NDJSON to the configured
        ``flight_dump`` path (best-effort; each error overwrites, so
        the file always holds the window around the *latest* one)."""
        path = self.config.flight_dump
        if not path or not self.telemetry.enabled:
            return
        with contextlib.suppress(OSError):
            with open(path, "w") as f:
                f.write(self.telemetry.recorder.dump_ndjson())

    def metrics_exposition(self) -> str:
        """Every metric the daemon holds, in Prometheus text format:
        the server registry, the per-worker collector registries
        (folded in via :meth:`MetricsRegistry.merge` — counters sum,
        summaries pool samples), plus point-in-time gauges (inflight,
        plan-cache tiers, per-category instruction counters)."""
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        for i, svm in enumerate(self._worker_svms):
            col = getattr(svm.machine, "collector", None)
            if col is not None and len(col.metrics):
                merged.merge(col.metrics)
        merged.gauge("serve.inflight").set(self._inflight)
        merged.gauge("serve.uptime_seconds").set(
            round(self._clock() - self._started_at, 3))
        pc = self.plan_cache.stats_dict()
        for source, value in (("memory", pc["hits"]),
                              ("disk", pc["disk_hits"]),
                              ("compile", pc["compiles"])):
            merged.gauge("serve.plan_cache.lookups", source=source).set(value)
        for cat, count in self.counters_snapshot().items():
            merged.gauge("serve.instructions", category=cat).set(count)
        flight = self.telemetry.recorder
        merged.gauge("serve.flight.recorded").set(flight.recorded)
        merged.gauge("serve.flight.dropped").set(flight.dropped)
        return render_exposition(merged)

    def counters_snapshot(self) -> dict:
        """Per-category dynamic-instruction counters summed across the
        worker pool (counters are additive per request, so this equals
        the sequential-execution total — the identity gate checks it)."""
        total: dict[str, int] = {}
        for svm in self._worker_svms:
            for cat, n in svm.machine.counters.snapshot().by_category.items():
                total[cat.value] = total.get(cat.value, 0) + int(n)
        return dict(sorted(total.items()))

    def stats(self) -> dict:
        """The ``stats`` request / ``--stats-json`` document."""
        cfg = self.config
        m = self.metrics
        flushes = m.counter("serve.flushes").value
        rows = m.counter("serve.rows").value
        latency = m.summary("serve.latency_ms")
        counters = self.counters_snapshot()
        store = (artifact_stats(self._worker_svms[0].cache_dir)
                 if self._worker_svms and self._worker_svms[0].cache_dir
                 else None)
        plan_cache = self.plan_cache.stats_dict()
        # hit *source* tiers, not just aggregate hits: memory (LRU),
        # disk (the miss bound its C artifact from disk, no cc), compile
        plan_cache["sources"] = {
            "memory": plan_cache["hits"],
            "disk": plan_cache["disk_hits"],
            "compile": plan_cache["compiles"],
        }
        pipelines: dict = {}
        for labels, counter in m.samples("serve.pipeline.requests"):
            if not labels:
                continue
            doc = pipelines.setdefault(
                labels["pipeline"], {"requests": 0, "by_mode": {}})
            doc["requests"] += counter.value
            doc["by_mode"][labels["mode"]] = counter.value
        for labels, summ in m.samples("serve.pipeline.latency_ms"):
            if labels and labels["pipeline"] in pipelines:
                pipelines[labels["pipeline"]]["latency_ms"] = summ.as_dict()
        return {
            "config": {
                "flush_ms": cfg.flush_ms, "max_rows": cfg.max_rows,
                "queue_limit": cfg.queue_limit, "workers": cfg.workers,
                "vlen": cfg.vlen, "codegen": cfg.codegen, "mode": cfg.mode,
                "backend": cfg.backend,
            },
            "requests": {
                "total": m.counter("serve.requests").value,
                "ok": m.counter("serve.ok").value,
                "rejected": m.counter("serve.rejected").value,
                "errors": m.counter("serve.errors").value,
                "inflight": self._inflight,
            },
            "latency_ms": latency.as_dict() if latency.count else None,
            "coalescing": {
                "flushes": flushes,
                "rows": rows,
                "ratio": round(rows / flushes, 4) if flushes else 0.0,
                "paths": {
                    "2d": m.counter("serve.flush.2d").value,
                    "ragged": m.counter("serve.flush.ragged").value,
                    "loop": m.counter("serve.flush.loop").value,
                },
                "rows_per_flush":
                    m.histogram("serve.rows_per_flush").as_dict(),
                "flush_wait_ms": m.summary("serve.flush_wait_ms").as_dict()
                    if m.summary("serve.flush_wait_ms").count else None,
            },
            "counters": counters,
            "instructions": sum(counters.values()),
            "plan_cache": plan_cache,
            "plan_store": store,
            "pipelines": pipelines,
            "telemetry": self.telemetry.stats_dict(),
            "uptime_s": round(self._clock() - self._started_at, 3),
        }

    # ------------------------------------------------------------------
    # the socket protocol
    # ------------------------------------------------------------------
    async def _respond(self, writer: asyncio.StreamWriter,
                       wlock: asyncio.Lock, obj: dict) -> None:
        async with wlock:
            writer.write(protocol.encode(obj))
            with contextlib.suppress(ConnectionError):
                await writer.drain()

    async def _handle_frame(self, line: bytes, writer, wlock) -> None:
        req_id = None
        shutdown_after = False
        try:
            obj = protocol.decode(line)
            req_id = obj.get("id")
            op = obj.get("op")
            if op == "execute":
                pipeline, arr, dtype, mode = protocol.validate_execute(obj)
                res = await self.submit(pipeline, arr, dtype=dtype, mode=mode)
                resp = {"id": req_id, "ok": True,
                        "result": res.output.tolist(), "n": res.n,
                        "path": res.path, "flush_rows": res.flush_rows}
                if res.valid is not None:
                    resp["valid"] = res.valid
                if res.trace_id:
                    resp["trace"] = res.trace_id
                    resp["timing"] = res.timing
                    resp["cache"] = res.cache
            elif op == "ping":
                resp = {"id": req_id, "ok": True, "pong": True}
            elif op == "stats":
                resp = {"id": req_id, "ok": True, "stats": self.stats()}
            elif op == "metrics":
                resp = {"id": req_id, "ok": True,
                        "metrics": self.metrics_exposition()}
            elif op == "dump":
                resp = {"id": req_id, "ok": True,
                        "dump": self.telemetry.recorder.dump()}
            elif op == "ops":
                resp = {"id": req_id, "ok": True, "ops": support_matrix()}
            elif op == "shutdown":
                resp = {"id": req_id, "ok": True, "draining": True}
                shutdown_after = True
            else:
                raise ServeProtocolError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 - all failures go on the wire
            resp = protocol.error_response(req_id, exc)
        await self._respond(writer, wlock, resp)
        if shutdown_after:
            asyncio.get_running_loop().create_task(self.shutdown())

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        wlock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    await self._respond(writer, wlock, protocol.error_response(
                        None, ServeProtocolError("frame exceeds size limit")))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                t = asyncio.create_task(
                    self._handle_frame(line, writer, wlock))
                tasks.add(t)
                t.add_done_callback(tasks.discard)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()


# ---------------------------------------------------------------------------
# sync harness: a server on a background event loop
# ---------------------------------------------------------------------------

class ServerThread:
    """Run a :class:`Server` on a private event loop in a background
    thread — the harness for tests, benchmarks, and sync callers::

        with ServerThread(ServeConfig(max_rows=8)) as st:
            out = st.submit("chain_scan", [1, 2, 3, 4]).output

    ``submit_many`` launches a whole request list concurrently on the
    loop (this is what drives coalescing from sync code). Exceptions
    propagate to the caller; ``submit_many`` returns them in-place so
    a mixed workload can assert on rejects without losing the rest.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.server: Server | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()),
            name="repro-serve-loop", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._error is not None:
            raise self._error
        return self

    async def _amain(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.server = Server(self.config)
        try:
            await self.server.start()
        except BaseException as exc:  # startup failure -> caller
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.server.wait_closed()

    def stop(self) -> None:
        if self.loop is None or self.server is None:
            return
        if self._thread is not None and self._thread.is_alive():
            # the loop may already be winding down (shutdown request,
            # max_requests) — joining the thread is then all that's left
            with contextlib.suppress(RuntimeError, asyncio.CancelledError):
                asyncio.run_coroutine_threadsafe(
                    self.server.shutdown(), self.loop).result(timeout=60)
            self._thread.join(timeout=60)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- sync request API ----------------------------------------------
    @property
    def address(self) -> tuple[str, int] | None:
        return self.server.address if self.server else None

    def submit(self, pipeline: str, data, *, dtype: str = "uint32",
               mode: str | None = None) -> ExecuteResult:
        fut = asyncio.run_coroutine_threadsafe(
            self.server.submit(pipeline, data, dtype=dtype, mode=mode),
            self.loop)
        return fut.result(timeout=300)

    def submit_many(self, requests: list[dict]) -> list:
        """Submit every request concurrently (one coroutine each, all
        scheduled before any completes — the coalescing driver).
        Returns results in request order; failed entries hold the
        exception instead of an :class:`ExecuteResult`."""
        async def _gather():
            return await asyncio.gather(
                *(self.server.submit(
                    r["pipeline"], r["data"],
                    dtype=r.get("dtype", "uint32"), mode=r.get("mode"))
                  for r in requests),
                return_exceptions=True)

        fut = asyncio.run_coroutine_threadsafe(_gather(), self.loop)
        return fut.result(timeout=600)

    def stats(self) -> dict:
        async def _stats():
            return self.server.stats()

        return asyncio.run_coroutine_threadsafe(
            _stats(), self.loop).result(timeout=60)

    def metrics_exposition(self) -> str:
        async def _metrics():
            return self.server.metrics_exposition()

        return asyncio.run_coroutine_threadsafe(
            _metrics(), self.loop).result(timeout=60)

    def flight_dump(self) -> dict:
        async def _dump():
            return self.server.telemetry.recorder.dump()

        return asyncio.run_coroutine_threadsafe(
            _dump(), self.loop).result(timeout=60)
