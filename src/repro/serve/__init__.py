"""repro.serve — the async plan-serving daemon.

The fifth execution tier: where :mod:`repro.batch` turns *one caller's*
many inputs into length-bucketed 2D evaluations, this package turns
*many concurrent callers* into the same shape. A long-running asyncio
service (``repro serve``) accepts plan-execution requests — NDJSON
over TCP / unix socket, or the in-process async API — and coalesces
same-``(pipeline, n, dtype, mode)`` requests on a deadline window
(flush every ``flush_ms`` or ``max_rows``, whichever first) into
single-bucket :func:`repro.batch.run_batch` evaluations. A worker pool
shares one warm :class:`~repro.engine.cache.PlanCache` (and, on a
native backend with a cache directory, its compiled C artifacts), so a
plan compiles once per shape for the whole service.

Guarantees:

* **identity** — coalesced results and per-category counters are
  bit-identical to executing the same requests sequentially through
  direct SVM calls (pack/strict requests take the loop fallback, same
  as the batch runner);
* **backpressure** — past ``queue_limit`` in-flight requests, new ones
  are rejected with :class:`~repro.errors.ServeOverloadedError` before
  any work happens;
* **graceful shutdown** — draining completes every accepted request;
* **observability** — per-request latency (p50/p99), coalescing ratio,
  rows-per-flush, and loop-fallback counts through
  :mod:`repro.obs` metrics, a ``stats`` request, and
  ``repro serve --stats-json``.

See ``docs/serving.md`` for the protocol and window semantics.
"""

from .client import ServeClient
from .coalesce import BucketKey, Coalescer, Flush, PendingRequest
from .protocol import DTYPES, MODES, PIPELINES, register_pipeline
from .server import ExecuteResult, ServeConfig, Server, ServerThread

__all__ = [
    "Server",
    "ServerThread",
    "ServeConfig",
    "ExecuteResult",
    "ServeClient",
    "Coalescer",
    "BucketKey",
    "PendingRequest",
    "Flush",
    "PIPELINES",
    "DTYPES",
    "MODES",
    "register_pipeline",
]
