"""Wire protocol and pipeline registry for the serving daemon.

Framing is newline-delimited JSON (NDJSON): one request object per
line, one response object per line, matched by a client-chosen ``id``.
Responses may arrive out of send order — coalescing completes whole
flushes at once — so pipelining clients must correlate by ``id``.

Requests
--------
``{"id": I, "op": "execute", "pipeline": P, "data": [...],
"dtype": "uint32", "mode": null}``
    Run registered pipeline ``P`` over a 1-D integer array. ``mode``
    overrides the server's execution mode for this request
    (``"strict"`` forces the per-row loop fallback; identity holds
    either way).
``{"op": "stats"}`` / ``{"op": "ops"}`` / ``{"op": "ping"}``
    Introspection: serving metrics, the OpSpec tier-support matrix
    (:func:`repro.svm.opspec.support_matrix`), liveness.
``{"op": "metrics"}``
    Every metric family in Prometheus text exposition format (see
    :mod:`repro.obs.exposition`) — the scrape endpoint and what
    ``repro top`` polls.
``{"op": "dump"}``
    The telemetry flight recorder: retained structured events plus
    the slowest-request exemplars (see :mod:`repro.obs.telemetry`).
``{"op": "shutdown"}``
    Graceful drain: in-flight and already-queued requests complete,
    new ones are rejected with code ``"closed"``.

Responses
---------
``{"id": I, "ok": true, "result": [...], "n": N,
"path": "2d"|"ragged"|"loop", "flush_rows": R, "trace": T,
"timing": {...}, "cache": S}`` for execute (``flush_rows`` is how many
coalesced requests shared the flush — the client-visible coalescing
evidence; ``trace`` is the request's telemetry trace ID, ``timing``
its coalesce/queue/execute breakdown in ms, and ``cache`` the flush's
plan-cache outcome in ``{"memory", "disk", "compile", "none"}``, worst
tier wins: ``memory`` is an in-process hit, ``disk`` a compile whose
native C artifact was already under ``<cache_dir>/native/`` so no
``cc`` ran, ``compile`` any other compile — the telemetry trio is
present whenever the daemon runs with telemetry enabled, the
default). Pack pipelines additionally carry
``"valid": K`` — the row's survivor count — and ``result`` holds only
those ``K`` defined lanes (lanes past the kept count are undefined
under the single-row semantics, so they never cross the wire, on any
path). ``{"id": I, "ok": false, "error": MSG, "code": C}`` on failure
with ``code`` in
``{"overloaded", "protocol", "closed", "internal"}``.

Pipelines are *named server-side*, never shipped as code: the registry
below maps names to ``pipe(lz, data)`` capture functions (the exact
shape :func:`repro.batch.run_batch` executes). The defaults cover
every dispatch regime — fused 2D chains, structured permutation
plans, and ``pack``-terminated pipelines on the masked ragged path.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import ServeProtocolError

__all__ = [
    "MAX_FRAME",
    "DTYPES",
    "MODES",
    "PIPELINES",
    "register_pipeline",
    "encode",
    "decode",
    "validate_execute",
    "error_response",
]

#: Upper bound on one NDJSON frame (request or response line).
MAX_FRAME = 32 * 1024 * 1024

#: Wire-accepted element dtypes.
DTYPES = {"uint32": np.uint32, "uint64": np.uint64}

#: Wire-accepted execution modes (per-request override).
MODES = ("auto", "strict", "fast")


# ---------------------------------------------------------------------------
# pipeline registry
# ---------------------------------------------------------------------------

def _pipe_chain_scan(lz, data):
    """Fused elementwise chain + plus-scan: the 2D fast-path showcase."""
    lz.p_add(data, 10)
    lz.p_mul(data, 3)
    lz.p_xor(data, 5)
    lz.plus_scan(data)
    return data


def _pipe_elementwise(lz, data):
    """Pure fused elementwise chain (no scan tail)."""
    lz.p_add(data, 1)
    lz.p_sll(data, 1)
    lz.p_or(data, 1)
    return data


def _pipe_scan(lz, data):
    """Bare inclusive plus-scan."""
    lz.plus_scan(data)
    return data


def _pipe_reverse(lz, data):
    """Derived permutation (index + rsub + back_permute): structured
    non-fused nodes on the 2D path."""
    return lz.reverse(data)


def _pipe_filter(lz, data):
    """Range filter via pack — flushes execute as one masked 2D
    evaluation on the ``"ragged"`` path, with pack's data-dependent
    charge corrected per row (counters stay loop-identical)."""
    lt_hi = lz.p_lt(data, 3 * 2**14)
    ge_lo = lz.p_ge(data, 2**14)
    lz.p_mul(ge_lo, lt_hi)
    out, _kept = lz.pack(data, ge_lo)
    lz.free(ge_lo)
    lz.free(lt_hi)
    return out


def _pipe_radix_pack(lz, data):
    """One radix pass (split by bit 0) feeding a range filter: the
    split's enumerate-count future and pack's kept future both thread
    through the ragged batch path."""
    flags = lz.get_flags(data, 0)
    part, _zeros = lz.split(data, flags)
    keep = lz.p_lt(part, 2**15)
    out, _kept = lz.pack(part, keep)
    lz.free(keep)
    lz.free(part)
    lz.free(flags)
    return out


PIPELINES: dict = {
    "chain_scan": _pipe_chain_scan,
    "elementwise": _pipe_elementwise,
    "scan": _pipe_scan,
    "reverse": _pipe_reverse,
    "filter": _pipe_filter,
    "radix_pack": _pipe_radix_pack,
}


def register_pipeline(name: str, pipe) -> None:
    """Register a served pipeline: ``pipe(lz, data)`` must return its
    output array (the :func:`repro.batch.run_batch` shape). Re-using a
    name is an error — a name means one plan family."""
    if name in PIPELINES:
        raise ValueError(f"pipeline {name!r} is already registered")
    PIPELINES[name] = pipe


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def encode(obj: dict) -> bytes:
    """One NDJSON frame (compact separators, trailing newline)."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode(line: bytes) -> dict:
    """Parse one request frame; every malformation is a
    :class:`~repro.errors.ServeProtocolError` (never a raw JSON or
    type error leaking into the server loop)."""
    if len(line) > MAX_FRAME:
        raise ServeProtocolError(
            f"frame of {len(line)} bytes exceeds limit {MAX_FRAME}"
        )
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServeProtocolError(f"bad JSON frame: {exc}") from None
    if not isinstance(obj, dict):
        raise ServeProtocolError(
            f"request must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def validate_execute(obj: dict) -> tuple[str, np.ndarray, str, str | None]:
    """Check an execute request's fields; returns
    ``(pipeline, data array, dtype name, mode or None)``."""
    pipeline = obj.get("pipeline")
    if pipeline not in PIPELINES:
        raise ServeProtocolError(
            f"unknown pipeline {pipeline!r}; registered: {sorted(PIPELINES)}"
        )
    dtype = obj.get("dtype", "uint32")
    if dtype not in DTYPES:
        raise ServeProtocolError(
            f"unsupported dtype {dtype!r}; supported: {sorted(DTYPES)}"
        )
    mode = obj.get("mode")
    if mode is not None and mode not in MODES:
        raise ServeProtocolError(
            f"unsupported mode {mode!r}; supported: {MODES}"
        )
    data = obj.get("data")
    if not isinstance(data, list) or not data:
        raise ServeProtocolError("'data' must be a non-empty JSON array")
    try:
        arr = np.asarray(data, dtype=DTYPES[dtype])
    except (ValueError, TypeError, OverflowError) as exc:
        raise ServeProtocolError(f"bad 'data' payload: {exc}") from None
    if arr.ndim != 1:
        raise ServeProtocolError(f"'data' must be 1-D, got shape {arr.shape}")
    return pipeline, arr, dtype, mode


_ERROR_CODES = {
    "ServeOverloadedError": "overloaded",
    "ServeProtocolError": "protocol",
    "ServeClosedError": "closed",
}


def error_response(req_id, exc: BaseException) -> dict:
    """The wire form of a failed request."""
    code = _ERROR_CODES.get(type(exc).__name__, "internal")
    return {"id": req_id, "ok": False, "error": str(exc), "code": code}
