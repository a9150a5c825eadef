"""Hierarchical profiling spans over the dynamic-instruction counters.

The paper's evaluation attributes dynamic instruction counts to
primitives and categories (Tables 1-7); this module generalizes that
into a reusable drill-down: a **span** is a named, nested region of
execution (algorithm → primitive → strip) that captures the
per-category :class:`~repro.rvv.counters.CounterSnapshot` delta, wall
time, and free-form metadata of everything that ran inside it.

Design constraints, in priority order:

1. **Zero cost when off.** No collector installed means instrumented
   code paths do a single attribute check and run the original code —
   no span objects, no snapshots, no counter events. The library's
   counters are *never* perturbed by profiling (spans only read them).
2. **Exact attribution.** Spans nest strictly and snapshots are taken
   on the shared counters, so a child's delta is always component-wise
   ≤ its parent's, and the parent's delta minus the sum of child
   deltas is the parent's own ("self") cost — non-negative in every
   category. The exporters surface that remainder as a synthetic
   ``(self)`` child, so rendered children always sum exactly.
3. **Both execution modes.** Instrumentation wraps the
   :class:`~repro.svm.context.SVM` dispatch layer, *above* the
   strict/fast split, so span deltas are identical across modes (the
   repo's strict-vs-fast counter equality, now per span).

Strip-level spans are opt-in (``strips=True``): the collector hooks
``vsetvl`` — the one instruction every strict strip-mined loop issues
per strip — and opens a leaf span per strip. They are exact but
allocate one span per strip; leave them off for large-n profiles.
"""

from __future__ import annotations

import functools
import time

from ..rvv.counters import Cat, CounterSnapshot

__all__ = [
    "Span",
    "SpanEvent",
    "ProfileCollector",
    "profile",
    "span",
    "instrument_method",
]


class Span:
    """One named region: children, counter delta, wall time, metadata.

    ``delta`` is None while the span is open; closed spans hold the
    inclusive per-category delta (children included). ``t0``/``wall``
    are seconds relative to the collector's origin. ``error`` records
    the exception type name if the region raised.
    """

    __slots__ = ("name", "meta", "children", "depth", "index", "strip",
                 "delta", "wall", "t0", "error", "end_total", "n_strips",
                 "_begin", "_strips_at_enter")

    def __init__(self, name: str, meta: dict, depth: int, index: int,
                 strip: bool = False) -> None:
        self.name = name
        self.meta = meta
        self.children: list[Span] = []
        self.depth = depth
        self.index = index
        self.strip = strip
        self.delta: CounterSnapshot | None = None
        self.wall: float = 0.0
        self.t0: float = 0.0
        self.error: str | None = None
        self.end_total: int = 0        # cumulative machine total at close
        self.n_strips: int = 0         # vsetvl strips observed inside
        self._begin: CounterSnapshot | None = None
        self._strips_at_enter: int = 0

    @property
    def total(self) -> int:
        """Inclusive dynamic-instruction total of the span."""
        return self.delta.total if self.delta is not None else 0

    def self_delta(self) -> CounterSnapshot:
        """The span's own cost: its delta minus all child deltas."""
        own = dict(self.delta.by_category)
        for child in self.children:
            if child.delta is None:
                continue
            for cat, n in child.delta.by_category.items():
                own[cat] = own.get(cat, 0) - n
        return CounterSnapshot(own)

    def walk(self):
        """Yield the span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def label(self) -> str:
        """``name(k=v, ...)`` display form."""
        if not self.meta:
            return self.name
        inner = ", ".join(f"{k}={v}" for k, v in self.meta.items())
        return f"{self.name}({inner})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"total={self.total}" if self.delta is not None else "open"
        return f"Span({self.label()}, {state}, {len(self.children)} children)"


class SpanEvent:
    """An instant event (plan-cache hit/miss, ...) on the timeline."""

    __slots__ = ("name", "ts", "meta")

    def __init__(self, name: str, ts: float, meta: dict) -> None:
        self.name = name
        self.ts = ts
        self.meta = meta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanEvent({self.name} @ {self.ts:.6f}s {self.meta})"


class _SpanContext:
    """Context manager driving one live span on a collector."""

    __slots__ = ("col", "span")

    def __init__(self, col: "ProfileCollector", name: str, meta: dict) -> None:
        self.col = col
        self.span = col._open(name, meta)

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.col._close(self.span, exc_type)
        return False


class _NullSpan:
    """Shared do-nothing context manager for the collector-off path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class ProfileCollector:
    """Builds the span tree and metrics for one machine.

    Install with ``machine.collector = ProfileCollector(machine)`` (or
    ``SVM(profile=True)``, which does exactly that). The collector
    owns an implicit root span covering its whole lifetime; call
    :meth:`finish` (idempotent) to close it before exporting —
    the exporters in :mod:`repro.obs.export` do so automatically.

    Parameters
    ----------
    machine:
        The :class:`~repro.rvv.machine.RVVMachine` whose counters the
        spans snapshot.
    strips:
        Record a leaf span per ``vsetvl`` strip (strict kernels only;
        one span object per strip — expensive for large n).
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(self, machine, *, strips: bool = False,
                 clock=time.perf_counter) -> None:
        self.machine = machine
        self.strips = bool(strips)
        self.clock = clock
        from .metrics import MetricsRegistry  # lightweight, no cycle

        self.metrics = MetricsRegistry()
        self.events: list[SpanEvent] = []
        self._origin = clock()
        self._index = 0
        self._strip_count = 0
        self._open_strip: Span | None = None
        self.root = self._new_span("profile", {}, depth=0)
        self._start(self.root)
        self._stack: list[Span] = [self.root]

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **meta) -> _SpanContext:
        """Open a nested span: ``with col.span("radix_sort", n=n): ...``"""
        return _SpanContext(self, name, meta)

    def _new_span(self, name: str, meta: dict, depth: int,
                  strip: bool = False) -> Span:
        s = Span(name, meta, depth, self._index, strip)
        self._index += 1
        return s

    def _start(self, s: Span) -> None:
        s.t0 = self.clock() - self._origin
        s._strips_at_enter = self._strip_count
        s._begin = self.machine.counters.snapshot()

    def _finish(self, s: Span) -> None:
        snap = self.machine.counters.snapshot()
        s.delta = snap - s._begin
        s.end_total = snap.total
        s.wall = (self.clock() - self._origin) - s.t0
        s.n_strips = self._strip_count - s._strips_at_enter

    def _open(self, name: str, meta: dict) -> Span:
        self._close_strip()
        parent = self._stack[-1]
        s = self._new_span(name, meta, depth=len(self._stack))
        parent.children.append(s)
        self._stack.append(s)
        self._start(s)
        return s

    def _close(self, s: Span, exc_type=None) -> None:
        self._close_strip()
        # unwind to s even if inner spans leaked (exception safety:
        # every ancestor context manager still closes its own span)
        while self._stack and self._stack[-1] is not s:
            leaked = self._stack.pop()
            if leaked.delta is None:
                self._finish(leaked)
        if self._stack and self._stack[-1] is s:
            self._stack.pop()
        self._finish(s)
        if exc_type is not None:
            s.error = exc_type.__name__
        if s.n_strips and not s.children:
            self.metrics.histogram("svm.strips_per_call").observe(s.n_strips)

    # ------------------------------------------------------------------
    # machine hooks
    # ------------------------------------------------------------------
    def on_vsetvl(self, vl: int) -> None:
        """Called by :meth:`RVVMachine.vsetvl` before the vsetvl is
        counted — each call marks a strip boundary."""
        self._strip_count += 1
        self.metrics.histogram("svm.strip_vl").observe(vl)
        if not self.strips:
            return
        self._close_strip()
        parent = self._stack[-1]
        i = sum(1 for c in parent.children if c.strip)
        s = self._new_span("strip", {"i": i, "vl": vl},
                           depth=len(self._stack), strip=True)
        parent.children.append(s)
        self._start(s)
        self._open_strip = s

    def _close_strip(self) -> None:
        s = self._open_strip
        if s is not None:
            self._finish(s)
            self._open_strip = None

    # ------------------------------------------------------------------
    # instant events
    # ------------------------------------------------------------------
    def event(self, name: str, **meta) -> None:
        """Record an instant event at the current timestamp."""
        self.events.append(SpanEvent(name, self.clock() - self._origin, meta))

    def plan_cache_event(self, hit: bool, cache, source: str = "memory") -> None:
        """Engine hook: one plan-cache lookup resolved (hit or miss).
        ``source`` says where a hit came from (``"memory"`` for the
        in-process LRU, ``"disk"`` for a native compile that bound its
        C artifact from ``<cache_dir>/native/`` without running
        ``cc``; misses report ``"none"``)."""
        self.event("plan_cache.hit" if hit else "plan_cache.miss",
                   size=len(cache), source=source)
        m = self.metrics
        m.counter("engine.plan_cache.hits" if hit
                  else "engine.plan_cache.misses").inc()
        if hit and source == "disk":
            m.counter("engine.plan_cache.disk_hits").inc()
        m.gauge("engine.plan_cache.size").set(len(cache))
        m.gauge("engine.plan_cache.evictions").set(cache.stats.evictions)
        m.gauge("engine.plan_cache.hit_rate").set(round(cache.stats.hit_rate, 4))

    def codegen_event(self, groups: int, seconds: float) -> None:
        """Engine hook: one plan compiled (fuse + codegen)
        on a cache miss; ``groups`` is how many fused groups got
        generated kernels."""
        ms = seconds * 1e3
        self.event("codegen.compile", groups=groups, ms=round(ms, 3))
        m = self.metrics
        m.counter("engine.codegen.plans_compiled").inc()
        if groups:
            m.counter("engine.codegen.groups_compiled").inc(groups)
        m.histogram("engine.codegen.compile_ms").observe(ms)

    def batch_event(self, rows: int, n: int, path: str) -> None:
        """Batch-runner hook: one length bucket dispatched (``path`` is
        ``"2d"`` for the matrix fast path, ``"ragged"`` for the masked
        pack variant, ``"loop"`` for the per-row fallback)."""
        self.event("batch.bucket", rows=rows, n=n, path=path)
        m = self.metrics
        m.histogram("batch.size").observe(rows)
        m.counter("batch.rows").inc(rows)
        m.counter(f"batch.buckets.{path}").inc()

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def finish(self) -> Span:
        """Close the root span (and any stragglers). Idempotent: a
        second call re-measures the root against the current counters,
        so a collector can be inspected mid-run and again later."""
        self._close_strip()
        while len(self._stack) > 1:
            leaked = self._stack.pop()
            if leaked.delta is None:
                self._finish(leaked)
        self._finish(self.root)
        total = self.root.delta.total
        spill = self.root.delta.by_category.get(Cat.SPILL, 0)
        self.metrics.gauge("counters.spill_share").set(
            round(spill / total, 4) if total else 0.0
        )
        return self.root

    # ------------------------------------------------------------------
    # report conveniences (delegate to repro.obs.export)
    # ------------------------------------------------------------------
    def report(self, max_depth: int | None = None) -> str:
        """The tree-formatted profile report plus the metrics block."""
        from . import export

        return export.render_tree(self, max_depth=max_depth) + "\n\n" + self.metrics.render()

    def to_json(self) -> dict:
        from . import export

        return export.to_json(self)

    def to_chrome_trace(self) -> dict:
        from . import export

        return export.to_chrome_trace(self)


def profile(machine, *, strips: bool = False):
    """Install a :class:`ProfileCollector` on ``machine`` for the
    duration of a ``with`` block and hand it back::

        with profile(svm.machine) as prof:
            split_radix_sort(svm, data)
        print(prof.report())

    Raises if a collector is already installed (spans would interleave
    between two owners).
    """
    return _ProfileContext(machine, strips)


class _ProfileContext:
    __slots__ = ("machine", "strips", "collector")

    def __init__(self, machine, strips: bool) -> None:
        self.machine = machine
        self.strips = strips
        self.collector = None

    def __enter__(self) -> ProfileCollector:
        if self.machine.collector is not None:
            raise RuntimeError("a profile collector is already installed")
        self.collector = ProfileCollector(self.machine, strips=self.strips)
        self.machine.collector = self.collector
        return self.collector

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.machine.collector = None
        self.collector.finish()
        return False


def span(machine, name: str, **meta):
    """Instrumentation-site helper: a real span when ``machine`` has a
    collector, the shared no-op context manager otherwise. This is the
    only call instrumented library code makes on the hot path."""
    col = machine.collector
    if col is None:
        return NULL_SPAN
    return col.span(name, **meta)


def instrument_method(fn, name: str | None = None):
    """Wrap an :class:`~repro.svm.context.SVM` method in a span named
    after it, recording ``n`` (from the leading array or int argument)
    and the resolved strict/fast path. With no collector installed the
    wrapper is a single attribute check plus the original call."""
    label = name or fn.__name__

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        col = self.machine.collector
        if col is None:
            return fn(self, *args, **kwargs)
        meta = {}
        if args:
            first = args[0]
            n = getattr(first, "n", None)
            if n is None and isinstance(first, int):
                n = first
            if n is not None:
                meta["n"] = n
                meta["path"] = "fast" if self._fast(n) else "strict"
        with col.span(label, **meta):
            return fn(self, *args, **kwargs)

    wrapper.__obs_instrumented__ = True
    return wrapper
