"""Plan cache: skip re-running the fusion passes for repeated pipelines.

The key is :meth:`repro.engine.ir.Plan.signature` — the α-renamed node
structure plus everything planning depends on (per-buffer length and
element width, per-node LMUL, VLEN, codegen preset). It is recorded at
capture (:class:`~repro.engine.capture.PlanBuilder` builds each node's
key tuple as it records), so a lookup costs no walk over the plan; a
tuning retag of the plan's LMUL invalidates the record (see
:meth:`~repro.engine.ir.Plan.invalidate`). The cached value
is a :class:`~repro.engine.fuse.FusedPlan`, which stores only node
indices, so one cached entry replays against every α-equivalent plan
(same pipeline over fresh buffers or different constants).

Eviction is LRU with a bounded size: a serving process cycling through
many distinct pipelines stays bounded in memory, and the hot pipelines
stay resident.

Nothing here persists: the only on-disk state the engine keeps is the
native tier's compiled C artifacts (see :func:`repro.engine.native.
artifact_dir`), the one product that is slow to rebuild.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["PlanCache", "CacheStats", "DEFAULT_CAPACITY"]

DEFAULT_CAPACITY = 256


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`PlanCache`.

    ``hits`` counts in-memory hits only; ``disk_hits`` counts misses
    whose native C artifact came from ``<cache_dir>/native/`` without
    running ``cc`` (the engine reports them via
    :meth:`PlanCache.note_disk_hit`), so ``misses - disk_hits`` is the
    count of full compiles and ``hits + disk_hits + compiles ==
    lookups``. Serving stats surface all three tiers separately — a
    warm artifact cache and a cold everything look identical under
    plain hit/miss counts.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def compiles(self) -> int:
        return self.misses - self.disk_hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """A bounded LRU map from plan signatures to fused plans.

    Thread-safe: the serving daemon shares one warm cache across its
    worker pool (each worker owns a machine, but compiled plans are
    immutable once inserted), so ``get``/``put`` take a lock around the
    LRU reordering — cheap next to a plan compile, and it keeps the
    hit/miss/eviction statistics exact under concurrency.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: tuple):
        """The cached fused plan for ``key``, or None (counted as a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: tuple, fused) -> None:
        with self._lock:
            self._entries[key] = fused
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def note_disk_hit(self) -> None:
        """Record that the miss just counted by :meth:`get` bound its
        native C artifact from disk rather than running ``cc``."""
        with self._lock:
            self.stats.disk_hits += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def size(self) -> int:
        """Number of resident entries (≤ ``capacity``)."""
        return len(self._entries)

    def stats_dict(self) -> dict:
        """Cache statistics as a plain dict — the shape ``repro fuse``
        prints and the profiler exports."""
        return {
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "evictions": self.stats.evictions,
            "disk_hits": self.stats.disk_hits,
            "compiles": self.stats.compiles,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.stats.hit_rate,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries
