"""Plan cache: skip re-running the fusion passes for repeated pipelines.

The key is :meth:`repro.engine.ir.Plan.signature` — the α-renamed node
structure plus everything planning depends on (per-buffer length and
element width, per-node LMUL, VLEN, codegen preset). The cached value
is a :class:`~repro.engine.fuse.FusedPlan`, which stores only node
indices, so one cached entry replays against every α-equivalent plan
(same pipeline over fresh buffers or different constants).

Eviction is LRU with a bounded size: a serving process cycling through
many distinct pipelines stays bounded in memory, and the hot pipelines
stay resident.

Persistence
-----------
:class:`PlanStore` extends the in-memory cache across processes: fully
compiled entries (fused recipe + generated codegen source) are
pickled to one file per plan signature under a cache directory, so
``repro.parallel`` workers and repeat CLI invocations skip
capture/fuse/codegen entirely. The store is **opt-in**:
it activates only when ``REPRO_CACHE_DIR`` is set (or an explicit
``cache_dir=`` is passed to :class:`~repro.svm.context.SVM`); the
conventional location is ``~/.cache/repro``.

Safety over speed: every envelope carries a schema version and a code
fingerprint (a hash over the engine's own source files), and the load
path re-verifies the full key. *Any* mismatch, truncation, or unpickle
failure is a silent miss that falls back to recompilation — a stale or
corrupted cache can never produce wrong results.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..config import default_cache_dir as _config_cache_dir
from ..config import env_cache_dir

__all__ = [
    "PlanCache",
    "CacheStats",
    "DEFAULT_CAPACITY",
    "PlanStore",
    "SCHEMA_VERSION",
    "code_fingerprint",
    "default_cache_dir",
    "store_from_env",
]

DEFAULT_CAPACITY = 256

#: Bumped whenever the pickled envelope layout changes.
SCHEMA_VERSION = 1

#: Engine modules whose source participates in the code fingerprint —
#: any change to planning or code generation must invalidate every
#: persisted entry.
_FINGERPRINT_MODULES = ("ir", "fuse", "codegen", "native", "nodes",
                        "executor", "cache")

_fingerprint_cache: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over the engine's own source files plus the package
    version — the persisted-entry compatibility guard. Computed once
    per process."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        from .. import __version__

        h = hashlib.sha256(__version__.encode())
        here = Path(__file__).resolve().parent
        for mod in _FINGERPRINT_MODULES:
            h.update(mod.encode())
            h.update((here / f"{mod}.py").read_bytes())
        _fingerprint_cache = h.hexdigest()
    return _fingerprint_cache


def default_cache_dir() -> Path:
    """The conventional persistent-store location: ``REPRO_CACHE_DIR``
    if set, else ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``).
    Alias of :func:`repro.config.default_cache_dir` — the environment
    is read there, at call time."""
    return _config_cache_dir()


def store_from_env() -> "PlanStore | None":
    """A :class:`PlanStore` when ``REPRO_CACHE_DIR`` is set, else None.
    Persistence stays opt-in so library use never writes outside an
    explicitly designated directory."""
    root = env_cache_dir()
    return PlanStore(root) if root else None


class PlanStore:
    """Versioned one-file-per-plan on-disk store of compiled plans.

    File name: the SHA-256 of the full plan signature (``.plan``
    suffix). Envelope: ``{"schema", "code", "key", "fused"}`` —
    :meth:`load` verifies all three guards and the exact key before
    trusting the payload; every failure path returns None (a miss).
    Writes are atomic (temp file + rename) and best-effort: an
    unwritable directory degrades to no persistence, never to an error.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.write_errors = 0

    def _path(self, key: tuple) -> Path:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        return self.root / f"{digest}.plan"

    def load(self, key: tuple):
        """The stored fused plan for ``key``, or None. Corrupted,
        truncated, version-mismatched or fingerprint-mismatched entries
        are silent misses — the caller recompiles."""
        try:
            envelope = pickle.loads(self._path(key).read_bytes())
            if (
                envelope["schema"] != SCHEMA_VERSION
                or envelope["code"] != code_fingerprint()
                or envelope["key"] != key
            ):
                raise ValueError("stale or mismatched cache entry")
            fused = envelope["fused"]
        except Exception:
            self.misses += 1
            return None
        self.hits += 1
        return fused

    def save(self, key: tuple, fused) -> None:
        """Persist one compiled entry (atomic, best-effort)."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            blob = pickle.dumps({
                "schema": SCHEMA_VERSION,
                "code": code_fingerprint(),
                "key": key,
                "fused": fused,
            })
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except Exception:
            self.write_errors += 1

    def entries(self) -> list[Path]:
        """The resident entry files (empty for a missing directory)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.plan"))

    @property
    def native_dir(self) -> Path:
        """Where the native backend persists compiled artifacts (the
        ``<digest>.c`` source and ``<digest>.so`` shared object pairs,
        keyed by plan-source digest rather than plan signature)."""
        return self.root / "native"

    def native_artifacts(self) -> list[Path]:
        """The resident native build artifacts (sources and objects)."""
        if not self.native_dir.is_dir():
            return []
        return sorted(
            p for p in self.native_dir.iterdir()
            if p.suffix in (".c", ".so")
        )

    def _is_stale(self, path: Path) -> bool:
        """True when an entry file cannot be trusted by :meth:`load`:
        unreadable, truncated, schema-mismatched, or written by a
        different engine code fingerprint."""
        try:
            envelope = pickle.loads(path.read_bytes())
            return (
                envelope["schema"] != SCHEMA_VERSION
                or envelope["code"] != code_fingerprint()
            )
        except Exception:
            return True

    def prune(self) -> dict:
        """Evict every stale entry (wrong schema or code fingerprint,
        or unreadable) plus abandoned temp files; returns counts.

        Native artifacts are left alone: their file names embed a
        digest of the generated C source (including the native schema
        version), so a source-level change simply keys new files and
        the old pairs are unreachable — :meth:`clear` removes them.
        """
        removed = kept = 0
        for path in self.entries():
            if self._is_stale(path):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            else:
                kept += 1
        temps = 0
        if self.root.is_dir():
            for tmp in self.root.glob("*.tmp.*"):
                try:
                    tmp.unlink()
                    temps += 1
                except OSError:
                    pass
        return {"removed": removed, "kept": kept, "temps": temps}

    def clear(self) -> int:
        """Delete every entry file and native artifact; returns how
        many files were removed."""
        removed = 0
        for path in self.entries() + self.native_artifacts():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats_dict(self, *, scan: bool = False) -> dict:
        """Store statistics; ``scan=True`` additionally unpickles every
        entry to count stale ones (CLI-grade — too slow for a serving
        stats endpoint polled per scrape)."""
        entries = self.entries()
        artifacts = self.native_artifacts()
        stale = (sum(1 for p in entries if self._is_stale(p))
                 if scan else None)
        return {
            "dir": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "stale": stale,
            "native_artifacts": len(artifacts),
            "native_bytes": sum(p.stat().st_size for p in artifacts),
            "hits": self.hits,
            "misses": self.misses,
            "write_errors": self.write_errors,
            "schema": SCHEMA_VERSION,
            "code": code_fingerprint()[:12],
        }


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`PlanCache`.

    ``hits`` counts in-memory hits only; ``disk_hits`` counts misses
    that the persistent :class:`PlanStore` then satisfied (the engine
    reports them via :meth:`PlanCache.note_disk_hit`), so
    ``misses - disk_hits`` is the true compile count. Serving stats
    surface all three tiers separately — a warm disk cache and a cold
    everything look identical under plain hit/miss counts.
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
        """Record that the miss just counted by :meth:`get` was
        satisfied from the persistent store rather than compiled."""
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
