"""TuningDB — the versioned persistent store of fitted tuning policies.

Lives in the cache directory next to the native tier's C artifacts
(``<root>/tune/``), one JSON file per plan
fingerprint (:meth:`repro.engine.ir.Plan.fingerprint` — the pipeline's
structure with the tuning axes stripped). JSON rather than pickle: the
payload is pure data (chosen configs + the measurements behind them),
and ``repro tune show`` should be able to print what any other process
wrote without trusting executable bytes.

Envelope per file::

    {"schema": 1, "code": "<engine code fingerprint>",
     "fingerprint": "<plan fingerprint>",
     "entries": {"<vlen>:<codegen>:<bucket>": {
         "lmul": 4, "instructions": 112608, "n": 3000,
         "config": {... ExecConfig.as_dict() ...}}},
     "meta": {...}}

Safety: every load re-verifies the schema version, the engine code
fingerprint (:func:`engine_fingerprint`), and the file's own plan
fingerprint; *any* mismatch, truncation, or parse failure is a silent
miss (the policy simply has no opinion), writes are atomic (temp file
+ rename) and best-effort, and :meth:`prune` evicts entries a load
would reject. A stale or corrupted DB can therefore never change
results — at worst a plan runs at the untuned default config.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = ["TuningDB", "TUNE_SCHEMA_VERSION", "entry_key",
           "engine_fingerprint"]

#: Bumped whenever the JSON envelope layout changes.
TUNE_SCHEMA_VERSION = 1

#: Engine modules whose source participates in the fingerprint: any
#: change to planning or code generation may change the measured
#: instruction counts behind every persisted entry.
_FINGERPRINT_MODULES = ("ir", "fuse", "codegen", "native", "nodes",
                        "executor")

_fingerprint_cache: str | None = None


def engine_fingerprint() -> str:
    """SHA-256 over the engine's own source files plus the package
    version — the persisted-entry compatibility guard. Computed once
    per process."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        from .. import __version__

        h = hashlib.sha256(__version__.encode())
        engine = Path(__file__).resolve().parent.parent / "engine"
        for mod in _FINGERPRINT_MODULES:
            h.update(mod.encode())
            h.update((engine / f"{mod}.py").read_bytes())
        _fingerprint_cache = h.hexdigest()
    return _fingerprint_cache

_FINGERPRINT_RE_HEX = frozenset("0123456789abcdef")


def entry_key(vlen: int, codegen: str, bucket: int) -> str:
    """The per-measurement key inside one fingerprint's entry table:
    the non-swept context (``vlen``, codegen preset) plus the size
    bucket (:func:`repro.tune.policy.n_bucket`)."""
    return f"{int(vlen)}:{codegen}:{int(bucket)}"


def _safe_name(fingerprint: str) -> str:
    """A filesystem-safe file stem for ``fingerprint`` (already a hex
    digest in practice; hashed defensively otherwise)."""
    if fingerprint and set(fingerprint) <= _FINGERPRINT_RE_HEX:
        return fingerprint
    return hashlib.sha256(fingerprint.encode()).hexdigest()


class TuningDB:
    """One-file-per-fingerprint JSON store of fitted tuning entries.

    ``root`` is the *cache* directory; tuning files live in its
    ``tune/`` subdirectory, next to the native artifacts, so ``repro
    cache`` can report and manage both side by side.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.write_errors = 0

    @property
    def tune_dir(self) -> Path:
        return self.root / "tune"

    def _path(self, fingerprint: str) -> Path:
        return self.tune_dir / f"{_safe_name(fingerprint)}.tune"

    # ------------------------------------------------------------------
    # load / save
    # ------------------------------------------------------------------
    def load(self, fingerprint: str) -> dict:
        """The entry table for ``fingerprint`` (``entry_key`` →
        record), or ``{}``. Corrupted, truncated, version-mismatched or
        fingerprint-mismatched files are silent misses."""
        try:
            envelope = json.loads(self._path(fingerprint).read_text())
            if (
                envelope["schema"] != TUNE_SCHEMA_VERSION
                or envelope["code"] != engine_fingerprint()
                or envelope["fingerprint"] != fingerprint
            ):
                raise ValueError("stale or mismatched tuning entry")
            entries = envelope["entries"]
            if not isinstance(entries, dict):
                raise ValueError("malformed entry table")
        except Exception:
            self.misses += 1
            return {}
        self.hits += 1
        return entries

    def save(self, fingerprint: str, entries: dict, meta: dict | None = None,
             *, merge: bool = True) -> None:
        """Persist the entry table for one fingerprint (atomic,
        best-effort). With ``merge=True`` (default) existing entries
        for other keys are kept — concurrent sweeps over different
        grids accumulate rather than clobber."""
        try:
            if merge:
                merged = self.load(fingerprint)
                merged.update(entries)
                entries = merged
            self.tune_dir.mkdir(parents=True, exist_ok=True)
            path = self._path(fingerprint)
            blob = json.dumps({
                "schema": TUNE_SCHEMA_VERSION,
                "code": engine_fingerprint(),
                "fingerprint": fingerprint,
                "entries": entries,
                "meta": meta or {},
            }, indent=1, sort_keys=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(blob)
            os.replace(tmp, path)
        except Exception:
            self.write_errors += 1

    # ------------------------------------------------------------------
    # maintenance (the `repro cache` / `repro tune` surface)
    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """The resident tuning files (empty for a missing directory)."""
        if not self.tune_dir.is_dir():
            return []
        return sorted(self.tune_dir.glob("*.tune"))

    def fingerprints(self) -> list[str]:
        """The fingerprints with a resident (not necessarily fresh)
        tuning file."""
        return [p.stem for p in self.entries()]

    def _is_stale(self, path: Path) -> bool:
        """True when a load would reject this file: unreadable,
        truncated, schema-mismatched, or written by a different engine
        code fingerprint."""
        try:
            envelope = json.loads(path.read_text())
            return (
                envelope["schema"] != TUNE_SCHEMA_VERSION
                or envelope["code"] != engine_fingerprint()
            )
        except Exception:
            return True

    def prune(self) -> dict:
        """Evict every stale tuning file plus abandoned temp files;
        returns counts."""
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
        if self.tune_dir.is_dir():
            for tmp in self.tune_dir.glob("*.tmp.*"):
                try:
                    tmp.unlink()
                    temps += 1
                except OSError:
                    pass
        return {"removed": removed, "kept": kept, "temps": temps}

    def clear(self) -> int:
        """Delete every tuning file; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats_dict(self, *, scan: bool = False) -> dict:
        """Store statistics in the ``repro cache stats`` shape;
        ``scan=True`` additionally parses every file to count stale
        ones."""
        entries = self.entries()
        stale = (sum(1 for p in entries if self._is_stale(p))
                 if scan else None)
        return {
            "dir": str(self.tune_dir),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "stale": stale,
            "hits": self.hits,
            "misses": self.misses,
            "write_errors": self.write_errors,
            "schema": TUNE_SCHEMA_VERSION,
            "code": engine_fingerprint()[:12],
        }
