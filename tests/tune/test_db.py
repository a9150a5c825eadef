"""TuningDB persistence: envelope verification, atomicity, maintenance.

Every load re-verifies schema + engine code fingerprint + the file's
own plan fingerprint, any mismatch or corruption is a silent miss, and
prune evicts exactly what a load would reject. A poisoned tuning DB
must never raise into the dispatch path — at worst a plan runs at the
untuned default.
"""

from __future__ import annotations

import json

from repro.tune import TUNE_SCHEMA_VERSION, TuningDB
from repro.tune.db import engine_fingerprint, entry_key

FP = "ab" * 32  # a plausible sha256 hex fingerprint
ENTRIES = {entry_key(128, "paper", 10): {"lmul": 4, "instructions": 112,
                                         "n": 1000, "config": {}}}


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        db = TuningDB(tmp_path)
        db.save(FP, ENTRIES)
        assert db.load(FP) == ENTRIES
        assert db.hits >= 1 and db.write_errors == 0

    def test_file_layout(self, tmp_path):
        db = TuningDB(tmp_path)
        db.save(FP, ENTRIES)
        path = tmp_path / "tune" / f"{FP}.tune"
        assert path.is_file()
        envelope = json.loads(path.read_text())      # human-inspectable
        assert envelope["schema"] == TUNE_SCHEMA_VERSION
        assert envelope["code"] == engine_fingerprint()
        assert envelope["fingerprint"] == FP
        assert envelope["entries"] == ENTRIES

    def test_missing_is_silent_miss(self, tmp_path):
        db = TuningDB(tmp_path)
        assert db.load(FP) == {}
        assert db.misses == 1

    def test_merge_accumulates(self, tmp_path):
        db = TuningDB(tmp_path)
        db.save(FP, {entry_key(128, "paper", 7): {"lmul": 1, "instructions": 5}})
        db.save(FP, {entry_key(128, "paper", 12): {"lmul": 8, "instructions": 9}})
        assert len(db.load(FP)) == 2

    def test_merge_false_clobbers(self, tmp_path):
        db = TuningDB(tmp_path)
        db.save(FP, {entry_key(128, "paper", 7): {"lmul": 1}})
        db.save(FP, ENTRIES, merge=False)
        assert db.load(FP) == ENTRIES

    def test_nonhex_fingerprint_is_hashed_to_safe_name(self, tmp_path):
        db = TuningDB(tmp_path)
        evil = "../../escape"
        db.save(evil, ENTRIES)
        assert db.load(evil) == ENTRIES
        assert all(p.parent == db.tune_dir for p in db.entries())


class TestGuards:
    def _poison(self, tmp_path, mutate):
        db = TuningDB(tmp_path)
        db.save(FP, ENTRIES)
        path = db._path(FP)
        envelope = json.loads(path.read_text())
        mutate(envelope)
        path.write_text(json.dumps(envelope))
        return TuningDB(tmp_path)  # fresh counters

    def test_schema_mismatch_is_miss(self, tmp_path):
        db = self._poison(tmp_path, lambda e: e.update(schema=999))
        assert db.load(FP) == {} and db.misses == 1

    def test_engine_fingerprint_mismatch_is_miss(self, tmp_path):
        db = self._poison(tmp_path, lambda e: e.update(code="stale"))
        assert db.load(FP) == {}

    def test_fingerprint_mismatch_is_miss(self, tmp_path):
        db = self._poison(tmp_path, lambda e: e.update(fingerprint="cd" * 32))
        assert db.load(FP) == {}

    def test_truncated_file_is_miss(self, tmp_path):
        db = TuningDB(tmp_path)
        db.save(FP, ENTRIES)
        path = db._path(FP)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert TuningDB(tmp_path).load(FP) == {}

    def test_non_dict_entries_is_miss(self, tmp_path):
        db = self._poison(tmp_path, lambda e: e.update(entries=[1, 2]))
        assert db.load(FP) == {}

    def test_unwritable_root_is_counted_not_raised(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        db = TuningDB(blocker)        # tune/ cannot be created under a file
        db.save(FP, ENTRIES)          # must not raise
        assert db.write_errors == 1


class TestMaintenance:
    def test_entries_and_fingerprints(self, tmp_path):
        db = TuningDB(tmp_path)
        assert db.entries() == []     # missing directory: no error
        db.save(FP, ENTRIES)
        assert db.fingerprints() == [FP]

    def test_prune_evicts_stale_and_temps(self, tmp_path):
        db = TuningDB(tmp_path)
        db.save(FP, ENTRIES)
        stale = db.tune_dir / ("cd" * 32 + ".tune")
        stale.write_text(json.dumps({"schema": 0, "code": "old",
                                     "fingerprint": "x", "entries": {}}))
        (db.tune_dir / "junk.tmp.123").write_text("partial")
        counts = db.prune()
        assert counts == {"removed": 1, "kept": 1, "temps": 1}
        assert db.load(FP) == ENTRIES  # fresh entry survived

    def test_clear(self, tmp_path):
        db = TuningDB(tmp_path)
        db.save(FP, ENTRIES)
        db.save("cd" * 32, ENTRIES)
        assert db.clear() == 2
        assert db.entries() == []

    def test_stats_dict(self, tmp_path):
        db = TuningDB(tmp_path)
        db.save(FP, ENTRIES)
        stats = db.stats_dict(scan=True)
        assert stats["entries"] == 1
        assert stats["stale"] == 0
        assert stats["bytes"] > 0
        assert stats["schema"] == TUNE_SCHEMA_VERSION
        assert stats["code"] == engine_fingerprint()[:12]
