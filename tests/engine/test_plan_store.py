"""Persistent plan store: warm cold-starts skip compilation entirely,
and the schema/fingerprint/key guards make stale or corrupted cache
state a silent miss — never a wrong result."""

from __future__ import annotations

import pickle

import numpy as np

from repro import SVM
from repro.cli import main
from repro.engine.cache import (
    SCHEMA_VERSION,
    PlanStore,
    code_fingerprint,
    default_cache_dir,
    store_from_env,
)
from repro.rvv.types import LMUL

from .conftest import PIPELINES, make_data

N = 600


def _run(cache_dir=None, *, profile=False, seed=0):
    svm = SVM(vlen=256, codegen="paper", mode="fast", backend="codegen",
              cache_dir=str(cache_dir) if cache_dir else None,
              profile=profile)
    data = make_data(svm, N, seed)
    svm.reset()
    with svm.lazy() as lz:
        PIPELINES["chain_scan"](lz, data, LMUL.M1)
    return data.to_numpy(), svm


def _span_names(doc, out=None):
    out = set() if out is None else out
    def walk(span):
        out.add(span["name"])
        for child in span.get("children", ()):
            walk(child)
    walk(doc["profile"])
    return out


def test_warm_start_skips_compile(tmp_path):
    ref, svm1 = _run(tmp_path)
    assert len(svm1.engine.store.entries()) == 1

    # fresh process-equivalent: new SVM, new engine, empty memory LRU —
    # the only shared state is the on-disk store
    got, svm2 = _run(tmp_path, profile=True)
    assert np.array_equal(got, ref)
    col = svm2.profiler
    col.finish()
    doc = col.to_json()
    # capture happened, but fuse/codegen did not
    assert "plan.compile" not in _span_names(doc)
    hits = [e for e in doc["events"] if e["name"] == "plan_cache.hit"]
    assert hits and hits[0]["meta"]["source"] == "disk"
    assert doc["metrics"]["engine.plan_cache.disk_hits"] == 1
    assert not any(e["name"] == "codegen.compile" for e in doc["events"])


def test_cold_compile_emits_spans(tmp_path):
    _, svm = _run(tmp_path, profile=True)
    col = svm.profiler
    col.finish()
    doc = col.to_json()
    assert "plan.compile" in _span_names(doc)
    assert any(e["name"] == "codegen.compile" for e in doc["events"])
    assert doc["metrics"]["engine.codegen.plans_compiled"] == 1


def test_corrupted_entry_recompiles(tmp_path):
    ref, svm1 = _run(tmp_path)
    entry = svm1.engine.store.entries()[0]
    entry.write_bytes(b"not a pickle")
    got, svm2 = _run(tmp_path)
    assert np.array_equal(got, ref)
    assert svm2.engine.store.misses == 1
    # the recompiled entry was re-persisted and is valid again
    got3, svm3 = _run(tmp_path)
    assert np.array_equal(got3, ref)
    assert svm3.engine.store.hits == 1


def test_schema_and_fingerprint_mismatch_are_misses(tmp_path):
    ref, svm1 = _run(tmp_path)
    entry = svm1.engine.store.entries()[0]
    envelope = pickle.loads(entry.read_bytes())

    envelope["schema"] = SCHEMA_VERSION + 1
    entry.write_bytes(pickle.dumps(envelope))
    got, svm2 = _run(tmp_path)
    assert np.array_equal(got, ref)
    assert svm2.engine.store.misses == 1

    envelope["schema"] = SCHEMA_VERSION
    envelope["code"] = "0" * 64  # a different engine build wrote this
    entry.write_bytes(pickle.dumps(envelope))
    got, svm3 = _run(tmp_path)
    assert np.array_equal(got, ref)
    assert svm3.engine.store.misses == 1


def test_store_guards_unit(tmp_path):
    store = PlanStore(tmp_path)
    key = ("sig", 1, 2)
    store.save(key, {"payload": 42})
    assert store.load(key) == {"payload": 42}
    assert store.load(("other", 0, 0)) is None  # absent file
    assert store.misses == 1
    assert store.stats_dict()["entries"] == 1
    assert store.clear() == 1
    assert store.entries() == []


def test_store_from_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert store_from_env() is None
    svm = SVM(vlen=256, codegen="paper")
    assert svm.engine.store is None  # persistence is opt-in

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert store_from_env().root == tmp_path
    assert default_cache_dir() == tmp_path
    ref, svm1 = _run()  # no explicit cache_dir: picked up from the env
    assert svm1.engine.store is not None
    assert len(svm1.engine.store.entries()) == 1


def test_cache_cli_stats_and_clear(tmp_path, capsys):
    _run(tmp_path)
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries: 1" in out
    assert code_fingerprint()[:12] in out

    assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
    assert "removed 1 cached file(s)" in capsys.readouterr().out
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    assert "entries: 0" in capsys.readouterr().out


def test_cache_cli_reports_disabled(monkeypatch, capsys, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # keep $HOME clean
    assert main(["cache", "stats"]) == 0
    assert "persistence is disabled" in capsys.readouterr().out
