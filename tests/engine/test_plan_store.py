"""The persistent cache directory: the native tier's content-addressed
C artifacts and the ``repro cache`` surface over them and the tuning
DB.

Only what is slow to rebuild persists. A fresh native process over a
warm ``cache_dir`` binds the ``<digest>.so`` it finds and runs no
``cc`` (the ``disk`` resolution); an artifact that fails to load is a
miss that is rebuilt in place, never a reason to give up on the tier.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import SVM
from repro.cli import main
from repro.config import default_cache_dir
from repro.engine.native import (
    NativePlan,
    artifacts,
    lower_plan,
    native_available,
    reset_native_caches,
)
from repro.rvv.types import LMUL
from repro.tune.db import TuningDB, entry_key

from .conftest import PIPELINES, make_data

N = 600

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this host"
)


def _run(cache_dir=None, *, backend="native", profile=False, seed=0):
    svm = SVM(vlen=256, codegen="paper", mode="fast", backend=backend,
              cache_dir=str(cache_dir) if cache_dir else None,
              profile=profile)
    data = make_data(svm, N, seed)
    svm.reset()
    with svm.lazy() as lz:
        PIPELINES["chain_scan"](lz, data, LMUL.M1)
    counts = {c: k for c, k in
              svm.machine.counters.snapshot().by_category.items() if k}
    return data.to_numpy(), counts, svm


def _write_tuning_entry(root, fingerprint, code=None):
    db = TuningDB(root)
    db.save(fingerprint, {entry_key(256, "paper", 9): {"lmul": 2}})
    if code is not None:
        path = db.entries()[-1]
        doc = json.loads(path.read_text())
        doc["code"] = code
        path.write_text(json.dumps(doc))


@needs_cc
def test_warm_start_skips_compile(tmp_path):
    reset_native_caches()
    ref, ref_counts, _ = _run(tmp_path)
    # a fresh process over the warm directory: no in-memory plan, no
    # bound library — only the artifacts on disk are shared
    reset_native_caches()
    got, counts, svm = _run(tmp_path, profile=True)
    assert np.array_equal(got, ref) and counts == ref_counts
    assert svm.engine.resolutions == {"memory": 0, "disk": 1, "compile": 0}
    col = svm.profiler
    col.finish()
    doc = col.to_json()
    hits = [e for e in doc["events"] if e["name"] == "plan_cache.hit"]
    assert hits and hits[0]["meta"]["source"] == "disk"
    assert doc["metrics"]["engine.plan_cache.disk_hits"] == 1


@needs_cc
def test_corrupted_entry_recompiles(tmp_path):
    """An unloadable ``.so`` under the digest's name is rebuilt and
    replaced; the plan still runs natively, identical to codegen."""
    ref, ref_counts, svm = _run(tmp_path, backend="codegen")
    digest = lower_plan(svm.engine.last_plan, svm.engine.last_fused).digest
    native_dir = tmp_path / "native"
    native_dir.mkdir()
    so = native_dir / f"{digest}.so"
    garbage = native_dir / "garbage"
    garbage.write_bytes(b"not an ELF object")
    os.replace(garbage, so)  # never write over a mapped .so in place
    reset_native_caches()

    for _ in range(2):  # the second run executes the C kernel
        got, counts, svm = _run(tmp_path)
        assert np.array_equal(got, ref) and counts == ref_counts
        native = svm.engine.last_fused.native
        assert isinstance(native, NativePlan) and native._fn is not None
    assert native.digest == digest
    assert so.read_bytes() != b"not an ELF object"
    assert [p.name for p in artifacts(tmp_path)] == [f"{digest}.c",
                                                     f"{digest}.so"]
    assert artifacts(tmp_path, temps=True) == []


@needs_cc
def test_cache_dir_from_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    svm = SVM(vlen=256, codegen="paper", backend="native")
    assert svm.cache_dir is None
    assert svm.engine.artifact_dir is None  # persistence is opt-in

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert default_cache_dir() == tmp_path
    _, _, svm1 = _run()  # no explicit cache_dir: picked up from the env
    assert svm1.engine.artifact_dir == tmp_path / "native"
    assert sorted(p.suffix for p in artifacts(tmp_path)) == [".c", ".so"]


@needs_cc
def test_cache_cli_stats_and_clear(tmp_path, capsys):
    _run(tmp_path)
    _write_tuning_entry(tmp_path, "ab" * 32)
    (tmp_path / f"{'0' * 64}.plan").write_bytes(b"left by an old version")
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "native artifacts: 2" in out
    assert "tuning entries: 1" in out

    assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
    assert "removed 4 cached file(s)" in capsys.readouterr().out
    assert list(tmp_path.glob("*.plan")) == []
    assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "native artifacts: 0" in out and "tuning entries: 0" in out


def test_cache_cli_prune(tmp_path, capsys):
    native_dir = tmp_path / "native"
    native_dir.mkdir()
    for name in ("d1.c", "d1.so", "d2.tmp41.c", "d2.tmp41.so"):
        (native_dir / name).write_text("x")
    _write_tuning_entry(tmp_path, "ab" * 32)
    _write_tuning_entry(tmp_path, "cd" * 32, code="0" * 64)
    assert main(["cache", "prune", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "pruned 2 abandoned native build file(s)" in out
    assert "pruned 1 stale tuning entr(ies)" in out
    assert [p.name for p in artifacts(tmp_path)] == ["d1.c", "d1.so"]
    assert len(TuningDB(tmp_path).entries()) == 1


def test_cache_cli_reports_disabled(monkeypatch, capsys, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # keep $HOME clean
    assert main(["cache", "stats"]) == 0
    assert "persistence is disabled" in capsys.readouterr().out
