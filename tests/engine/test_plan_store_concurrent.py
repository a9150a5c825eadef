"""Two processes sharing one ``cache_dir`` must not corrupt the native
artifact cache.

The serving daemon makes this the normal case: a warm daemon and
ad-hoc CLI runs (or two daemons) race on one directory. Each build
compiles a per-pid temporary source into a per-pid temporary object
and renames both into place, so concurrent builders of one digest
never hand ``cc`` a partial ``.c`` or bind a partial ``.so``: both
run natively, and the directory settles on exactly one artifact pair.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess

import numpy as np
import pytest

from repro import SVM
from repro.engine import native as native_mod
from repro.engine.native import artifacts, native_available, reset_native_caches

N = 700

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this host"
)


def _pipeline(svm):
    data = svm.array(np.arange(1, N + 1, dtype=np.uint32) * 2654435761)
    svm.reset()
    with svm.lazy() as lz:
        lz.p_add(data, 10)
        lz.p_mul(data, 3)
        lz.plus_scan(data)
    counts = {c.value: k for c, k in
              svm.machine.counters.snapshot().by_category.items() if k}
    return data.to_numpy().tolist(), counts


def _worker(cache_dir: str, barrier, out_q) -> None:
    """One process: build (or bind) the pipeline's artifact at the same
    moment as its sibling, then run it natively twice."""
    try:
        svm = SVM(vlen=256, codegen="paper", mode="fast", backend="native",
                  cache_dir=cache_dir)
        barrier.wait(timeout=120)
        runs = [_pipeline(svm) for _ in range(2)]  # run 2 is the C kernel
        native = svm.engine.last_fused.native
        bound = getattr(native, "_fn", None) is not None
        out_q.put(("ok", runs, bound))
    except BaseException as exc:  # noqa: BLE001 - ship it to the parent
        out_q.put(("error", repr(exc), False))


def test_concurrent_writers_of_same_key_settle_on_one_entry(tmp_path):
    cache_dir = str(tmp_path / "cache")
    ctx = mp.get_context("spawn")  # a real second interpreter
    out_q = ctx.Queue()
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_worker, args=(cache_dir, barrier, out_q))
             for _ in range(2)]
    for p in procs:
        p.start()
    outcomes = [out_q.get(timeout=600) for _ in procs]
    for p in procs:
        p.join(timeout=600)
        assert p.exitcode == 0

    assert all(status == "ok" for status, _, _ in outcomes), outcomes
    assert all(bound for _, _, bound in outcomes), "a process fell back"
    ref = _pipeline(SVM(vlen=256, codegen="paper", mode="fast",
                        backend="codegen"))
    for _, runs, _ in outcomes:
        assert runs == [ref, ref]  # bits and per-category counters
    assert sorted(p.suffix for p in artifacts(cache_dir)) == [".c", ".so"]
    assert artifacts(cache_dir, temps=True) == []


def test_build_compiles_a_private_source(tmp_path, monkeypatch):
    """``cc`` never reads the shared ``<digest>.c``: it compiles this
    process's temporary copy, and the final pair appears only after."""
    seen = []
    run = subprocess.run

    def spy(cmd, **kwargs):
        src = cmd[-1]
        final = os.path.join(os.path.dirname(src),
                             os.path.basename(src).split(".")[0] + ".c")
        seen.append((os.path.basename(src), os.path.exists(final)))
        return run(cmd, **kwargs)

    reset_native_caches()
    monkeypatch.setattr(native_mod.subprocess, "run", spy)
    svm = SVM(vlen=256, codegen="paper", mode="fast", backend="native",
              cache_dir=str(tmp_path))
    _pipeline(svm)
    monkeypatch.undo()
    assert seen == [(seen[0][0], False)]
    assert seen[0][0].endswith(f".tmp{os.getpid()}.c")
    assert sorted(p.suffix for p in artifacts(tmp_path)) == [".c", ".so"]
