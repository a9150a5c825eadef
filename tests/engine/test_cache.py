"""Plan-cache behavior: hits, misses, LRU eviction, and correctness of
replaying a cached fusion recipe against fresh buffers."""

from __future__ import annotations

import numpy as np

from repro import SVM
from repro.engine import PlanCache
from repro.rvv.counters import Cat
from repro.rvv.types import LMUL

from .conftest import make_data, pipe_chain_scan, run_eager


def run_pipeline(svm, n, scalar=3, seed=0):
    data = make_data(svm, n, seed)
    with svm.lazy() as lz:
        lz.p_add(data, 10)
        lz.p_mul(data, scalar)
        lz.p_xor(data, 5)
        lz.plus_scan(data)
    return data.to_numpy()


class TestEngineCache:
    def test_repeat_pipeline_hits(self):
        svm = SVM(vlen=128)
        run_pipeline(svm, 100)
        stats = svm.engine.cache.stats
        assert (stats.hits, stats.misses) == (0, 1)
        run_pipeline(svm, 100, scalar=99, seed=1)  # α-equivalent
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5
        assert len(svm.engine.cache) == 1

    def test_different_shape_misses(self):
        svm = SVM(vlen=128)
        run_pipeline(svm, 100)
        run_pipeline(svm, 200)
        assert (svm.engine.cache.stats.hits, svm.engine.cache.stats.misses) == (0, 2)

    def test_cached_replay_is_correct_and_cheap(self):
        """A cache hit must replay with the exact fused counters and
        bit-identical results on fresh data."""
        svm = SVM(vlen=128)
        run_pipeline(svm, 100)

        svm.reset()
        got = run_pipeline(svm, 100, seed=7)
        hit = svm.machine.counters.snapshot()
        assert svm.engine.cache.stats.hits == 1

        eager, ref = run_eager(pipe_chain_scan, 100, seed=7)
        assert np.array_equal(got, ref)
        for cat in Cat:
            assert hit.by_category.get(cat, 0) <= eager.by_category.get(cat, 0)

    def test_fuse_false_bypasses_cache(self):
        svm = SVM(vlen=128)
        data = make_data(svm, 64)
        with svm.lazy(fuse=False) as lz:
            lz.p_add(data, 1)
            lz.plus_scan(data)
        stats = svm.engine.cache.stats
        assert (stats.hits, stats.misses) == (0, 0)


class TestPlanCacheLRU:
    def test_eviction_and_order(self):
        cache = PlanCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # touch: "b" is now oldest
        cache.put(("c",), 3)
        assert ("b",) not in cache and ("a",) in cache and ("c",) in cache
        assert cache.stats.evictions == 1

    def test_miss_counted(self):
        cache = PlanCache(capacity=2)
        assert cache.get(("nope",)) is None
        assert cache.stats.misses == 1 and cache.stats.hit_rate == 0.0

    def test_clear(self):
        cache = PlanCache(capacity=2)
        cache.put(("a",), 1)
        cache.clear()
        assert len(cache) == 0 and ("a",) not in cache


def test_cold_compile_emits_spans():
    svm = SVM(vlen=256, codegen="paper", mode="fast", backend="codegen",
              profile=True)
    with svm.lazy() as lz:
        pipe_chain_scan(lz, make_data(svm, 600), LMUL.M1)
    col = svm.profiler
    col.finish()
    doc = col.to_json()
    names, todo = set(), [doc["profile"]]
    while todo:
        span = todo.pop()
        names.add(span["name"])
        todo.extend(span.get("children", ()))
    assert "plan.compile" in names
    assert any(e["name"] == "codegen.compile" for e in doc["events"])
    assert doc["metrics"]["engine.codegen.plans_compiled"] == 1
