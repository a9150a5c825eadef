"""End-to-end profiling: the ``repro profile`` CLI, the exact
children-sum-to-parent invariant on a real workload, strict-vs-fast
span equality, and plan-cache statistics."""

import json

import numpy as np
import pytest

from repro.algorithms import split_radix_sort
from repro.cli import main
from repro.svm.context import SVM


def _span_index(doc):
    """name -> list of span dicts, over the whole JSON tree."""
    out: dict = {}

    def walk(span):
        out.setdefault(span["name"], []).append(span)
        for child in span.get("children", ()):
            walk(child)

    walk(doc["profile"])
    return out


class TestCLI:
    def test_profile_sort_tree(self, capsys):
        assert main(["profile", "--algo", "sort", "--format", "tree",
                     "--n", "512", "--bits", "4"]) == 0
        out = capsys.readouterr().out
        assert "profile: VLEN=1024" in out
        assert "radix_sort(n=512, bits=4)" in out
        assert "split(n=512)" in out
        assert "metrics:" in out
        assert "svm.strip_vl" in out

    def test_profile_scan_json(self, capsys):
        assert main(["profile", "--algo", "scan", "--format", "json",
                     "--n", "300"]) == 0
        doc = json.loads(capsys.readouterr().out)
        spans = _span_index(doc)
        assert "scan" in spans and "seg_scan" in spans

    def test_profile_chrome_trace_file(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["profile", "--algo", "sort", "--n", "256", "--bits", "2",
                     "--format", "chrome-trace", "--out", str(out_file)]) == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        # Perfetto/chrome://tracing requirements: the traceEvents array,
        # and complete events with name/ph/ts/dur/pid/tid
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        for e in doc["traceEvents"]:
            assert isinstance(e["name"], str)
            assert e["ph"] in ("M", "X", "C", "i")
            if e["ph"] == "X":
                for key in ("ts", "dur", "pid", "tid"):
                    assert key in e
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"radix_sort", "pass", "split"} <= names

    def test_profile_filter_shows_cache_hit(self, capsys, monkeypatch):
        # no ambient cache dir: a warm native artifact would turn the
        # first lookup into a disk resolution
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["profile", "--algo", "filter", "--format", "json",
                     "--n", "500"]) == 0
        doc = json.loads(capsys.readouterr().out)
        event_names = [e["name"] for e in doc["events"]]
        assert "plan_cache.miss" in event_names
        assert "plan_cache.hit" in event_names
        assert doc["metrics"]["engine.plan_cache.hits"] == 1
        assert doc["metrics"]["engine.plan_cache.misses"] == 1

    def test_profile_strips_flag(self, capsys):
        assert main(["profile", "--algo", "scan", "--n", "100",
                     "--mode", "strict", "--strips", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "strip" in _span_index(doc)


class TestExactAttribution:
    """The acceptance invariant: per-category counts of a span's
    children (with the synthetic ``(self)``) sum EXACTLY to the
    parent's delta, on a real radix-sort profile."""

    @pytest.mark.parametrize("mode", ["strict", "fast"])
    def test_children_sum_exactly(self, mode):
        svm = SVM(vlen=256, mode=mode, profile=True)
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 256, 777, dtype=np.uint32)
        arr = svm.array(keys)
        split_radix_sort(svm, arr, bits=8)
        assert np.array_equal(arr.to_numpy(), np.sort(keys))
        doc = svm.profiler.to_json()

        checked = 0

        def check(span):
            nonlocal checked
            kids = span.get("children")
            if kids:
                summed: dict = {}
                for child in kids:
                    assert child["total"] >= 0
                    for cat, n in child["by_category"].items():
                        assert n >= 0
                        summed[cat] = summed.get(cat, 0) + n
                assert summed == span["by_category"], span["name"]
                assert sum(c["total"] for c in kids) == span["total"]
                checked += 1
                for child in kids:
                    check(child)

        check(doc["profile"])
        assert checked > 10  # root, radix_sort, 8 passes, splits...

    def test_strict_and_fast_span_deltas_identical(self):
        """The repo's strict/fast counter equality, per span: the span
        tree and every per-category delta match across modes."""

        def run(mode):
            svm = SVM(vlen=256, mode=mode, profile=True)
            rng = np.random.default_rng(3)
            keys = rng.integers(0, 64, 500, dtype=np.uint32)
            arr = svm.array(keys)
            split_radix_sort(svm, arr, bits=6)
            svm.profiler.finish()
            return [
                (s.name, tuple(sorted(s.meta.items() - {("path", "strict"),
                                                        ("path", "fast")})),
                 tuple(sorted((c.value, n) for c, n
                              in s.delta.by_category.items() if n)))
                for s in svm.profiler.root.walk()
            ]

        strict = run("strict")
        fast = run("fast")
        assert strict == fast


class TestCacheStats:
    def test_stats_dict_counts(self):
        from repro.engine.cache import PlanCache

        cache = PlanCache(capacity=2)
        assert cache.get(("a",)) is None
        cache.put(("a",), "fa")
        assert cache.get(("a",)) == "fa"
        cache.put(("b",), "fb")
        cache.put(("c",), "fc")  # evicts ("a",)
        s = cache.stats_dict()
        assert s == {"hits": 1, "misses": 1, "evictions": 1,
                     "disk_hits": 0, "compiles": 1,
                     "size": 2, "capacity": 2, "hit_rate": 0.5}
        assert cache.size == 2

    def test_fuse_cli_prints_cache_stats(self, capsys):
        assert main(["fuse", "--n", "500", "--pipeline", "elementwise"]) == 0
        out = capsys.readouterr().out
        assert "plan cache: hits=1 misses=1" in out
        assert "hit_rate=0.50" in out
        # the pre-existing fuse output survives
        assert "bit-identical" in out

    def test_engine_reports_hit_on_alpha_equivalent_plan(self, monkeypatch):
        # no ambient cache dir: a warm native artifact would make the
        # first lookup a disk resolution
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        svm = SVM(vlen=256, profile=True)
        for _ in range(2):
            data = svm.array(np.arange(100, dtype=np.uint32))
            with svm.lazy() as lz:
                lz.p_add(data, 1)
                lz.p_mul(data, 2)
        metrics = svm.profiler.metrics
        assert metrics.counter("engine.plan_cache.misses").value == 1
        assert metrics.counter("engine.plan_cache.hits").value == 1
        assert metrics.gauge("engine.plan_cache.size").value == 1
