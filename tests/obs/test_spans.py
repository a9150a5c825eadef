"""Span mechanics: nesting, attribution, exception safety, and the
zero-overhead-when-off contract."""

import numpy as np
import pytest

from repro.obs.spans import NULL_SPAN, ProfileCollector, profile, span
from repro.rvv.counters import Cat
from repro.rvv.machine import RVVMachine
from repro.svm.context import SVM
from repro.svm.opspec import iter_specs

#: An eager call of each registered primitive whose operands are not
#: ``(a, 3)``, over ``a``, a permutation ``b`` and ``flags``.
_PRIMITIVE_CALLS = {
    "p_select": lambda svm, a, b, f: svm.p_select(f, a, b),
    "scan": lambda svm, a, b, f: svm.scan(a, "max"),
    "seg_scan": lambda svm, a, b, f: svm.seg_scan(a, f),
    "permute": lambda svm, a, b, f: svm.permute(a, b),
    "back_permute": lambda svm, a, b, f: svm.back_permute(a, b),
    "pack": lambda svm, a, b, f: svm.pack(a, f),
    "enumerate": lambda svm, a, b, f: svm.enumerate(f),
    "index_array": lambda svm, a, b, f: svm.index_array(a.n),
    "reduce": lambda svm, a, b, f: svm.reduce(a),
    "copy": lambda svm, a, b, f: svm.copy(a),
}


def _collector(machine, **kw) -> ProfileCollector:
    col = ProfileCollector(machine, **kw)
    machine.collector = col
    return col


class TestNesting:
    def test_child_delta_within_parent(self):
        m = RVVMachine(vlen=256)
        col = _collector(m)
        with col.span("outer"):
            m.count(Cat.SCALAR, 5)
            with col.span("inner"):
                m.count(Cat.VARITH, 3)
            m.count(Cat.SCALAR, 2)
        col.finish()
        outer = col.root.children[0]
        inner = outer.children[0]
        assert outer.name == "outer" and inner.name == "inner"
        nonzero = {c: n for c, n in inner.delta.by_category.items() if n}
        assert nonzero == {Cat.VARITH: 3}
        assert outer.delta.by_category[Cat.SCALAR] == 7
        assert outer.delta.by_category[Cat.VARITH] == 3
        # self delta excludes the child, category by category
        own = outer.self_delta().by_category
        assert own.get(Cat.VARITH, 0) == 0
        assert own[Cat.SCALAR] == 7

    def test_sibling_spans_do_not_overlap(self):
        m = RVVMachine(vlen=256)
        col = _collector(m)
        with col.span("a"):
            m.count(Cat.SCALAR, 1)
        with col.span("b"):
            m.count(Cat.SCALAR, 10)
        col.finish()
        a, b = col.root.children
        assert a.total == 1
        assert b.total == 10

    def test_walk_preorder(self):
        m = RVVMachine(vlen=256)
        col = _collector(m)
        with col.span("a"):
            with col.span("b"):
                pass
        with col.span("c"):
            pass
        col.finish()
        assert [s.name for s in col.root.walk()] == ["profile", "a", "b", "c"]

    def test_meta_and_label(self):
        m = RVVMachine(vlen=256)
        col = _collector(m)
        with col.span("work", n=42, mode="strict") as s:
            pass
        assert s.meta == {"n": 42, "mode": "strict"}
        assert s.label() == "work(n=42, mode=strict)"


class TestExceptionSafety:
    def test_span_closes_and_records_error(self):
        m = RVVMachine(vlen=256)
        col = _collector(m)
        with pytest.raises(ValueError):
            with col.span("boom"):
                m.count(Cat.SCALAR, 4)
                raise ValueError("x")
        s = col.root.children[0]
        assert s.delta is not None
        assert s.total == 4
        assert s.error == "ValueError"
        # the stack unwound: new spans attach at the root again
        with col.span("after"):
            pass
        assert [c.name for c in col.root.children] == ["boom", "after"]

    def test_leaked_inner_span_is_unwound(self):
        m = RVVMachine(vlen=256)
        col = _collector(m)
        outer_ctx = col.span("outer")
        outer = outer_ctx.__enter__()
        col._open("leaked", {})  # inner span never closed by its owner
        m.count(Cat.SCALAR, 1)
        outer_ctx.__exit__(None, None, None)
        assert outer.delta is not None
        assert all(c.delta is not None for c in outer.children)

    def test_finish_is_idempotent(self):
        m = RVVMachine(vlen=256)
        col = _collector(m)
        with col.span("a"):
            m.count(Cat.SCALAR, 1)
        r1 = col.finish()
        t1 = r1.total
        r2 = col.finish()
        assert r2 is r1
        assert r2.total == t1


class TestZeroOverhead:
    def test_null_span_is_shared_singleton(self):
        m = RVVMachine(vlen=256)
        assert m.collector is None
        assert span(m, "anything", n=1) is NULL_SPAN
        assert span(m, "other") is NULL_SPAN

    def test_no_collector_means_no_counter_perturbation(self):
        svm_off = SVM(vlen=256, mode="strict")
        svm_on = SVM(vlen=256, mode="strict", profile=True)
        a_off = svm_off.array(list(range(300)))
        a_on = svm_on.array(list(range(300)))
        svm_off.plus_scan(a_off)
        svm_on.plus_scan(a_on)
        # profiling must never change results or counters
        assert a_off.to_numpy().tolist() == a_on.to_numpy().tolist()
        assert (svm_off.machine.counters.snapshot().by_category
                == svm_on.machine.counters.snapshot().by_category)

    @pytest.mark.parametrize("mode", ["strict", "fast"])
    @pytest.mark.parametrize("name", [s.name for s in iter_specs()
                                      if not s.composite])
    def test_every_primitive_opens_one_span(self, name, mode):
        """A profiled eager call of each registered primitive opens
        exactly one span, named after it, with {n, path}."""
        svm = SVM(vlen=128, mode=mode, profile=True)
        n = 40
        a = svm.array(np.arange(n, dtype=np.uint32))
        b = svm.array(np.random.default_rng(0).permutation(n).astype(np.uint32))
        flags = svm.array(np.arange(n, dtype=np.uint32) % 3 == 0)
        call = _PRIMITIVE_CALLS.get(name, lambda svm, a, b, f: (
            getattr(svm, name)(a, 3)))
        call(svm, a, b, flags)
        spans = svm.profiler.finish().children
        assert [(s.name, s.meta) for s in spans] == [
            (name, {"n": n, "path": mode})]

    def test_collector_off_produces_no_spans(self):
        svm = SVM(vlen=256)
        a = svm.array([1, 2, 3, 4])
        svm.plus_scan(a)
        assert svm.profiler is None


class TestProfileContextManager:
    def test_installs_and_removes(self):
        m = RVVMachine(vlen=256)
        with profile(m) as col:
            assert m.collector is col
            with col.span("x"):
                m.count(Cat.SCALAR, 1)
        assert m.collector is None
        assert col.root.delta is not None

    def test_double_install_rejected(self):
        m = RVVMachine(vlen=256)
        with profile(m):
            with pytest.raises(RuntimeError, match="already installed"):
                with profile(m):
                    pass


class TestStripSpans:
    def test_strip_spans_capture_each_vsetvl(self):
        svm = SVM(vlen=256, mode="strict", profile="strips")
        a = svm.array(list(range(20)))  # vlmax=8 -> strips of 8, 8, 4
        svm.p_add(a, 1)
        col = svm.profiler
        col.finish()
        p_add = col.root.children[0]
        strips = [c for c in p_add.children if c.strip]
        assert [s.meta["vl"] for s in strips] == [8, 8, 4]
        assert [s.meta["i"] for s in strips] == [0, 1, 2]
        # each strip saw its own vsetvl (counted inside the strip span)
        for s in strips:
            assert s.delta.by_category.get(Cat.VCONFIG, 0) == 1
        assert p_add.n_strips == 3

    def test_strip_vl_histogram_without_strip_spans(self):
        svm = SVM(vlen=256, mode="strict", profile=True)
        a = svm.array(list(range(20)))
        svm.p_add(a, 1)
        col = svm.profiler
        h = col.metrics.histogram("svm.strip_vl")
        assert h.count == 3
        assert h.by_value == {8: 2, 4: 1}
        assert not any(s.strip for s in col.root.walk())


class TestInstrumentedDispatch:
    def test_span_meta_records_n_and_path(self):
        svm = SVM(vlen=256, mode="strict", profile=True)
        a = svm.array([1, 2, 3])
        svm.p_add(a, 1)
        svm.profiler.finish()
        s = svm.profiler.root.children[0]
        assert s.name == "p_add"
        assert s.meta == {"n": 3, "path": "strict"}

    def test_fast_path_recorded(self):
        svm = SVM(vlen=256, mode="fast", profile=True)
        a = svm.array([1, 2, 3])
        svm.p_add(a, 1)
        svm.profiler.finish()
        assert svm.profiler.root.children[0].meta["path"] == "fast"

    def test_profile_argument_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="profile"):
            SVM(vlen=256, profile="bogus")
