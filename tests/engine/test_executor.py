"""End-to-end engine parity properties.

The load-bearing invariants of the subsystem:

* ``svm.lazy(fuse=False)`` is a *bit- and counter-identical* spelling
  of the eager program;
* fused execution is bit-identical and never increases **any**
  per-category counter;
* strict and fast execution of a fused plan agree exactly on results
  and on every counter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rvv.counters import Cat
from repro.rvv.types import LMUL

from .conftest import PIPELINES, run_eager, run_lazy

#: Awkward sizes: empty, single element, below/at/above one strip
#: (vlmax = 4 for uint32 at VLEN=128 LMUL=1), and many strips.
SIZES = [0, 1, 3, 4, 5, 31, 32, 33, 100, 1000]


class TestUnfusedIsIdentity:
    """fuse=False replays the recording verbatim."""

    @pytest.mark.parametrize("n", SIZES)
    def test_counters_and_bits_match_eager(self, pipeline, n):
        eager, ref = run_eager(pipeline, n)
        lazy, got, _ = run_lazy(pipeline, n, fuse=False)
        assert np.array_equal(ref, got)
        assert lazy.by_category == eager.by_category


@pytest.mark.parametrize("backend", ["codegen", "native", "native-speed"])
def test_unfused_replays_python_on_every_backend(monkeypatch, backend):
    """fuse=False is the eager program on every backend: counters equal
    eager's (native-speed used to charge nothing) and no NativePlan is
    lowered, so nothing is bound or compiled per call."""
    from repro import SVM
    from repro.engine.native import NativePlan

    built = []
    init = NativePlan.__init__
    monkeypatch.setattr(NativePlan, "__init__", lambda self, *a: (
        built.append(1), init(self, *a))[1])
    data = np.arange(3000, dtype=np.uint32)
    counts = {}
    for lazy in (False, True):
        svm = SVM(vlen=256, mode="fast", backend=backend)
        a = svm.array(data)
        svm.reset()
        if lazy:
            with svm.lazy(fuse=False) as lz:
                lz.p_add(a, 7)
                lz.plus_scan(a)
            assert lz.fused.native is None
        else:
            svm.p_add(a, 7)
            svm.plus_scan(a)
        counts[lazy] = (a.to_numpy(), svm.counters.snapshot().by_category)
    assert np.array_equal(counts[False][0], counts[True][0])
    assert counts[False][1] == counts[True][1]
    assert built == []


class TestFusedParity:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("codegen", ["ideal", "paper"])
    def test_bit_identical_and_never_worse(self, pipeline, n, codegen):
        eager, ref = run_eager(pipeline, n, codegen=codegen)
        fused, got, _ = run_lazy(pipeline, n, codegen=codegen)
        assert np.array_equal(ref, got)
        for cat in Cat:
            assert fused.by_category.get(cat, 0) <= eager.by_category.get(cat, 0), (
                f"fused increased {cat.value} "
                f"({eager.by_category.get(cat, 0)} -> {fused.by_category.get(cat, 0)})"
            )

    @pytest.mark.parametrize("lmul", [LMUL.M2, LMUL.M8])
    @pytest.mark.parametrize("n", [0, 1, 33, 500])
    def test_high_lmul(self, pipeline, n, lmul):
        eager, ref = run_eager(pipeline, n, lmul=lmul)
        fused, got, _ = run_lazy(pipeline, n, lmul=lmul)
        assert np.array_equal(ref, got)
        for cat in Cat:
            assert fused.by_category.get(cat, 0) <= eager.by_category.get(cat, 0)

    @pytest.mark.parametrize("vlen", [256, 1024])
    @pytest.mark.parametrize("n", [33, 1000])
    def test_other_vlens(self, pipeline, n, vlen):
        eager, ref = run_eager(pipeline, n, vlen=vlen)
        fused, got, _ = run_lazy(pipeline, n, vlen=vlen)
        assert np.array_equal(ref, got)
        for cat in Cat:
            assert fused.by_category.get(cat, 0) <= eager.by_category.get(cat, 0)

    @pytest.mark.parametrize("n", [33, 1000])
    def test_deep_chain_actually_saves(self, n):
        """The point of the subsystem: a fusable chain gets cheaper."""
        pipe = PIPELINES["chain_scan"]
        eager, _ = run_eager(pipe, n)
        fused, _, _ = run_lazy(pipe, n)
        assert fused.total < eager.total
        assert fused.by_category[Cat.VMEM] < eager.by_category[Cat.VMEM]
        assert fused.by_category[Cat.VCONFIG] < eager.by_category[Cat.VCONFIG]


class TestStrictFastAgree:
    @pytest.mark.parametrize("n", SIZES)
    def test_fused_counters_and_bits(self, pipeline, n):
        strict, sref, _ = run_lazy(pipeline, n, mode="strict")
        fast, fref, _ = run_lazy(pipeline, n, mode="fast")
        assert np.array_equal(sref, fref)
        assert strict.by_category == fast.by_category

    @pytest.mark.parametrize("lmul", [LMUL.M8])
    @pytest.mark.parametrize("codegen", ["ideal", "paper"])
    def test_fused_counters_high_lmul(self, pipeline, lmul, codegen):
        strict, sref, _ = run_lazy(pipeline, 200, lmul=lmul, codegen=codegen)
        fast, fref, _ = run_lazy(pipeline, 200, lmul=lmul, mode="fast",
                                 codegen=codegen)
        assert np.array_equal(sref, fref)
        assert strict.by_category == fast.by_category


class TestFutures:
    def test_pack_count_resolves_identically(self):
        from repro import SVM
        from .conftest import make_data

        svm = SVM(vlen=128)
        data = make_data(svm, 200)
        expected = int(np.count_nonzero(data.to_numpy() < 2**15))
        with svm.lazy() as lz:
            flags = lz.p_lt(data, 2**15)
            _, kept = lz.pack(data, flags)
        assert kept.value == expected
        assert int(kept) == expected

    def test_future_read_before_execution_raises(self):
        from repro import SVM
        from repro.engine import ScalarFuture
        from repro.engine.ir import EngineError
        from .conftest import make_data

        svm = SVM(vlen=128)
        data = make_data(svm, 16)
        with svm.lazy() as lz:
            flags = lz.p_lt(data, 4)
            _, kept = lz.pack(data, flags)
            assert isinstance(kept, ScalarFuture)
            with pytest.raises(EngineError):
                _ = kept.value
        assert kept.resolved
