"""Tests for the SVM context: array management, dispatch, counters."""

import numpy as np
import pytest

from repro import SVM
from repro.errors import ConfigurationError, VectorLengthError
from repro.rvv import RVVMachine
from repro.rvv.types import LMUL


class TestConstruction:
    def test_default_machine(self):
        svm = SVM(vlen=256, codegen="paper")
        assert svm.machine.vlen == 256
        assert svm.machine.codegen.name == "paper"

    def test_wraps_existing_machine(self):
        m = RVVMachine(vlen=512)
        svm = SVM(m)
        assert svm.machine is m

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            SVM(mode="turbo")


class TestArrays:
    def test_array_roundtrip(self):
        svm = SVM(vlen=128)
        a = svm.array([1, 2, 3])
        assert a.to_numpy().tolist() == [1, 2, 3]
        assert len(a) == 3

    def test_view_is_live(self):
        svm = SVM(vlen=128)
        a = svm.array([1, 2, 3])
        a.view()[1] = 42
        assert a.to_numpy().tolist() == [1, 42, 3]

    def test_zeros_and_empty(self):
        svm = SVM(vlen=128)
        assert not svm.zeros(5).to_numpy().any()
        assert len(svm.empty(7)) == 7

    def test_rejects_2d(self):
        svm = SVM(vlen=128)
        with pytest.raises(VectorLengthError):
            svm.array(np.zeros((2, 2)))

    @pytest.mark.parametrize("alloc", [
        lambda svm: svm.empty(-5),
        lambda svm: svm.zeros(-1),
        lambda svm: svm.index_array(-3),
        lambda svm: svm.empty(-1, np.uint16),
    ], ids=["empty", "zeros", "index_array", "empty_u16"])
    @pytest.mark.parametrize("mode", ["fast", "strict"])
    def test_negative_length_raises_before_allocating(self, alloc, mode):
        svm = SVM(vlen=128, mode=mode)
        svm.array([1, 2, 3])
        live = svm.machine.heap.live_bytes
        with pytest.raises(VectorLengthError):
            alloc(svm)
        assert svm.machine.heap.live_bytes == live

    def test_negative_length_raises_in_a_lazy_block(self):
        svm = SVM(vlen=128)
        live = svm.machine.heap.live_bytes
        for record in (lambda lz: lz.empty(-2), lambda lz: lz.zeros(-2),
                       lambda lz: lz.index_array(-2)):
            with pytest.raises(VectorLengthError):
                with svm.lazy() as lz:
                    lz.empty(4)
                    record(lz)
            assert svm.machine.heap.live_bytes == live

    def test_setup_is_uncharged(self):
        svm = SVM(vlen=128)
        svm.array([1, 2, 3])
        svm.zeros(10)
        assert svm.instructions == 0

    def test_free_releases_heap(self):
        svm = SVM(vlen=128)
        a = svm.array([1, 2, 3])
        before = svm.machine.heap.live_bytes
        svm.free(a)
        assert svm.machine.heap.live_bytes < before

    @pytest.mark.parametrize("values,dtype", [
        (np.array([2**64 - 1, 5], np.uint64), np.uint32),
        (np.array([-1, 5]), np.uint32),
        (np.array([255], np.uint8), np.int8),
        (np.array([2**63], np.uint64), np.int64),
        (np.array([1.5]), np.uint32),
        (np.array([np.nan]), np.uint32),
    ])
    def test_lossy_cast_raises(self, values, dtype):
        svm = SVM(vlen=128)
        live = svm.machine.heap.live_bytes
        with pytest.raises(ValueError, match="do not fit"):
            svm.array(values, dtype)
        assert svm.machine.heap.live_bytes == live

    @pytest.mark.parametrize("values,dtype", [
        (np.arange(5), np.uint32),
        (np.array([127], np.uint8), np.int8),
        (np.array([2**32 - 1], np.uint64), np.uint32),
        (np.array([2.0]), np.uint16),
        (np.array([200], np.uint8), np.uint64),
        (np.zeros(0, np.int64), np.uint8),
    ])
    def test_fitting_cast_keeps_values(self, values, dtype):
        svm = SVM(vlen=128)
        a = svm.array(values, dtype)
        assert a.dtype == dtype
        assert a.to_numpy().tolist() == values.tolist()

    def test_copy(self, svm_mode):
        svm = SVM(vlen=128, mode=svm_mode)
        a = svm.array([1, 2, 3, 4, 5])
        b = svm.copy(a)
        assert b.to_numpy().tolist() == [1, 2, 3, 4, 5]
        a.view()[0] = 99
        assert b.to_numpy()[0] == 1  # deep copy


class TestDispatch:
    def test_strict_mode_never_fast(self):
        svm = SVM(vlen=128, mode="strict")
        assert not svm._fast(10**6)

    def test_fast_mode_always_fast(self):
        svm = SVM(vlen=128, mode="fast")
        assert svm._fast(1)

    def test_auto_threshold(self):
        svm = SVM(vlen=128, mode="auto", fast_threshold=100)
        assert not svm._fast(99)
        assert svm._fast(100)

    def test_auto_modes_agree_on_counts(self):
        """A call routed strictly and one routed fast must charge the
        same instructions (the parity contract)."""
        results = []
        for threshold in (10**9, 0):  # force strict / force fast
            svm = SVM(vlen=128, mode="auto", fast_threshold=threshold,
                      codegen="paper")
            a = svm.array(np.arange(333, dtype=np.uint32))
            svm.reset()
            svm.plus_scan(a)
            results.append((svm.instructions, a.to_numpy().tolist()))
        assert results[0] == results[1]

    def test_default_lmul_applied(self):
        svm1 = SVM(vlen=1024, codegen="paper", lmul=LMUL.M4, mode="fast")
        svm2 = SVM(vlen=1024, codegen="paper", mode="fast")
        a1 = svm1.array(np.zeros(1000, dtype=np.uint32))
        a2 = svm2.array(np.zeros(1000, dtype=np.uint32))
        svm1.reset(); svm2.reset()
        svm1.p_add(a1, 1)
        svm2.p_add(a2, 1, lmul=LMUL.M4)
        assert svm1.instructions == svm2.instructions


class TestCounters:
    def test_instructions_property(self):
        svm = SVM(vlen=128)
        a = svm.array([1, 2])
        svm.p_add(a, 1)
        assert svm.instructions == svm.machine.counters.total > 0

    def test_reset(self):
        svm = SVM(vlen=128)
        a = svm.array([1, 2])
        svm.p_add(a, 1)
        svm.reset()
        assert svm.instructions == 0
