"""Unit tests for the RVV machine: configuration, counting, heap."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MemoryError_, VectorLengthError
from repro.rvv import Cat, RVVMachine, strips
from repro.rvv.types import LMUL, SEW
from repro.scalar.malloc_model import GlibcMallocModel


class TestVsetvl:
    def test_caps_at_vlmax(self):
        m = RVVMachine(vlen=128)
        assert m.vsetvl(100) == 4  # 128/32 = 4 lanes of u32

    def test_returns_avl_when_small(self):
        m = RVVMachine(vlen=1024)
        assert m.vsetvl(5) == 5

    def test_updates_csrs(self):
        m = RVVMachine(vlen=256)
        m.vsetvl(3, SEW.E16, LMUL.M2)
        assert m.vl == 3
        assert m.vtype.sew is SEW.E16 and m.vtype.lmul is LMUL.M2

    def test_counts_one_instruction(self):
        m = RVVMachine(vlen=128)
        m.vsetvl(4)
        assert m.counters[Cat.VCONFIG] == 1
        assert m.counters.total == 1

    def test_vsetvlmax(self):
        m = RVVMachine(vlen=512)
        assert m.vsetvlmax(SEW.E32, LMUL.M4) == 64

    def test_vlmax_query_free(self):
        m = RVVMachine(vlen=512)
        m.vlmax(SEW.E32, LMUL.M8)
        assert m.counters.total == 0

    def test_negative_avl(self):
        m = RVVMachine(vlen=128)
        with pytest.raises(VectorLengthError):
            m.vsetvl(-1)

    def test_lmul_scales_vlmax(self):
        m = RVVMachine(vlen=128)
        assert m.vsetvl(1000, SEW.E32, LMUL.M8) == 32


class TestMachineConstruction:
    def test_bad_vlen(self):
        with pytest.raises(ConfigurationError):
            RVVMachine(vlen=96)
        with pytest.raises(ConfigurationError):
            RVVMachine(vlen=32)

    def test_codegen_preset_resolution(self):
        assert RVVMachine(codegen="paper").codegen.name == "paper"
        with pytest.raises(ValueError):
            RVVMachine(codegen="llvm99")


class TestCountingHooks:
    def test_region_delta(self):
        m = RVVMachine(vlen=128)
        m.scalar(5)
        with m.region() as r:
            m.vsetvl(4)
            m.scalar(2)
        assert r.total == 3
        assert r.by_category[Cat.SCALAR] == 2

    def test_op_expansion_paper(self):
        m = RVVMachine(vlen=128, codegen="paper")
        m.op(Cat.VPERM, dest_undisturbed=True)
        assert m.counters[Cat.VPERM] == 2

    def test_op_expansion_ideal(self):
        m = RVVMachine(vlen=128, codegen="ideal")
        m.op(Cat.VPERM, dest_undisturbed=True, masked=True)
        assert m.counters[Cat.VPERM] == 1

    def test_reset(self):
        m = RVVMachine(vlen=128)
        m.scalar(3)
        m.reset_counters()
        assert m.counters.total == 0


class TestHeap:
    def test_malloc_free_charges_alloc(self):
        m = RVVMachine(vlen=128, malloc_model=GlibcMallocModel())
        addr = m.malloc(64)
        m.free(addr)
        assert m.counters[Cat.ALLOC] == 90 + 60

    def test_large_malloc_pays_pages(self):
        model = GlibcMallocModel()
        m = RVVMachine(vlen=128, malloc_model=model)
        m.malloc(256 * 1024)
        pages = 256 * 1024 // 4096
        assert m.counters[Cat.ALLOC] == model.mmap_base + pages * model.per_page

    def test_failed_heap_calls_charge_nothing(self):
        m = RVVMachine(vlen=128, malloc_model=GlibcMallocModel())
        addr = m.malloc(64)
        m.free(addr)
        before = m.counters.snapshot()
        with pytest.raises(MemoryError_):
            m.malloc(1 << 40)  # out of memory
        assert m.counters.snapshot() == before
        with pytest.raises(MemoryError_):
            m.free(addr)  # double free
        assert m.counters.snapshot() == before
        with pytest.raises(MemoryError_):
            m.malloc(-1)
        assert m.counters.snapshot() == before

    def test_default_model_free(self):
        m = RVVMachine(vlen=128)
        m.free(m.malloc(1024 * 1024))
        assert m.counters[Cat.ALLOC] == 0

    def test_array_helper(self):
        m = RVVMachine(vlen=128)
        p = m.array([1, 2, 3])
        assert p.read(3).tolist() == [1, 2, 3]
        assert p.dtype == np.uint32


class TestStrips:
    def test_exact_division(self):
        assert list(strips(12, 4)) == [4, 4, 4]

    def test_remainder(self):
        assert list(strips(13, 4)) == [4, 4, 4, 1]

    def test_single_short(self):
        assert list(strips(3, 32)) == [3]

    def test_empty(self):
        assert list(strips(0, 4)) == []

    def test_negative_rejected(self):
        with pytest.raises(VectorLengthError):
            list(strips(-1, 4))

    def test_bad_vlmax(self):
        with pytest.raises(ConfigurationError):
            list(strips(4, 0))
