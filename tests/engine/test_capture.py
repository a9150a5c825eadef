"""Plan recording and the structural cache signature."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SVM
from repro.engine import PlanBuilder
from repro.engine.ir import Kind
from repro.rvv.types import LMUL

from .conftest import make_data


@pytest.fixture
def svm():
    return SVM(vlen=128)


class TestRecording:
    def test_nodes_record_without_executing(self, svm):
        data = make_data(svm, 32)
        before = data.to_numpy().copy()
        svm.reset()
        lz = PlanBuilder(svm)
        lz.p_add(data, 1)
        lz.plus_scan(data)
        flags = lz.p_lt(data, 100)
        lz.pack(data, flags)
        plan = lz.build()
        # nothing ran: data untouched, only the flag-buffer allocation
        # charged (capture defers execution, not memory)
        assert np.array_equal(data.to_numpy(), before)
        assert svm.machine.counters.vector_total == 0
        assert [n.kind for n in plan.nodes] == [
            Kind.EW_VX, Kind.SCAN, Kind.CMP_VX, Kind.PACK,
        ]

    def test_temp_flag_tracks_recorder_allocations(self, svm):
        data = make_data(svm, 32)
        lz = PlanBuilder(svm)
        flags = lz.p_lt(data, 100)
        plan = lz.build()
        bufs = {b.array.ptr.addr: b for b in plan.buffers.values()}
        assert not bufs[data.ptr.addr].temp
        assert bufs[flags.ptr.addr].temp

    def test_free_allows_address_recycling(self, svm):
        data = make_data(svm, 32)
        lz = PlanBuilder(svm)
        a = lz.empty(32)
        lz.p_add(a, 1)
        lz.free(a)
        b = lz.empty(32)  # may land on the freed address
        lz.p_add(b, 2)
        plan = lz.build()
        # the recycled allocation must get its own buffer id
        # (nodes: [p_add(a), free(a), p_add(b)] — allocation records none)
        assert plan.nodes[0].dst != plan.nodes[2].dst

    def test_mismatched_lengths_rejected_at_capture(self, svm):
        a, b = make_data(svm, 32), make_data(svm, 16, seed=1)
        lz = PlanBuilder(svm)
        with pytest.raises(Exception):
            lz.p_add(a, b)

    def test_unregistered_call_raises_at_capture(self, svm):
        # the recorder has no fallback node for calls outside the
        # registry: the block fails at capture and nothing runs
        data = make_data(svm, 32)
        before = data.to_numpy().copy()
        svm.reset()
        with pytest.raises(AttributeError):
            with svm.lazy() as lz:
                lz.p_add(data, 1)
                lz.plus_scan(data)
                lz.no_such_primitive(data)
        assert np.array_equal(data.to_numpy(), before)
        assert svm.machine.counters.total == 0


class TestSignature:
    def capture(self, svm, n, scalar, lmul=LMUL.M1, dtype=np.uint32):
        data = svm.array(np.arange(n, dtype=dtype), dtype)
        lz = PlanBuilder(svm)
        lz.p_add(data, scalar, lmul=lmul)
        lz.p_mul(data, scalar, lmul=lmul)
        lz.plus_scan(data, lmul=lmul)
        return lz.build()

    def test_alpha_equivalent_plans_share_a_key(self, svm):
        p1 = self.capture(svm, 100, scalar=7)
        p2 = self.capture(svm, 100, scalar=99)  # fresh buffers, new constants
        assert p1.signature(128, "ideal") == p2.signature(128, "ideal")

        # slot wiring is structure: renaming buffers keeps both keys,
        # swapping operands changes both
        def keys(x, y, swap=False):
            lz = PlanBuilder(svm)
            lz.p_add(x, y)
            lz.p_add(*((y, x) if swap else (x, y)))
            plan = lz.build()
            return plan.signature(128, "ideal"), plan.fingerprint()

        a, b, c, d = (make_data(svm, 32, seed=s) for s in range(4))
        assert keys(c, d) == keys(a, b)
        sig, fp = keys(a, b)
        sig_swapped, fp_swapped = keys(a, b, swap=True)
        assert sig_swapped != sig and fp_swapped != fp

    def test_key_depends_on_shape_and_machine(self, svm):
        base = self.capture(svm, 100, 7).signature(128, "ideal")
        assert self.capture(svm, 101, 7).signature(128, "ideal") != base
        assert self.capture(svm, 100, 7).signature(256, "ideal") != base
        assert self.capture(svm, 100, 7).signature(128, "paper") != base
        assert (self.capture(svm, 100, 7, lmul=LMUL.M4).signature(128, "ideal")
                != base)
        assert (self.capture(svm, 100, 7, dtype=np.uint16).signature(128, "ideal")
                != base)

    def test_key_distinguishes_vx_from_vv(self, svm):
        a, b = make_data(svm, 32), make_data(svm, 32, seed=1)
        lz = PlanBuilder(svm)
        lz.p_add(a, 5)
        vx = lz.build().signature(128, "ideal")
        lz = PlanBuilder(svm)
        lz.p_add(a, b)
        assert lz.build().signature(128, "ideal") != vx
