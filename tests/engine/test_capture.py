"""Plan recording and the structural cache signature."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.reference import PIPELINES as REPLAY_PIPELINES
from repro import SVM
from repro.engine import PlanBuilder
from repro.engine.cache import PlanCache
from repro.engine.ir import Kind, Plan
from repro.rvv.types import LMUL
from repro.tune import TunePolicy, TuningDB, n_bucket
from repro.tune.db import entry_key

from .conftest import PIPELINES, make_data


def _at_svm_lmul(pipe):
    return lambda lz, data: pipe(lz, data, lz.svm.lmul)


def _first_use(lz, data):
    """dst, src and operand all first used by one node: slot order."""
    return lz.p_lt(data, lz.zeros(data.n))


#: Every engine-suite pipeline plus the perfbench replay set, as
#: ``pipe(lz, data)`` at the SVM's LMUL.
KEY_PIPELINES = {
    **{f"engine/{name}": _at_svm_lmul(pipe) for name, pipe in PIPELINES.items()},
    **{f"replay/{name}": pipe for name, pipe in REPLAY_PIPELINES.items()},
    "first_use": _first_use,
}


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

    def test_free_temps_frees_an_unused_temporary(self, svm):
        data = make_data(svm, 32)
        live = svm.machine.heap.live_bytes
        lz = PlanBuilder(svm)
        lz.empty(32)  # no node ever uses these three
        lz.zeros(8, np.uint16)
        lz.array([1, 2, 3])
        lz.p_add(data, 1)
        plan = lz.build()
        assert all(not buf.temp for buf in plan.buffers.values())
        lz.free_temps()
        assert svm.machine.heap.live_bytes == live

    def test_raising_block_frees_an_unused_temporary(self, svm):
        data = make_data(svm, 32)
        live = svm.machine.heap.live_bytes
        with pytest.raises(RuntimeError):
            with svm.lazy() as lz:
                lz.empty(64)
                lz.p_add(data, 1)
                raise RuntimeError("boom")
        assert svm.machine.heap.live_bytes == live

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

    @pytest.mark.parametrize("name", sorted(KEY_PIPELINES))
    def test_capture_record_matches_walk(self, name):
        """The key the builder records while capturing is the one a
        hand-built plan over the same nodes walks for, byte for byte."""
        for n in (1, 7, 256, 3000):
            for vlen in (128, 1024):
                for lmul in (LMUL.M1, LMUL.M4):
                    svm = SVM(vlen=vlen, lmul=lmul)
                    lz = PlanBuilder(svm)
                    KEY_PIPELINES[name](lz, make_data(svm, n))
                    plan = lz.build()
                    walked = Plan(dict(plan.buffers), list(plan.nodes))
                    cell = (n, vlen, int(lmul))
                    for codegen in ("ideal", "paper"):
                        assert (repr(plan.signature(vlen, codegen))
                                == repr(walked.signature(vlen, codegen))), cell
                    assert plan.fingerprint() == walked.fingerprint(), cell
                    # the walk is kept: later requests reuse it
                    assert walked._alpha() is walked._alpha(), cell

    @pytest.mark.parametrize("name", sorted(KEY_PIPELINES))
    def test_buffer_ids_are_alpha_slots(self, name):
        """Ids are handed out at first use, so the record the builder
        keeps is the walk of the plan it built: the same buffers in
        the same slot order, and the same key tuples."""
        for n in (1, 300):
            svm = SVM(vlen=128)
            lz = PlanBuilder(svm)
            KEY_PIPELINES[name](lz, make_data(svm, n))
            plan = lz.build()
            assert list(plan.buffers) == list(range(len(plan.buffers)))
            bufs, buf_sig, node_sig = plan._alpha()
            w_bufs, w_buf_sig, w_node_sig = Plan(plan.buffers, plan.nodes)._alpha()
            assert [id(b) for b in bufs] == [id(b) for b in w_bufs]
            assert [b.bid for b in bufs] == list(range(len(bufs)))
            assert repr(buf_sig) == repr(w_buf_sig)
            assert repr(node_sig) == repr(w_node_sig)

    def test_tune_retag_invalidates_capture_key(self, tmp_path):
        """A policy retag rewrites node LMULs after capture: the plan's
        key must follow, so the tuned plan hits the entry an SVM pinned
        to the chosen LMUL compiled."""
        n = 256
        svm = SVM(vlen=128)
        lz = PlanBuilder(svm)
        PIPELINES["chain_scan"](lz, make_data(svm, n), LMUL.M1)
        db = TuningDB(tmp_path)
        db.save(lz.build().fingerprint(), {
            entry_key(128, svm.machine.codegen.name, n_bucket(n)):
                {"lmul": 4, "instructions": 1}})

        shared = PlanCache()
        pinned = SVM(vlen=128, lmul=LMUL.M4, plan_cache=shared)
        with pinned.lazy() as lz:
            PIPELINES["chain_scan"](lz, make_data(pinned, n), LMUL.M4)
        tuned = SVM(vlen=128, tune=TunePolicy(db), plan_cache=shared)
        lz = PlanBuilder(tuned)
        PIPELINES["chain_scan"](lz, make_data(tuned, n), LMUL.M1)
        plan = lz.build()
        captured = tuned.engine.plan_key(plan)
        misses = shared.stats.misses

        tuned.engine.fused_for(plan)
        key = tuned.engine.plan_key(plan)
        assert key != captured
        assert {t[-1] for t in key[3]} == {4}
        assert key == Plan(dict(plan.buffers), list(plan.nodes)).signature(
            128, tuned.machine.codegen.name)
        assert key == pinned.engine.plan_key(pinned.engine.last_plan)
        assert shared.stats.misses == misses

    def test_key_distinguishes_vx_from_vv(self, svm):
        a, b = make_data(svm, 32), make_data(svm, 32, seed=1)
        lz = PlanBuilder(svm)
        lz.p_add(a, 5)
        vx = lz.build().signature(128, "ideal")
        lz = PlanBuilder(svm)
        lz.p_add(a, b)
        assert lz.build().signature(128, "ideal") != vx
