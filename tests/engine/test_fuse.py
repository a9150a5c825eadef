"""Unit tests of the fusion and dead-temp-elimination passes."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SVM
from repro.engine import PlanBuilder
from repro.engine.fuse import GroupSpec, dead_temp_elimination, fuse, materialize
from repro.rvv.types import LMUL

from .conftest import make_data


@pytest.fixture
def svm():
    return SVM(vlen=128)


def capture(svm, body):
    lz = PlanBuilder(svm)
    body(lz)
    return lz.build()


def groups(fused):
    return [u for u in fused.units if isinstance(u, GroupSpec)]


class TestChains:
    def test_elementwise_chain_fuses(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            lz.p_add(data, 1)
            lz.p_mul(data, 2)
            lz.p_xor(data, 3)

        fused = fuse(capture(svm, body))
        assert fused.units == [GroupSpec((0, 1, 2))]

    def test_single_node_demoted_to_eager(self, svm):
        data = make_data(svm, 64)
        fused = fuse(capture(svm, lambda lz: lz.p_add(data, 1)))
        assert fused.units == [0]

    def test_scan_tail_attaches(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            lz.p_add(data, 1)
            lz.plus_scan(data)

        fused = fuse(capture(svm, body))
        assert fused.units == [GroupSpec((0, 1), scan=True)]
        g = materialize(capture(svm, body), fused.units[0])
        assert g.scan_op == "plus" and len(g.lane_ops) == 1

    def test_exclusive_scan_stays_eager(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            lz.p_add(data, 1)
            lz.scan_exclusive(data)

        fused = fuse(capture(svm, body))
        assert fused.units == [0, 1]

    def test_lone_scan_stays_eager(self, svm):
        data = make_data(svm, 64)
        fused = fuse(capture(svm, lambda lz: lz.plus_scan(data)))
        assert fused.units == [0]

    def test_get_flags_contributes_two_lanes(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            f = lz.get_flags(data, 3)
            lz.p_add(f, 1)

        plan = capture(svm, body)
        fused = fuse(plan)
        (g,) = groups(fused)
        mat = materialize(plan, g)
        assert [l.op for l in mat.lane_ops] == ["p_srl", "p_and", "p_add"]


class TestBoundaries:
    def test_lmul_mismatch_splits(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            lz.p_add(data, 1, lmul=LMUL.M1)
            lz.p_mul(data, 2, lmul=LMUL.M2)

        fused = fuse(capture(svm, body))
        assert fused.units == [0, 1]

    def test_different_dst_splits(self, svm):
        a, b = make_data(svm, 64), make_data(svm, 64, seed=1)

        def body(lz):
            lz.p_add(a, 1)
            lz.p_add(b, 1)

        fused = fuse(capture(svm, body))
        assert fused.units == [0, 1]

    def test_replay_node_closes_group(self, svm):
        data = make_data(svm, 64)
        idx = make_data(svm, 64, seed=1)

        def body(lz):
            lz.p_add(data, 1)
            lz.p_mul(data, 2)
            lz.permute(data, idx)
            lz.p_add(data, 3)

        fused = fuse(capture(svm, body))
        assert fused.units[0] == GroupSpec((0, 1))
        assert fused.units[1] == 2  # permute replays eagerly
        assert fused.units[2] == 3  # single tail node demoted

    def test_cmp_with_fresh_source_closes_group(self, svm):
        data = make_data(svm, 64)
        flags = make_data(svm, 64, seed=2)  # caller-owned (not a DCE temp)

        def body(lz):
            lz.p_add(flags, 1)
            lz.p_lt(data, 7, out=flags)  # re-reads data: needs the store
            lz.p_mul(flags, 2)

        fused = fuse(capture(svm, body))
        # the compare cannot extend the open group (its source must be
        # read after the pending store); it opens the next group instead
        assert fused.units == [0, GroupSpec((1, 2))]

    def test_cmp_on_accumulator_fuses_midgroup(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            lz.p_add(data, 1)
            lz.p_lt(data, 100, out=data)  # src == dst: stays in registers
            lz.p_mul(data, 5)

        fused = fuse(capture(svm, body))
        assert fused.units == [GroupSpec((0, 1, 2))]


class TestAliasing:
    def test_dst_operand_legal_as_head_lane(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            lz.p_add(data, data)  # acc just loaded, memory still agrees
            lz.p_mul(data, 3)
            lz.plus_scan(data)

        fused = fuse(capture(svm, body))
        assert fused.units == [GroupSpec((0, 1, 2), scan=True)]

    def test_dst_operand_illegal_after_divergence(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            lz.p_add(data, 1)
            lz.p_mul(data, data)  # memory is stale: must not fuse

        fused = fuse(capture(svm, body))
        assert fused.units == [0, 1]


class TestScanGate:
    def test_vx_chain_scan_fuses_at_lmul8(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            lz.p_add(data, 1, lmul=LMUL.M8)
            lz.plus_scan(data, lmul=LMUL.M8)

        fused = fuse(capture(svm, body))
        assert fused.units == [GroupSpec((0, 1), scan=True)]

    def test_vv_chain_scan_rejected_at_lmul8(self, svm):
        data = make_data(svm, 64)
        other = make_data(svm, 64, seed=1)

        def body(lz):
            lz.p_add(data, other, lmul=LMUL.M8)
            lz.p_mul(data, 3, lmul=LMUL.M8)
            lz.plus_scan(data, lmul=LMUL.M8)

        fused = fuse(capture(svm, body))
        # the elementwise pair still fuses; the scan would spill an
        # extra value at LMUL=8, so it stays an eager unit
        assert fused.units == [GroupSpec((0, 1)), 2]

    def test_vv_chain_scan_fuses_at_lmul1(self, svm):
        data = make_data(svm, 64)
        other = make_data(svm, 64, seed=1)

        def body(lz):
            lz.p_add(data, other, lmul=LMUL.M1)
            lz.plus_scan(data, lmul=LMUL.M1)

        fused = fuse(capture(svm, body))
        assert fused.units == [GroupSpec((0, 1), scan=True)]


class TestMixedWidth:
    def test_mixed_sew_cmp_head_stays_eager(self, svm):
        narrow = svm.array(np.arange(64, dtype=np.uint16), np.uint16)

        def body(lz):
            flags = lz.p_lt(narrow, 30)  # uint16 source, uint32 flags
            lz.p_add(flags, 1)

        fused = fuse(capture(svm, body))
        # eager strip-mines the compare at SEW=16; a fused loop would
        # run at the destination's SEW=32 — so the head replays eagerly
        assert fused.units == [0, 1]


class TestDeadTempElimination:
    def test_unread_temp_chain_removed(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            flags = lz.p_lt(data, 100)
            lz.p_add(flags, 1)
            lz.free(flags)

        plan = capture(svm, body)
        assert dead_temp_elimination(plan) == (0, 1)
        fused = fuse(plan)
        assert fused.removed == (0, 1)
        assert fused.units == [2]  # only the free remains

    def test_live_out_buffer_kept(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            lz.p_add(data, 1)  # caller-owned: never removable

        plan = capture(svm, body)
        assert dead_temp_elimination(plan) == ()

    def test_read_before_free_keeps_writes(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            flags = lz.p_lt(data, 100)
            lz.p_mul(data, flags)  # read: the write is observable
            lz.free(flags)

        assert dead_temp_elimination(capture(svm, body)) == ()

    def test_overwrite_kills_earlier_writes(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            flags = lz.p_lt(data, 100)     # dead: overwritten below
            lz.p_add(flags, 1)             # dead
            lz.p_lt(data, 7, out=flags)    # kill (fresh src, full write)
            lz.p_mul(data, flags)
            lz.free(flags)

        assert dead_temp_elimination(capture(svm, body)) == (0, 1)

    def test_replay_read_keeps_temp_alive(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            flags = lz.p_lt(data, 100)
            lz.pack(data, flags)
            lz.free(flags)

        assert dead_temp_elimination(capture(svm, body)) == ()


class TestDescribe:
    def test_plan_and_fused_dumps(self, svm):
        data = make_data(svm, 64)

        def body(lz):
            lz.p_add(data, 1)
            lz.p_mul(data, 2)
            lz.plus_scan(data)

        plan = capture(svm, body)
        fused = fuse(plan)
        assert "p_add.vx" in plan.describe()
        text = fused.describe(plan)
        assert "fuse [0, 1, 2]" in text
        assert "plus-scan tail" in text
