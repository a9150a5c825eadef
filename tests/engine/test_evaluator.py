"""The Python tier's one unit loop (``executor.run_units``).

An all-fast, unprofiled codegen call runs every unit of its plan on
the buffers' 1-D memory views — fused groups through their generated
entry, other nodes through their NumPy body — and charges the plan's
static profile once. These tests hold it to a strict call of the same
loop on the cases only a single call reaches (zero-length arrays of
every node kind, futures feeding fused groups and shifts), check that
a mixed-threshold plan runs each unit on its own tier, and that a plan
which raises releases the buffers its FREE nodes name on every tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SVM
from repro.errors import VectorLengthError
from repro.engine import executor
from repro.engine.fuse import GroupSpec
from repro.engine.ir import Kind, ScalarFuture
from repro.engine.native import NativePlan, native_available


def _shifted(lz, data):
    return lz.shift1up(data, 3)


def _ew_vx(lz, data):
    lz.p_add(data, 7)
    return [data]


def _ew_vv(lz, data):
    lz.p_xor(data, _shifted(lz, data))
    return [data]


def _scan(lz, data):
    lz.scan(data, "max", inclusive=False)
    return [data]


def _select(lz, data):
    lz.p_select(lz.get_flags(data, 0), _shifted(lz, data), data)
    return [data]


def _permute(lz, data):
    idx = lz.index_array(data.n)
    lz.p_rsub(idx, max(data.n - 1, 0))
    return [lz.permute(data, idx)]


def _seg_scan(lz, data):
    lz.seg_scan(data, lz.get_flags(data, 4), inclusive=False)
    return [data]


def _reduce(lz, data):
    lz.p_add(data, lz.reduce(data, "min"))
    return [data]


#: One pipeline per node kind but FREE; each captures at least one node
#: of its kind and returns the arrays to compare.
KIND_PIPES = {
    Kind.EW_VX: _ew_vx,
    Kind.EW_VV: _ew_vv,
    Kind.CMP_VX: lambda lz, data: [lz.p_ge(data, 2**15)],
    Kind.CMP_VV: lambda lz, data: [lz.p_lt(data, _shifted(lz, data))],
    Kind.GET_FLAGS: lambda lz, data: [lz.get_flags(data, 3)],
    Kind.SCAN: _scan,
    Kind.SELECT: _select,
    Kind.PERMUTE: _permute,
    Kind.BACK_PERMUTE: lambda lz, data: [lz.reverse(data)],
    Kind.PACK: lambda lz, data: list(lz.pack(data, lz.get_flags(data, 1))),
    Kind.ENUMERATE: lambda lz, data: list(lz.enumerate(lz.get_flags(data, 2))),
    Kind.SEG_SCAN: _seg_scan,
    Kind.REDUCE: _reduce,
    Kind.SHIFT1UP: lambda lz, data: [_shifted(lz, data)],
    Kind.COPY: lambda lz, data: [lz.copy(data)],
    Kind.INDEX: lambda lz, data: [lz.index_array(data.n)],
}


@pytest.fixture
def tiers(monkeypatch):
    """The tiers a lazy call's units ran on, in order: ``"fast"`` for a
    node's NumPy body, ``"strict"`` for a strict group or a node's
    strict kernel, ``"charge_runs"`` for the all-fast run's one charge
    of the static profile."""
    ran = []
    for name, tier in (("run_node_np", "fast"), ("run_node_strict", "strict"),
                       ("run_group_strict", "strict"),
                       ("charge_runs", "charge_runs")):
        orig = getattr(executor, name)
        monkeypatch.setattr(executor, name, lambda *a, _o=orig, _t=tier: (
            ran.append(_t), _o(*a))[1])
    return ran


def _lazy(pipe, n, *, mode, vlen=128, backend="codegen", **kw):
    """One lazy call of ``pipe`` over a fresh length-``n`` input:
    (outputs, counters by category, the context)."""
    svm = SVM(vlen=vlen, mode=mode, backend=backend, **kw)
    rng = np.random.default_rng(n)
    data = svm.array(rng.integers(0, 2**16, n, dtype=np.uint32))
    svm.reset()
    with svm.lazy() as lz:
        outs = pipe(lz, data)
    return ([o.value if isinstance(o, ScalarFuture) else o.to_numpy()
             for o in outs], svm.counters.snapshot().by_category, svm)


def test_kind_pipes_cover_every_kind():
    assert set(KIND_PIPES) == set(Kind) - {Kind.FREE}


@pytest.mark.parametrize("n", [0, 37])
@pytest.mark.parametrize("kind", list(KIND_PIPES), ids=lambda k: k.value)
def test_every_kind_matches_strict(tiers, kind, n):
    """A fast single call — zero-length included — runs every unit
    fast and charges the static profile once, and equals a strict call
    bit for bit and counter for counter."""
    want, strict, _ = _lazy(KIND_PIPES[kind], n, mode="strict")
    assert set(tiers) == {"strict"}
    tiers.clear()
    got, fast, svm = _lazy(KIND_PIPES[kind], n, mode="fast")
    assert "strict" not in tiers and tiers.count("charge_runs") == 1
    assert kind in {node.kind for node in svm.engine.last_plan.nodes}
    if kind is Kind.PACK:  # lanes past the kept count are undefined
        want[0], got[0] = want[0][:want[1]], got[0][:got[1]]
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
    assert fast == strict


def _future_pipe(lz, data):
    flags = lz.get_flags(data, 0)
    ranks, count = lz.enumerate(flags)
    lz.p_add(data, count)      # the count feeds a fused group ...
    lz.p_srl(data, count)      # ... and a shift inside it
    lz.plus_scan(data)
    total = lz.reduce(data, "max")
    lz.p_xor(ranks, total)     # a reduction feeds an eager node
    lz.free(flags)
    return [data, ranks]


def test_futures_feed_groups_and_shifts_in_program_order():
    """Futures resolve as the evaluator produces them, so a fused group
    and a shift that read one see this call's value. The batch runner
    declines such plans, so only the single call covers them."""
    from repro.batch.runner import _batchable

    want, strict, _ = _lazy(_future_pipe, 300, mode="strict", vlen=256)
    got, fast, svm = _lazy(_future_pipe, 300, mode="fast", vlen=256)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
    assert fast == strict
    plan, fused = svm.engine.last_plan, svm.engine.last_fused
    grouped = {i for u in fused.units if isinstance(u, GroupSpec)
               for i in u.node_indices}
    assert any(isinstance(plan.nodes[i].scalar, ScalarFuture)
               for i in grouped)
    assert not _batchable(plan, fused)


def test_mixed_threshold_plan_takes_the_unit_loop(tiers):
    """Two arrays on either side of ``fast_threshold`` in one lazy
    block: not all-fast, so the unit loop runs the long array's units
    fast and the short one's strict, charging unit by unit — and the
    whole equals strict."""

    def run(mode):
        svm = SVM(vlen=128, mode=mode, fast_threshold=100)
        rng = np.random.default_rng(4)
        big = svm.array(rng.integers(0, 2**16, 300, dtype=np.uint32))
        small = svm.array(rng.integers(0, 2**16, 40, dtype=np.uint32))
        svm.reset()
        with svm.lazy() as lz:
            for a in (big, small):
                lz.p_add(a, 5)
                lz.p_mul(a, 3)
                lz.plus_scan(a)
                lz.p_select(lz.get_flags(a, 0), lz.reverse(a), a)
        fused = svm.engine.last_fused
        assert fused.min_n == 40 and fused.n_groups >= 2
        return ([big.to_numpy(), small.to_numpy()],
                svm.counters.snapshot().by_category)

    want, strict = run("strict")
    assert set(tiers) == {"strict"}
    tiers.clear()
    got, auto = run("auto")
    assert set(tiers) == {"fast", "strict"}
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
    assert auto == strict


@pytest.mark.parametrize("mode,backend", [
    ("fast", "codegen"), ("strict", "codegen"), ("fast", "native")])
def test_raising_plan_frees_its_free_nodes(monkeypatch, mode, backend):
    """An out-of-range permute raises IndexError on every tier — also a
    ``uint64`` index at 2**64-1, which must not wrap negative — and the
    buffer the plan would have freed after it is freed all the same."""
    if backend == "native" and not native_available():
        pytest.skip("no C toolchain on this host")
    ran = []
    run = NativePlan.run
    monkeypatch.setattr(NativePlan, "run", lambda self, svm, plan: (
        ran.append(1), run(self, svm, plan))[1])
    svm = SVM(vlen=128, mode=mode, backend=backend)
    src = svm.array(np.arange(8, dtype=np.uint32))
    bad = [svm.array(np.array([99, 1, 2, 3, 4, 5, 6, 7], dtype=np.uint32)),
           svm.array([2**64 - 1, 1, 2, 3, 4, 5, 6, 7], np.uint64)]
    heap = svm.machine.heap
    before = heap.live_bytes
    for idx in bad:
        with pytest.raises(IndexError):
            with svm.lazy() as lz:
                out = lz.permute(src, idx)
                lz.free(out)
        assert heap.live_bytes == before
    assert bool(ran) == (backend == "native")


@pytest.mark.parametrize("mode,backend", [
    ("fast", "codegen"), ("strict", "codegen"), ("fast", "native")])
def test_raising_block_frees_its_temporaries(mode, backend):
    """A lazy block or plan that raises, and an eager call that raises,
    leave the heap as they found it: the recorder checks lengths before
    it allocates, and frees its live temporaries on the way out."""
    svm = SVM(vlen=128, mode=mode, backend=backend)
    src = svm.array(np.arange(8, dtype=np.uint32))
    short = svm.array(np.arange(4, dtype=np.uint32))
    bad = svm.array(np.array([99, 1, 2, 3, 4, 5, 6, 7], dtype=np.uint32))
    heap = svm.machine.heap
    before = heap.live_bytes
    with pytest.raises(VectorLengthError):
        with svm.lazy() as lz:
            lz.zeros(8)
            lz.permute(src, short)
    assert heap.live_bytes == before
    with pytest.raises(IndexError):
        with svm.lazy() as lz:
            lz.permute(src, bad)
    assert heap.live_bytes == before
    with pytest.raises(VectorLengthError):
        svm.permute(src, short)
    with pytest.raises(IndexError):
        svm.back_permute(src, bad)
    assert heap.live_bytes == before
