"""API-surface behavior of ``svm.batch``/``run_batch``: ordering,
bucketing reports, cache sharing, observability, and edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SVM
from repro.batch import run_batch, runner
from repro.engine import executor
from repro.engine.ir import EngineError
from repro.engine.native import native_available

from .conftest import assert_equivalent, loop_reference, make_rows


def _pipe(lz, data):
    lz.p_add(data, 1)
    lz.plus_scan(data)
    return data


def test_empty_batch():
    svm = SVM(vlen=128)
    result = svm.batch(_pipe, [])
    assert len(result) == 0 and result.buckets == []


def test_single_row_matches_single_call():
    row = make_rows((4096,), seed=1)[0]
    single = SVM(vlen=128, mode="fast")
    data = single.array(row)
    with single.lazy() as lz:
        _pipe(lz, data)
    batched = SVM(vlen=128, mode="fast")
    result = batched.batch(_pipe, [row])
    assert np.array_equal(result[0], data.to_numpy())
    assert single.counters.snapshot().by_category \
        == batched.counters.snapshot().by_category


def test_outputs_keep_input_order():
    lengths = (64, 4096, 64, 300, 4096, 64)
    rows = make_rows(lengths, seed=2)
    svm = SVM(vlen=128, mode="fast")
    result = svm.batch(_pipe, rows)
    for row, out in zip(rows, result):
        assert out.size == row.size
        assert out[0] == row[0] + 1  # plus_scan keeps lane 0
    covered = sorted(i for b in result.buckets for i in b.indices)
    assert covered == list(range(len(rows)))


def test_list_inputs_use_default_dtype():
    svm = SVM(vlen=128)
    result = svm.batch(_pipe, [[1, 2, 3], [4, 5, 6]])
    assert result[0].dtype == np.uint32
    assert result[1].tolist() == [5, 11, 18]


def test_pipe_must_return_output():
    svm = SVM(vlen=128)
    with pytest.raises(EngineError, match="must return"):
        run_batch(svm, lambda lz, data: None, [[1, 2, 3]])


def test_non_1d_input_rejected():
    svm = SVM(vlen=128)
    with pytest.raises(EngineError, match="1-D"):
        svm.batch(_pipe, [np.zeros((2, 2), dtype=np.uint32)])


def test_batch_shares_plan_cache_with_single_calls():
    svm = SVM(vlen=128, mode="fast")
    rows = make_rows((4096,) * 3, seed=4)
    data = svm.array(rows[0])
    with svm.lazy() as lz:
        _pipe(lz, data)
    svm.free(data)
    stats = svm.engine.cache.stats
    misses_before = stats.misses
    svm.batch(_pipe, rows)
    assert stats.misses == misses_before  # same signature, pure hits
    assert svm.engine.cache.size == 1


def test_batch_observability():
    svm = SVM(vlen=128, mode="fast", profile=True)
    svm.batch(_pipe, make_rows((4096, 4096, 64), seed=6))
    col = svm.profiler
    col.finish()
    spans = [s.name for s in col.root.walk()]
    assert spans.count("batch_bucket") == 2
    hist = col.metrics.histogram("batch.size")
    assert hist.count == 2 and hist.total == 3
    assert col.metrics.counter("batch.rows").value == 3
    events = [e.name for e in col.events]
    assert "batch.bucket" in events


def test_sim_memory_is_reclaimed():
    """A batch must not leak plan buffers into the simulated heap:
    back-to-back batches at the same lengths reuse the same arena."""
    svm = SVM(vlen=128, mode="fast")
    rows = make_rows((4096, 300, 4096), seed=8)
    svm.batch(_pipe, rows)
    used_after_first = svm.machine.heap.live_bytes
    for _ in range(3):
        svm.batch(_pipe, rows)
    assert svm.machine.heap.live_bytes == used_after_first


@pytest.mark.parametrize("mode", ["fast", "strict"])
@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
@pytest.mark.parametrize("n_rows", [1, 2, 3])
def test_identity_pipeline_returns_inputs(mode, dtype, n_rows):
    """A pipeline that records no node holds no plan buffer for its
    input or output: the bucket returns what a loop of single calls
    returns (the inputs) and frees every input it allocated."""
    def identity(lz, data):
        return data

    rows = make_rows((8,) * n_rows, seed=11, dtype=dtype)
    assert_equivalent(identity, rows, vlen=128, mode=mode)
    svm = SVM(vlen=128, mode=mode)
    live = svm.machine.heap.live_bytes
    result = svm.batch(identity, rows)
    assert svm.machine.heap.live_bytes == live
    for row, out in zip(rows, result):
        assert out.dtype == dtype and np.array_equal(out, row)
    assert [b.path for b in result.buckets] == ["loop"]


def _pack_pipe(lz, data):
    flags = lz.p_lt(data, 2**15)
    out, _kept = lz.pack(data, flags)
    lz.free(flags)
    return out


@pytest.mark.parametrize("mode,lengths,captures", [
    ("strict", (300,) * 3, 3),  # loop: one capture per row
    ("fast", (4096,), 1),       # 1-row loop: the probe is the row
    ("fast", (4096,) * 3, 1),   # matrix: only row 0 is captured
])
def test_rows_capture_and_resolve_once(monkeypatch, mode, lengths,
                                       captures):
    """Row 0 is the probe on every path: a loop bucket captures and
    resolves each row exactly once, a matrix bucket only row 0."""
    calls = []
    capture = runner._capture

    def spy(*args):
        calls.append(args)
        return capture(*args)

    monkeypatch.setattr(runner, "_capture", spy)
    svm = SVM(vlen=128, mode=mode)
    before = sum(svm.engine.resolutions.values())
    svm.batch(_pipe, make_rows(lengths, seed=9))
    assert len(calls) == captures
    assert sum(svm.engine.resolutions.values()) - before == captures


@pytest.mark.parametrize("pipe", [_pipe, _pack_pipe])
@pytest.mark.parametrize("backend", ["codegen", "native"])
def test_charge_profile_recorded_once_per_cache_entry(monkeypatch, backend,
                                                      pipe):
    """The closed-form profile is a static fact of the plan-cache entry:
    it is set as soon as ``fused_for`` returns, once per entry, and
    matrix buckets, loop buckets and single calls all use it without a
    Python recording run — on a native backend with a toolchain no
    single-call execution (row 0, a loop row, a lazy call) runs the
    Python unit loop at all."""
    units = []
    run_units = executor.run_units
    monkeypatch.setattr(executor, "run_units", lambda *a: (
        units.append(a[1]), run_units(*a))[1])
    profiles = {}
    fused_for = executor.Engine.fused_for

    def spy(self, plan):
        fused = fused_for(self, plan)
        assert fused.charge_items
        profiles[id(fused)] = fused.charge_items
        return fused

    monkeypatch.setattr(executor.Engine, "fused_for", spy)
    svm = SVM(vlen=128, mode="fast", backend=backend)
    rows = make_rows((4096, 300, 4096, 300), seed=12)
    for _ in range(2):
        svm.batch(pipe, rows)        # two matrix buckets
        svm.batch(pipe, rows[:2])    # two 1-row loop buckets
        data = svm.array(rows[0])
        with svm.lazy() as lz:       # a single call
            out = pipe(lz, data)
        svm.free(data)
        if out.ptr.addr != data.ptr.addr:
            svm.free(out)
    assert len(profiles) == svm.engine.resolutions["compile"] == 2
    if backend != "codegen" and native_available():
        assert units == []


def _gather_2d(lz, data):
    # each row is the index vector of a gather from [0, 1, ..., n-1]
    return lz.back_permute(lz.index_array(data.n), data)


def _gather_ragged(lz, data):
    vals = _gather_2d(lz, data)
    out, _ = lz.pack(vals, lz.p_lt(vals, 4))
    return out


def _gather_loop(lz, data):
    vals = _gather_2d(lz, data)
    lz.p_srl(vals, lz.reduce(vals))  # a future shift: per-row loop
    return vals


def test_pipeline_raising_at_capture_frees_its_row():
    """A pipeline that raises while it is recorded, or returns no
    output, leaves the heap as it was: the row's input and the
    recorder's temporaries are freed."""
    def raising(lz, data):
        lz.zeros(data.n)
        lz.copy(data)
        raise RuntimeError("boom")

    def no_output(lz, data):
        lz.p_add(lz.copy(data), 1)

    svm = SVM(vlen=128)
    live = svm.machine.heap.live_bytes
    rows = make_rows((8,) * 3, seed=5, dtype=np.uint32)
    with pytest.raises(RuntimeError):
        svm.batch(raising, rows)
    assert svm.machine.heap.live_bytes == live
    with pytest.raises(EngineError):
        svm.batch(no_output, rows)
    assert svm.machine.heap.live_bytes == live


@pytest.mark.parametrize("backend", [
    "codegen",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="no C toolchain on this host")),
])
@pytest.mark.parametrize("bad_row", [0, 1])
@pytest.mark.parametrize("path, pipe", [
    ("2d", _gather_2d), ("ragged", _gather_ragged), ("loop", _gather_loop),
], ids=["2d", "ragged", "loop"])
def test_out_of_range_index_raises_on_every_path(path, pipe, bad_row,
                                                 backend):
    """An index past the gathered array raises IndexError whichever row
    holds it and whichever path the bucket takes — also a ``uint64``
    index at 2**64-1, which must not wrap negative — and leaves the
    heap as it was."""
    svm = SVM(vlen=128, mode="fast", backend=backend)
    for dtype, bads in ((np.uint32, (999, 5000)), (np.uint64, (2**64 - 1,))):
        rows = [np.arange(8, dtype=dtype)[::-1].copy() for _ in range(4)]
        assert svm.batch(pipe, rows).buckets[0].path == path
        live = svm.machine.heap.live_bytes
        for bad in bads:
            rows[bad_row][3] = bad
            with pytest.raises(IndexError):
                svm.batch(pipe, rows)
            assert svm.machine.heap.live_bytes == live


@pytest.mark.parametrize("backend", [
    "codegen",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="no C toolchain on this host")),
])
@pytest.mark.parametrize("mode", ["fast", "strict"])
def test_pipeline_writing_an_outside_array_takes_the_loop(mode, backend):
    """A pipeline that writes an array it did not allocate (here a
    closure array) repeats that write once per row, as a loop of
    single calls does: the bucket takes the loop, ``ext`` ends at B,
    and the counters match the loop's."""
    rows = make_rows((300,) * 3, seed=13)
    counts = []
    for batched in (False, True):
        svm = SVM(vlen=128, mode=mode, backend=backend)
        ext = svm.zeros(8)

        def pipe(lz, data):
            lz.p_add(ext, 1)
            lz.p_add(data, 1)
            return data

        if batched:
            result = svm.batch(pipe, rows)
            assert [b.path for b in result.buckets] == ["loop"]
        else:
            loop_reference(svm, pipe, rows)
        assert ext.to_numpy().tolist() == [len(rows)] * 8
        counts.append(svm.counters.snapshot().by_category)
    assert counts[0] == counts[1]
