"""Batch-vs-loop equivalence: results and per-category counters.

``svm.batch`` promises to be bit- and counter-identical to looping the
single-input path. These tests sweep that promise across VLEN, LMUL,
codegen presets, dtypes, ragged lengths (mixing strict and fast
buckets under auto mode), scan variants, and pack's ragged promotion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rvv.types import LMUL
from repro.svm.context import AUTO_FAST_THRESHOLD

from ..engine.conftest import PIPELINES
from .conftest import as_batch_pipe, assert_equivalent, make_rows, run_both

#: Mixes duplicate lengths (shared buckets), sub- and super-threshold
#: lengths (strict and fast rows under auto mode), and a length-1 row.
RAGGED = (300, 64, 300, AUTO_FAST_THRESHOLD, 64, 1)

#: pack's destination lanes beyond the kept count are uninitialized
#: memory (malloc semantics), so whole-array bit-comparison is only
#: meaningful when both spellings allocate in the same order — the
#: pack pipeline gets defined-lane ragged coverage below instead.
GRID_PIPELINES = sorted(set(PIPELINES) - {"pack_future"})


@pytest.mark.parametrize("codegen", ["ideal", "paper"])
@pytest.mark.parametrize("vlen", [128, 512])
@pytest.mark.parametrize("lmul", [LMUL.M1, LMUL.M4, LMUL.M8])
@pytest.mark.parametrize("name", GRID_PIPELINES)
def test_grid(name, vlen, lmul, codegen):
    rows = make_rows(RAGGED, seed=3)
    assert_equivalent(as_batch_pipe(PIPELINES[name], lmul), rows,
                      vlen=vlen, codegen=codegen)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_dtypes(dtype):
    rows = make_rows((257, 64, 257), seed=5, dtype=dtype)
    assert_equivalent(as_batch_pipe(PIPELINES["chain_scan"], LMUL.M1), rows,
                      vlen=128, mode="fast")


@pytest.mark.parametrize("mode", ["strict", "fast", "auto"])
def test_modes(mode):
    # every length appears twice: single-row buckets always report the
    # "loop" path, which would muddy the per-mode expectation below
    rows = make_rows((129, 300, 129, 300), seed=7)
    result = assert_equivalent(
        as_batch_pipe(PIPELINES["chain_scan"], LMUL.M1), rows,
        vlen=128, mode=mode,
    )
    # the 2D path only applies where the fast path applies
    want = "2d" if mode == "fast" else "loop"
    assert {b.path for b in result.buckets} == {want}


def test_scan_variants():
    def pipe(lz, data):
        lz.p_add(data, 3)
        lz.scan_exclusive(data)       # eager exclusive scan, 2D axis=1
        lz.scan(data, "max")          # fused max-scan tail
        lz.p_xor(data, 9)
        lz.scan(data, "xor", inclusive=False)
        return data

    rows = make_rows((4096, 300, 4096), seed=11)
    assert_equivalent(pipe, rows, vlen=512, mode="fast")


def _seg_max(lz, data):
    flags = lz.get_flags(data, 4)
    lz.seg_scan(data, flags, "max")
    lz.free(flags)
    return data


def _seg_exclusive(lz, data):
    flags = lz.get_flags(data, 2)
    lz.seg_scan(data, flags, inclusive=False)
    lz.free(flags)
    return data


def _shift1up(lz, data):
    return lz.shift1up(data, 7)


def _copy(lz, data):
    out = lz.copy(data)
    lz.p_add(data, 1)          # the copy keeps the pre-add values
    lz.p_sub(out, data)
    return out


def _reduce_column(lz, data):
    total = lz.reduce(data, "max")
    lz.p_add(data, total)      # a [B-1, 1] column of per-row maxima
    return data


def _enumerate_zeros(lz, data):
    flags = lz.get_flags(data, 0)
    ranks, count = lz.enumerate(flags, set_bit=False)
    lz.p_add(ranks, count)
    lz.free(flags)
    return ranks


def _permute(lz, data):
    # a per-row permutation: the lanes ordered by their low bit
    flags = lz.get_flags(data, 0)
    perm, _ = lz.split(lz.index_array(data.n), flags)
    return lz.permute(data, perm)


def _cmp_vv_select(lz, data):
    other = lz.shift1up(data, 0)
    flags = lz.p_lt(data, other)   # unfused: between structured nodes
    lz.p_select(flags, other, data)
    lz.free(other)
    lz.free(flags)
    return data


@pytest.mark.parametrize("pipe", [
    _seg_max, _seg_exclusive, _shift1up, _copy, _reduce_column,
    _enumerate_zeros, _permute, _cmp_vv_select,
], ids=lambda f: f.__name__.lstrip("_"))
def test_structured_kinds_on_2d_path(pipe):
    """Every structured node kind the 2D path evaluates matches the
    loop of single calls, on the 2D path itself."""
    rows = make_rows((300,) * 6, seed=29)
    result = assert_equivalent(pipe, rows, vlen=256, fast_threshold=0)
    assert [b.path for b in result.buckets] == ["2d"]


def _scan_exclusive(lz, data):
    lz.scan_exclusive(data)
    return data


def _seg_inclusive(lz, data):
    flags = lz.get_flags(data, 1)
    lz.seg_scan(data, flags)
    lz.free(flags)
    return data


@pytest.mark.parametrize("pipe", [
    _scan_exclusive, _seg_inclusive, _seg_exclusive, _shift1up,
], ids=lambda f: f.__name__.lstrip("_"))
def test_zero_length_rows_on_2d_path(pipe):
    """Kinds whose NumPy body writes lane 0 are no-ops on an empty
    trailing axis: zero-length rows batch on the 2D path and match the
    loop."""
    rows = [np.zeros(0, np.uint32)] * 3
    result = assert_equivalent(pipe, rows, vlen=128, mode="fast")
    assert [b.path for b in result.buckets] == ["2d"]
    assert all(out.size == 0 for out in result)


def test_pack_ragged_interleaved_buckets():
    """Mixed-length batches reorder rows by bucket, so pack's
    undefined tail lanes see different heap garbage than the
    input-order loop — the defined lanes and the counters must still
    match exactly. Under auto mode every bucket here is sub-threshold
    or single-row, so all stay on the per-row loop (which must still
    report per-row lengths)."""
    rows = make_rows(RAGGED, seed=3)
    pipe = as_batch_pipe(PIPELINES["pack_future"], LMUL.M1)
    loop_outs, loop_counts, result, batch_counts = run_both(
        pipe, rows, vlen=128, mode="auto"
    )
    for row, want, got, length in zip(rows, loop_outs, result,
                                      result.lengths):
        kept = int((row < 2**15).sum())  # pipe packs on p_lt(data, 2**15)
        assert length == kept
        assert np.array_equal(want[:kept], got[:kept])
    assert loop_counts.by_category == batch_counts.by_category
    assert {b.path for b in result.buckets} == {"loop"}


def test_pack_promotes_to_ragged_path():
    """Pack pipelines no longer fall back to the per-row loop: the
    bucket executes as one masked 2D evaluation on the "ragged" path,
    with per-row kept counts threading through the p_add(out, kept)
    future consumer and counters exactly matching the loop."""
    rows = make_rows((300, 300, 64), seed=13)
    pipe = as_batch_pipe(PIPELINES["pack_future"], LMUL.M1)
    loop_outs, loop_counts, result, batch_counts = run_both(
        pipe, rows, vlen=128, mode="fast"
    )
    assert {b.path for b in result.buckets} == {"ragged", "loop"}
    by_n = {b.n: b for b in result.buckets}
    assert by_n[300].path == "ragged"   # 2 rows share the matrix
    assert by_n[64].path == "loop"      # single-row bucket
    for row, want, got, length in zip(rows, loop_outs, result,
                                      result.lengths):
        kept = int((row < 2**15).sum())
        assert length == kept
        assert np.array_equal(want[:kept], got[:kept])
    assert loop_counts.by_category == batch_counts.by_category


def test_mixed_dtype_rows_bucket_separately():
    a = make_rows((300, 300), seed=17, dtype=np.uint32)
    b = make_rows((300,), seed=19, dtype=np.uint16)
    rows = [a[0], b[0], a[1]]

    def pipe(lz, data):
        lz.p_add(data, 2)
        lz.plus_scan(data)
        return data

    result = assert_equivalent(pipe, rows, vlen=128, mode="fast")
    assert len(result.buckets) == 2
    by_dtype = {bkt.dtype: bkt for bkt in result.buckets}
    assert by_dtype["uint32"].indices == (0, 2)
    assert by_dtype["uint16"].indices == (1,)


def test_large_fast_bucket_matches_scaled_single_run():
    """B identical-length rows must charge exactly B x one row's
    closed-form profile (data-obliviousness made scaling exact)."""
    from repro import SVM

    rows = make_rows((5000,) * 7, seed=23)
    single = SVM(vlen=512, mode="fast")
    pipe = as_batch_pipe(PIPELINES["chain_scan"], LMUL.M1)
    data = single.array(rows[0])
    with single.lazy() as lz:
        pipe(lz, data)
    one = single.counters.snapshot()

    batched = SVM(vlen=512, mode="fast")
    batched.batch(pipe, rows)
    total = batched.counters.snapshot()
    assert total.by_category == {
        cat: count * len(rows) for cat, count in one.by_category.items()
    }
