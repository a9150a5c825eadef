"""The ragged-path identity gate: pack-tailed pipelines batched as one
masked 2D evaluation must match the per-row loop on every defined lane
and on every per-category counter, across the VLEN x LMUL x codegen
grid, on the codegen and native backends — including rows where the
predicate keeps nothing and rows where it keeps everything. The
registry's ``get_spec("pack").ragged2d`` flag, which ``repro ops``
reports, must keep declaring the recipe the runner takes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SVM
from repro.batch import RaggedBatch, pack2d, run_batch
from repro.engine.native import native_available
from repro.rvv.types import LMUL
from repro.svm.opspec import get_spec

from .conftest import make_rows, run_both

THRESH = 2**15


def pipe_pack(lz, data):
    """Bare pack: the minimal ragged shape."""
    flags = lz.p_lt(data, THRESH)
    out, _kept = lz.pack(data, flags)
    lz.free(flags)
    return out


def pipe_pack_filter(lz, data):
    """Range filter (two compares merged) feeding pack — the serve
    daemon's ``filter`` pipeline shape."""
    lt_hi = lz.p_lt(data, 3 * 2**14)
    ge_lo = lz.p_ge(data, 2**14)
    lz.p_mul(ge_lo, lt_hi)
    out, _kept = lz.pack(data, ge_lo)
    lz.free(ge_lo)
    lz.free(lt_hi)
    return out


def pipe_pack_future(lz, data):
    """Pack whose kept future feeds a later scalar operand: the
    per-row kept vector threads through the prefix-local p_add."""
    flags = lz.p_lt(data, THRESH)
    out, kept = lz.pack(data, flags)
    lz.p_add(out, kept)
    lz.free(flags)
    return out


def pipe_radix_split(lz, data):
    """One radix pass (split by bit 0, itself future-bearing) feeding
    a pack — the serve daemon's ``radix_pack`` pipeline shape."""
    flags = lz.get_flags(data, 0)
    part, _zeros = lz.split(data, flags)
    keep = lz.p_lt(part, THRESH)
    out, _kept = lz.pack(part, keep)
    lz.free(keep)
    lz.free(part)
    lz.free(flags)
    return out


#: name -> (pipeline, survivor-count oracle on the raw row)
RAGGED_PIPELINES = {
    "pack": (pipe_pack, lambda d: int((d < THRESH).sum())),
    "pack_filter": (pipe_pack_filter,
                    lambda d: int(((d >= 2**14) & (d < 3 * 2**14)).sum())),
    "pack_future": (pipe_pack_future, lambda d: int((d < THRESH).sum())),
    "radix_split": (pipe_radix_split, lambda d: int((d < THRESH).sum())),
}


def assert_ragged_equivalent(name, rows, **svm_kwargs):
    pipe, kept_of = RAGGED_PIPELINES[name]
    loop_outs, loop_counts, result, batch_counts = run_both(
        pipe, rows, **svm_kwargs)
    assert len(result) == len(rows)
    for i, (row, want, got) in enumerate(zip(rows, loop_outs, result)):
        kept = kept_of(row)
        assert result.lengths[i] == kept, f"row {i} kept count"
        assert np.array_equal(want[:kept], got[:kept]), f"row {i} diverged"
    assert loop_counts.by_category == batch_counts.by_category
    return result


def test_registry_declares_the_ragged_recipe():
    spec = get_spec("pack")
    assert spec.data_dependent and spec.ragged2d and not spec.batch2d


#: (codegen model, backend) pairs; the codegen backend keeps the bare
#: model name.
GRID_BACKENDS = [
    pytest.param(codegen, backend,
                 id=codegen if backend == "codegen" else f"{codegen}-{backend}",
                 marks=() if backend == "codegen" else pytest.mark.skipif(
                     not native_available(), reason="no C toolchain"))
    for backend in ("codegen", "native")
    for codegen in ("ideal", "paper")
]


@pytest.mark.parametrize("codegen,backend", GRID_BACKENDS)
@pytest.mark.parametrize("vlen", [128, 512])
@pytest.mark.parametrize("lmul", [LMUL.M1, LMUL.M4, LMUL.M8])
@pytest.mark.parametrize("name", sorted(RAGGED_PIPELINES))
def test_grid(name, vlen, lmul, codegen, backend):
    rows = make_rows((300, 300, 300), seed=29)
    kw = dict(vlen=vlen, lmul=lmul, mode="fast", codegen=codegen)
    result = assert_ragged_equivalent(name, rows, backend=backend, **kw)
    assert {b.path for b in result.buckets} == {"ragged"}
    if backend == "native":
        # the C kernel's per-row survivor strips, at this LMUL's VLMAX,
        # against the NumPy evaluation's
        counts = []
        for be in ("codegen", "native"):
            svm = SVM(backend=be, **kw)
            svm.batch(RAGGED_PIPELINES[name][0], rows)
            counts.append(svm.counters.snapshot().by_category)
        assert counts[0] == counts[1]


#: (pipeline, backend) pairs; the codegen case keeps the bare name.
SURVIVOR_CASES = [
    pytest.param(name, backend,
                 id=name if backend == "codegen" else f"{name}-{backend}")
    for backend in ("codegen", "native")
    for name in sorted(RAGGED_PIPELINES)
]


@pytest.mark.parametrize("name,backend", SURVIVOR_CASES)
def test_empty_and_full_survivor_rows(name, backend):
    """Rows whose predicate keeps nothing (length 0) and everything
    (length n) bracket the ragged charge: zero strips-with-survivors
    on one end, every strip on the other. Row 0's survivor count
    differs from the other rows', so a charge derived from row 0's own
    counters would drift."""
    rng = np.random.default_rng(31)
    n = 300
    mixed = rng.integers(0, 2**16, n, dtype=np.uint32)
    # 60000 fails every pipeline's predicate; [2^14, 2^15) passes all
    none_kept = np.full(n, 60_000, dtype=np.uint32)
    all_kept = rng.integers(2**14, THRESH, n, dtype=np.uint32)
    rows = [mixed, none_kept, all_kept, mixed]
    result = assert_ragged_equivalent(name, rows, vlen=128, mode="fast",
                                      backend=backend)
    assert {b.path for b in result.buckets} == {"ragged"}
    _, kept_of = RAGGED_PIPELINES[name]
    assert result.lengths[1] == kept_of(none_kept) == 0
    assert result.lengths[2] == kept_of(all_kept) == n


def test_run_batch_single_bucket_and_to_ragged():
    """A one-bucket batch (the serving daemon's flush shape) reports
    per-row lengths and converts to a RaggedBatch whose mask/rows agree
    with them."""
    rows = make_rows((2600,) * 3, seed=37)
    svm = SVM(vlen=512, mode="fast")
    result = run_batch(svm, pipe_pack, rows)
    assert {b.path for b in result.buckets} == {"ragged"}
    assert result.buckets[0].lengths == tuple(result.lengths)
    ragged = result.to_ragged()
    assert isinstance(ragged, RaggedBatch)
    assert ragged.values.shape == (3, 2600)
    for i, row in enumerate(rows):
        kept = int((row < THRESH).sum())
        assert ragged.lengths[i] == kept
        assert ragged.mask[i].sum() == kept
        assert np.array_equal(ragged.row(i), row[row < THRESH])
    assert [len(r) for r in ragged.to_list()] == list(ragged.lengths)


def test_strict_mode_still_loops_with_lengths():
    """Strict mode forbids the matrix path; the loop must still carry
    the per-row lengths column so callers see uniform semantics."""
    rows = make_rows((300,) * 3, seed=41)
    result = assert_ragged_equivalent("pack", rows, vlen=128, mode="strict")
    assert {b.path for b in result.buckets} == {"loop"}
    assert all(isinstance(k, int) for k in result.lengths)


def test_non_prefix_local_consumer_falls_back_to_loop():
    """A reverse (back_permute) of the packed buffer reads undefined
    tail lanes, so the runner must refuse the ragged promotion."""
    def pipe(lz, data):
        flags = lz.p_lt(data, THRESH)
        out, _kept = lz.pack(data, flags)
        rev = lz.reverse(out)
        lz.free(flags)
        lz.free(out)
        return rev

    rows = make_rows((300,) * 3, seed=43)
    loop_outs, loop_counts, result, batch_counts = run_both(
        pipe, rows, vlen=128, mode="fast")
    assert {b.path for b in result.buckets} == {"loop"}
    for want, got in zip(loop_outs, result):
        assert np.array_equal(want, got)  # same allocation order: exact
    assert loop_counts.by_category == batch_counts.by_category


def test_pack2d_kernel_matches_per_row_compaction():
    rng = np.random.default_rng(47)
    src = rng.integers(0, 2**16, (5, 64), dtype=np.uint32)
    flags = rng.integers(0, 2, (5, 64), dtype=np.uint32)
    flags[1] = 0            # empty-survivor row
    flags[2] = 1            # all-survivor row
    dst = np.zeros_like(src)
    kept = pack2d(src, flags, dst)
    for i in range(5):
        want = src[i][flags[i] != 0]
        assert kept[i] == want.size
        assert np.array_equal(dst[i, : kept[i]], want)
    # in-place compaction is part of the kernel contract
    work = src.copy()
    kept2 = pack2d(work, flags, work)
    assert np.array_equal(kept2, kept)
    for i in range(5):
        assert np.array_equal(work[i, : kept[i]], dst[i, : kept[i]])


def test_raggedbatch_validation():
    with pytest.raises(ValueError):
        RaggedBatch(np.zeros(4), np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError):
        RaggedBatch(np.zeros((2, 4)), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        RaggedBatch(np.zeros((2, 4)), np.array([5, 0]))
    rb = RaggedBatch(np.arange(8).reshape(2, 4), np.array([2, 4]))
    assert len(rb) == 2
    assert np.array_equal(rb.mask, [[True, True, False, False]] + [[True] * 4])
