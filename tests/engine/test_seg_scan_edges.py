"""Segmented-scan edge cases through the engine path.

``seg_scan`` captures as a structured ``SEG_SCAN`` node that the
engine replays eagerly rather than fusing — but the replay must still be
bit-identical and counter-identical to the eager call at every edge:
empty input, a single segment, every element its own segment, and a
segment boundary that lands exactly on a strip boundary, across the
full VLEN × LMUL grid (the strip length vlmax = VLEN·LMUL/SEW moves
with every grid point, which is exactly why the boundary case must be
parameterized over the grid and not hard-coded).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SVM
from repro.rvv.types import LMUL

VLENS = (128, 256, 512, 1024)
LMULS = (1, 2, 4, 8)
SEW_BITS = 32


def _cases(vlmax):
    """(label, values, head_flags) edge cases for one grid point."""
    g = np.random.default_rng(7)

    def vals(n):
        return g.integers(0, 2**16, n, dtype=np.uint32)

    n = 2 * vlmax
    boundary = np.zeros(n, dtype=np.uint32)
    boundary[0] = 1
    boundary[vlmax] = 1  # second segment starts exactly at strip 2
    return [
        ("empty", vals(0), np.zeros(0, dtype=np.uint32)),
        ("single-segment", vals(3 * vlmax + 1),
         np.zeros(3 * vlmax + 1, dtype=np.uint32)),
        ("all-heads", vals(vlmax + 3), np.ones(vlmax + 3, dtype=np.uint32)),
        ("strip-boundary", vals(n), boundary),
    ]


def _eager(vlen, lmul, values, flags):
    svm = SVM(vlen=vlen, codegen="paper", mode="fast")
    data, fl = svm.array(values), svm.array(flags)
    svm.reset()
    svm.seg_plus_scan(data, fl, lmul=lmul)
    return svm.machine.counters.snapshot(), data.to_numpy()


def _engine(vlen, lmul, values, flags, mode):
    svm = SVM(vlen=vlen, codegen="paper", mode=mode)
    data, fl = svm.array(values), svm.array(flags)
    svm.reset()
    with svm.lazy() as lz:
        lz.seg_plus_scan(data, fl, lmul=lmul)
    return svm.machine.counters.snapshot(), data.to_numpy()


@pytest.mark.parametrize("vlen", VLENS)
@pytest.mark.parametrize("lmul", LMULS)
def test_seg_scan_edges_grid(vlen, lmul):
    lm = LMUL(lmul)
    vlmax = vlen * lmul // SEW_BITS
    for label, values, flags in _cases(vlmax):
        ref_snap, ref = _eager(vlen, lm, values, flags)
        for mode in ("strict", "fast"):
            snap, got = _engine(vlen, lm, values, flags, mode)
            assert np.array_equal(ref, got), (label, vlen, lmul, mode)
            assert ref_snap.by_category == snap.by_category, (
                label, vlen, lmul, mode)


def test_seg_scan_semantics_at_boundary():
    # independent oracle for the strip-boundary case: with heads at 0
    # and vlmax, the second segment's scan must restart from zero (a
    # carry leaking across the strip boundary would add strip 1's total)
    vlen, lm = 256, LMUL.M1
    vlmax = vlen // SEW_BITS
    values = np.ones(2 * vlmax, dtype=np.uint32)
    flags = np.zeros(2 * vlmax, dtype=np.uint32)
    flags[0] = 1
    flags[vlmax] = 1
    _, got = _engine(vlen, lm, values, flags, "fast")
    expect = np.concatenate([np.arange(1, vlmax + 1, dtype=np.uint32)] * 2)
    assert np.array_equal(got, expect)
