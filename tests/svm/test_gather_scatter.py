"""Mixed-length gather/scatter helpers: the fast path returns the
strict result and charges the strict kernel's per-category counts,
which strip-mine at the source's SEW."""

import numpy as np
import pytest

from repro import SVM
from repro.svm import gather_any, scatter_any


def _gather(svm, rng, dtype):
    src = svm.array(rng.integers(0, 200, 80).astype(dtype), dtype)
    idx = svm.array(rng.integers(0, 80, 50), np.uint32)
    svm.reset()
    return gather_any(svm, src, idx).to_numpy()


def _scatter(svm, rng, dtype):
    src = svm.array(rng.integers(0, 200, 50).astype(dtype), dtype)
    idx = svm.array(rng.permutation(120)[:50], np.uint32)
    dst = svm.zeros(120, dtype)
    svm.reset()
    scatter_any(svm, src, idx, dst)
    return dst.to_numpy()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
@pytest.mark.parametrize("run", [_gather, _scatter], ids=["gather_any",
                                                         "scatter_any"])
def test_fast_matches_strict(run, dtype):
    got = {}
    for mode in ("strict", "fast"):
        svm = SVM(vlen=128, mode=mode)
        out = run(svm, np.random.default_rng(1), dtype)
        got[mode] = out, svm.counters.snapshot().by_category
    assert np.array_equal(got["strict"][0], got["fast"][0])
    assert got["strict"][1] == got["fast"][1]
