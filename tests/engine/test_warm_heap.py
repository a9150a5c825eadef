"""Warm calls reuse the heap: a loop of single ``svm.lazy()`` calls
over the perfbench pipelines leaves nothing allocated after each call,
and after the first call every block it asks for is one it freed."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.reference import PIPELINES
from repro import SVM


def _call(svm, pipe, x):
    """One user call, as perfbench times it: fresh input array, lazy
    block, read back, free the output and the input."""
    a = svm.array(x)
    with svm.lazy() as lz:
        out, kept = pipe(lz, a)
    res = out.to_numpy()
    if kept is not None:
        res = res[:kept.value]
    if out is not a:
        svm.free(out)
    svm.free(a)
    return res


@pytest.mark.parametrize("backend", ["codegen", "native"])
@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_warm_loop_reuses_the_same_blocks(name, backend):
    svm = SVM(vlen=1024, codegen="paper", mode="fast", backend=backend)
    heap = svm.machine.heap
    top = [0]
    malloc = heap.malloc

    def tracked(nbytes):
        addr = malloc(nbytes)
        top[0] = max(top[0], addr + nbytes)
        return addr

    heap.malloc = tracked
    rng = np.random.default_rng(7)
    live = heap.live_bytes
    tops = []
    first = None
    for _ in range(6):
        x = rng.integers(0, 2**16, 256, dtype=np.uint32)
        res = _call(svm, PIPELINES[name], x)
        if first is None:
            first = res
        assert heap.live_bytes == live
        tops.append(top[0])
    assert len(set(tops)) == 1, tops
    # a warm call on the first call's input still computes its result
    rng = np.random.default_rng(7)
    np.testing.assert_array_equal(
        _call(svm, PIPELINES[name], rng.integers(0, 2**16, 256, dtype=np.uint32)),
        first)
