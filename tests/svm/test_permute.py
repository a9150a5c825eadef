"""Tests for the permutation primitive class (§4.2)."""

import numpy as np
import pytest

from repro.errors import VectorLengthError
from repro.rvv.counters import Cat


class TestPermute:
    def test_scatter_semantics(self, svm):
        """Listing 5: dst[index[i]] = src[i]."""
        src = svm.array([10, 20, 30, 40])
        index = svm.array([2, 0, 3, 1])
        dst = svm.permute(src, index)
        assert dst.to_numpy().tolist() == [20, 40, 10, 30]

    def test_identity(self, svm, rng):
        data = rng.integers(0, 100, 17, dtype=np.uint32)
        src = svm.array(data)
        idx = svm.array(np.arange(17, dtype=np.uint32))
        assert np.array_equal(svm.permute(src, idx).to_numpy(), data)

    def test_random_permutation_roundtrip(self, svm, rng):
        data = rng.integers(0, 2**32, 33, dtype=np.uint32)
        perm = rng.permutation(33).astype(np.uint32)
        src = svm.array(data)
        dst = svm.permute(src, svm.array(perm))
        expect = np.empty(33, dtype=np.uint32)
        expect[perm] = data
        assert np.array_equal(dst.to_numpy(), expect)

    def test_uses_indexed_store(self, svm):
        src = svm.array([1, 2])
        idx = svm.array([1, 0])
        svm.reset()
        svm.permute(src, idx)
        assert svm.counters[Cat.VMEM_INDEXED] >= 1

    def test_out_param(self, svm):
        src = svm.array([5, 6])
        idx = svm.array([1, 0])
        out = svm.zeros(2)
        got = svm.permute(src, idx, out=out)
        assert got is out and out.to_numpy().tolist() == [6, 5]


class TestBackPermute:
    def test_gather_semantics(self, svm):
        src = svm.array([10, 20, 30, 40])
        index = svm.array([2, 0, 3, 1])
        dst = svm.back_permute(src, index)
        assert dst.to_numpy().tolist() == [30, 10, 40, 20]

    def test_inverse_of_permute(self, svm, rng):
        data = rng.integers(0, 2**32, 21, dtype=np.uint32)
        perm = rng.permutation(21).astype(np.uint32)
        src = svm.array(data)
        idx = svm.array(perm)
        there = svm.permute(src, idx)
        back = svm.back_permute(there, idx)
        assert np.array_equal(back.to_numpy(), data)


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("kind", ["permute", "back_permute"])
def test_out_of_range_index_raises(svm, kind, lazy):
    """An index past the array is an access fault: IndexError in both
    modes, eager and captured, where the strict kernel used to store
    silently. The strict kernel checks up front and stores nothing. A
    ``uint64`` index at 2**64-1 must not wrap to a negative NumPy
    index on the fast path."""
    src = svm.array(np.arange(8, dtype=np.uint32))
    out = svm.zeros(8)
    for idx in (svm.array([7, 6, 5, 4, 3, 2, 1, 99]),
                svm.array([2**64 - 1, 6, 5, 4, 3, 2, 1, 0], np.uint64)):
        with pytest.raises(IndexError):
            if lazy:
                with svm.lazy() as lz:
                    getattr(lz, kind)(src, idx, out=out)
            else:
                getattr(svm, kind)(src, idx, out=out)
        if svm.mode == "strict":
            assert not out.to_numpy().any()


class TestPack:
    def test_compaction(self, svm):
        src = svm.array([1, 2, 3, 4, 5, 6])
        flags = svm.array([0, 1, 1, 0, 0, 1])
        dst, kept = svm.pack(src, flags)
        assert kept == 3
        assert dst.to_numpy()[:3].tolist() == [2, 3, 6]

    def test_none_kept(self, svm):
        src = svm.array([1, 2, 3])
        dst, kept = svm.pack(src, svm.zeros(3))
        assert kept == 0

    def test_all_kept_preserves_order(self, svm, rng):
        data = rng.integers(0, 100, 19, dtype=np.uint32)
        src = svm.array(data)
        dst, kept = svm.pack(src, svm.array(np.ones(19, dtype=np.uint32)))
        assert kept == 19
        assert np.array_equal(dst.to_numpy(), data)

    def test_order_preserved_across_strips(self, svm):
        """Survivors from later strips land after earlier ones."""
        n = 20  # 5 strips at VLEN=128
        data = np.arange(n, dtype=np.uint32)
        keep = (data % 3 == 0).astype(np.uint32)
        dst, kept = svm.pack(svm.array(data), svm.array(keep))
        assert dst.to_numpy()[:kept].tolist() == list(range(0, n, 3))


class TestReverse:
    def test_semantics(self, svm, rng):
        data = rng.integers(0, 2**32, 27, dtype=np.uint32)
        out = svm.reverse(svm.array(data))
        assert np.array_equal(out.to_numpy(), data[::-1])

    def test_single(self, svm):
        assert svm.reverse(svm.array([42])).to_numpy().tolist() == [42]

    def test_involution(self, svm, rng):
        data = rng.integers(0, 100, 11, dtype=np.uint32)
        a = svm.array(data)
        assert np.array_equal(svm.reverse(svm.reverse(a)).to_numpy(), data)



def _gather_any(svm, src, idx, short):
    from repro.svm import gather_any
    return gather_any(svm, src, idx)


@pytest.mark.parametrize("call", [
    pytest.param(lambda svm, src, idx, short: svm.permute(src, idx),
                 id="permute"),
    pytest.param(lambda svm, src, idx, short: svm.back_permute(src, idx),
                 id="back_permute"),
    pytest.param(_gather_any, id="gather_any"),
    pytest.param(lambda svm, src, idx, short: svm.back_permute(src, short),
                 id="length_check"),
])
def test_failed_call_frees_its_output(svm, call):
    """A call that allocates its output and then raises — a bad index
    or a length mismatch — leaves the heap as it found it."""
    src = svm.array(np.arange(8, dtype=np.uint32))
    idx = svm.array([7, 6, 5, 4, 3, 2, 1, 99])
    short = svm.array([0, 1])
    before = svm.machine.heap.live_bytes
    for _ in range(3):
        with pytest.raises((IndexError, VectorLengthError)):
            call(svm, src, idx, short)
    assert svm.machine.heap.live_bytes == before
