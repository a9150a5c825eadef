"""Unit tests for the sequential baselines: semantics against naive
oracles and the exact linear cost forms from the paper's tables."""

import numpy as np
import pytest

from repro.errors import SegmentError, VectorLengthError
from repro.scalar import (
    ScalarMachine,
    enumerate_baseline,
    get_flags_baseline,
    max_scan_baseline,
    min_scan_baseline,
    p_add_baseline,
    p_select_baseline,
    permute_baseline,
    plus_scan_baseline,
    seg_plus_scan_baseline,
    seg_max_scan_baseline,
    segmented_cumsum,
    segmented_reduce_numpy,
)
from tests.oracles import seg_scan_oracle


@pytest.fixture
def sm():
    return ScalarMachine()


class TestCostForms:
    """The paper's baseline columns are exactly linear; these pin the
    forms measured from Tables 2-4."""

    @pytest.mark.parametrize("n", [1, 100, 10**4, 10**6])
    def test_p_add_6n_plus_1(self, sm, n):
        p_add_baseline(sm, np.zeros(n, dtype=np.uint32), 1)
        assert sm.total == 6 * n + 1

    @pytest.mark.parametrize("n", [100, 10**4, 10**6])
    def test_plus_scan_6n_plus_26(self, sm, n):
        plus_scan_baseline(sm, np.zeros(n, dtype=np.uint32))
        assert sm.total == 6 * n + 26

    @pytest.mark.parametrize("n", [100, 10**4, 10**6])
    def test_seg_scan_11n_plus_24(self, sm, n):
        seg_plus_scan_baseline(sm, np.zeros(n, dtype=np.uint32),
                               np.zeros(n, dtype=np.uint32))
        assert sm.total == 11 * n + 24

    def test_counts_accumulate(self, sm):
        a = np.zeros(10, dtype=np.uint32)
        p_add_baseline(sm, a, 1)
        p_add_baseline(sm, a, 1)
        assert sm.total == 2 * 61


class TestElementwiseSemantics:
    def test_p_add(self, sm):
        a = np.array([1, 2, 3], dtype=np.uint32)
        p_add_baseline(sm, a, 10)
        assert a.tolist() == [11, 12, 13]

    def test_p_add_wraps(self, sm):
        a = np.array([2**32 - 1], dtype=np.uint32)
        p_add_baseline(sm, a, 2)
        assert a.tolist() == [1]

    def test_p_select(self, sm):
        flags = np.array([1, 0, 1], dtype=np.uint32)
        a = np.array([10, 20, 30], dtype=np.uint32)
        b = np.array([1, 2, 3], dtype=np.uint32)
        p_select_baseline(sm, flags, a, b)
        assert b.tolist() == [10, 2, 30]

    def test_p_select_length_check(self, sm):
        with pytest.raises(VectorLengthError):
            p_select_baseline(sm, np.zeros(2, np.uint32),
                              np.zeros(3, np.uint32), np.zeros(3, np.uint32))

    def test_bad_flags(self, sm):
        with pytest.raises(SegmentError):
            p_select_baseline(sm, np.array([2], np.uint32),
                              np.zeros(1, np.uint32), np.zeros(1, np.uint32))


class TestScanSemantics:
    def test_plus_scan(self, sm):
        a = np.array([1, 2, 3, 4], dtype=np.uint32)
        plus_scan_baseline(sm, a)
        assert a.tolist() == [1, 3, 6, 10]

    def test_max_min_scans(self, sm):
        a = np.array([3, 1, 7, 2], dtype=np.uint32)
        max_scan_baseline(sm, a)
        assert a.tolist() == [3, 3, 7, 7]
        b = np.array([3, 1, 7, 2], dtype=np.uint32)
        min_scan_baseline(sm, b)
        assert b.tolist() == [3, 1, 1, 1]

    def test_seg_plus_scan(self, sm):
        a = np.array([1, 2, 3, 4, 5], dtype=np.uint32)
        flags = np.array([0, 0, 1, 0, 1], dtype=np.uint32)
        seg_plus_scan_baseline(sm, a, flags)
        assert a.tolist() == [1, 3, 3, 7, 5]

    def test_seg_max_scan(self, sm):
        a = np.array([3, 9, 1, 5], dtype=np.uint32)
        flags = np.array([0, 0, 1, 0], dtype=np.uint32)
        seg_max_scan_baseline(sm, a, flags)
        assert a.tolist() == [3, 9, 1, 5]


class TestSegmentedCumsumTrick:
    """segmented_cumsum (the fast path's engine) vs the per-element
    oracle, including modular wrap."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        a = rng.integers(0, 2**32, n, dtype=np.uint32)
        flags = (rng.random(n) < 0.2).astype(np.uint32)
        expect = seg_scan_oracle(a, flags, lambda x, y: x + y, 0)
        assert np.array_equal(segmented_cumsum(a, flags), expect)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16, np.int16,
                                       np.uint32, np.int32, np.uint64, np.int64])
    def test_wraps_in_every_integer_dtype(self, dtype):
        """The cumsum runs in the element dtype, so sums wrap mod
        2**SEW exactly as the machine does (signed values compare as
        their two's-complement bits)."""
        info = np.iinfo(dtype)
        rng = np.random.default_rng(np.dtype(dtype).itemsize)
        a = rng.integers(info.max // 2, info.max, 300, dtype=dtype, endpoint=True)
        a[::7] = info.min
        flags = (rng.random(300) < 0.1).astype(dtype)
        flags[0] = 0  # lane 0 heads a segment regardless
        got = segmented_cumsum(a, flags)
        assert got.dtype == dtype
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        expect = seg_scan_oracle(a.view(bits), flags, lambda x, y: x + y, 0,
                                 dtype=bits)
        assert np.array_equal(got.view(bits), expect)

    def test_empty(self):
        assert segmented_cumsum(np.empty(0, np.uint32), np.empty(0, np.uint32)).size == 0

    def test_reduce_numpy_matches(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 100, 50, dtype=np.uint32)
        flags = (rng.random(50) < 0.3).astype(np.uint32)
        got = segmented_reduce_numpy(a, flags, np.add)
        assert np.array_equal(got, segmented_cumsum(a, flags))


class TestDerivedBaselines:
    def test_enumerate(self, sm):
        flags = np.array([1, 0, 1, 1, 0], dtype=np.uint32)
        dst = np.zeros(5, dtype=np.uint32)
        count = enumerate_baseline(sm, flags, dst, set_bit=True)
        assert dst.tolist() == [0, 1, 1, 2, 3]
        assert count == 3

    def test_enumerate_zeros(self, sm):
        flags = np.array([1, 0, 0], dtype=np.uint32)
        dst = np.zeros(3, dtype=np.uint32)
        count = enumerate_baseline(sm, flags, dst, set_bit=False)
        assert dst.tolist() == [0, 0, 1]
        assert count == 2

    def test_permute(self, sm):
        src = np.array([10, 20, 30], dtype=np.uint32)
        dst = np.zeros(3, dtype=np.uint32)
        permute_baseline(sm, src, dst, np.array([2, 0, 1], dtype=np.uint32))
        assert dst.tolist() == [20, 30, 10]

    def test_get_flags(self, sm):
        src = np.array([0b101, 0b010], dtype=np.uint32)
        flags = np.zeros(2, dtype=np.uint32)
        get_flags_baseline(sm, src, flags, 1)
        assert flags.tolist() == [0, 1]

    def test_get_flags_bit_range(self, sm):
        with pytest.raises(VectorLengthError):
            get_flags_baseline(sm, np.zeros(1, np.uint32),
                               np.zeros(1, np.uint32), 32)

    def test_unknown_kernel(self):
        sm = ScalarMachine(costs={})
        with pytest.raises(KeyError):
            sm.charge_loop("p_add", 10)
