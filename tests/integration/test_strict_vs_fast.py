"""The fast-path contract: for every primitive, the NumPy fast path
must produce bit-identical results AND identical per-category dynamic
instruction counts to the strict intrinsic-by-intrinsic simulation —
across sizes, VLENs, LMULs, operators, and codegen presets.

This is what makes the closed-form counts trustworthy at N = 10^6
where strict simulation is impractically slow.
"""

import numpy as np
import pytest

from repro import SVM
from repro.rvv.types import LMUL

SIZES = [0, 1, 3, 4, 5, 31, 32, 33, 100]
CONFIGS = [
    (128, LMUL.M1, "ideal"),
    (128, LMUL.M2, "paper"),
    (256, LMUL.M1, "paper"),
    (1024, LMUL.M8, "paper"),  # the spilling configuration
]


def _pair(vlen, codegen):
    return (SVM(vlen=vlen, codegen=codegen, mode="strict"),
            SVM(vlen=vlen, codegen=codegen, mode="fast"))


def _assert_same(strict_svm, fast_svm, strict_arrs, fast_arrs):
    assert strict_svm.counters.as_dict() == fast_svm.counters.as_dict()
    for s_arr, f_arr in zip(strict_arrs, fast_arrs):
        assert np.array_equal(s_arr.to_numpy(), f_arr.to_numpy())


def _run_both(vlen, codegen, n, seed, fn):
    s_svm, f_svm = _pair(vlen, codegen)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2**32, n, dtype=np.uint32)
    flags = (rng.random(n) < 0.2).astype(np.uint32)
    outs = []
    for svm in (s_svm, f_svm):
        a = svm.array(data)
        f = svm.array(flags)
        svm.reset()
        extra = fn(svm, a, f)
        outs.append((svm, [a, f] + list(extra or [])))
    (_s, s_arrs), (_f, f_arrs) = outs
    _assert_same(_s, _f, s_arrs, f_arrs)


@pytest.mark.parametrize("vlen,lmul,codegen", CONFIGS)
@pytest.mark.parametrize("n", SIZES)
class TestPrimitiveParity:
    def test_p_add_vx(self, vlen, lmul, codegen, n):
        _run_both(vlen, codegen, n, 1,
                  lambda svm, a, f: svm.p_add(a, 77, lmul=lmul))

    def test_p_mul_vv(self, vlen, lmul, codegen, n):
        _run_both(vlen, codegen, n, 2,
                  lambda svm, a, f: svm.p_mul(a, f, lmul=lmul))

    def test_p_select(self, vlen, lmul, codegen, n):
        def fn(svm, a, f):
            b = svm.copy(a)
            svm.p_select(f, b, a, lmul=lmul)
            return [b]
        _run_both(vlen, codegen, n, 3, fn)

    def test_get_flags(self, vlen, lmul, codegen, n):
        # a bit index at or above SEW shifts by bit & (SEW-1), as vsrl
        _run_both(vlen, codegen, n, 4,
                  lambda svm, a, f: [svm.get_flags(a, bit, lmul=lmul)
                                     for bit in (7, 32, 40)])

    def test_scan_inclusive(self, vlen, lmul, codegen, n):
        _run_both(vlen, codegen, n, 5,
                  lambda svm, a, f: svm.plus_scan(a, lmul=lmul))

    def test_scan_exclusive_min(self, vlen, lmul, codegen, n):
        _run_both(vlen, codegen, n, 6,
                  lambda svm, a, f: svm.scan(a, "min", inclusive=False, lmul=lmul))

    def test_seg_scan_inclusive(self, vlen, lmul, codegen, n):
        _run_both(vlen, codegen, n, 7,
                  lambda svm, a, f: svm.seg_plus_scan(a, f, lmul=lmul))

    def test_seg_scan_exclusive_max(self, vlen, lmul, codegen, n):
        _run_both(vlen, codegen, n, 8,
                  lambda svm, a, f: svm.seg_scan(a, f, "max", inclusive=False,
                                                 lmul=lmul))

    def test_enumerate(self, vlen, lmul, codegen, n):
        def fn(svm, a, f):
            out, count = svm.enumerate(f, set_bit=True, lmul=lmul)
            svm.machine.counters.add  # no-op; counts already compared
            return [out]
        _run_both(vlen, codegen, n, 9, fn)

    def test_permute(self, vlen, lmul, codegen, n):
        def fn(svm, a, f):
            perm = svm.array(np.random.default_rng(10).permutation(n).astype(np.uint32))
            svm.reset()
            return [svm.permute(a, perm, lmul=lmul)]
        _run_both(vlen, codegen, n, 10, fn)

    def test_pack(self, vlen, lmul, codegen, n):
        def fn(svm, a, f):
            out, kept = svm.pack(a, f, lmul=lmul)
            return [out]
        _run_both(vlen, codegen, n, 11, fn)

    def test_cmp_and_reduce(self, vlen, lmul, codegen, n):
        def fn(svm, a, f):
            lt = svm.p_lt(a, 2**31, lmul=lmul)
            total = svm.reduce(lt, "plus", lmul=lmul)
            return [lt]
        _run_both(vlen, codegen, n, 12, fn)

    def test_index_shift_reverse(self, vlen, lmul, codegen, n):
        def fn(svm, a, f):
            idx = svm.index_array(n, lmul=lmul)
            sh = svm.shift1up(a, 5, lmul=lmul)
            rev = svm.reverse(a, lmul=lmul)
            return [idx, sh, rev]
        _run_both(vlen, codegen, n, 13, fn)


class TestCompositeParity:
    """Whole algorithms must also agree exactly between modes."""

    @pytest.mark.parametrize("n", [16, 100])
    def test_split(self, n):
        _run_both(1024, "paper", n, 20,
                  lambda svm, a, f: [svm.split(a, f)[0]])

    @pytest.mark.parametrize("n", [16, 70])
    def test_radix_sort(self, n):
        from repro.algorithms import split_radix_sort
        _run_both(256, "paper", n, 21,
                  lambda svm, a, f: split_radix_sort(svm, a, bits=8))

    def test_flat_quicksort(self):
        from repro.algorithms import flat_quicksort

        def fn(svm, a, f):
            flat_quicksort(svm, a)

        _run_both(256, "paper", 40, 22, fn)
