"""One NumPy body per primitive, for one row and for a batch: on a
``[B, n]`` matrix each body must equal the 1-D body applied row by row.

Covers every integer SEW, the batch shapes ``svm.batch`` produces
(B rows of one length, including empty rows and lengths around a strip
boundary) and one many-short-rows shape.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.svm import fastpath as fp
from repro.svm.operators import get_operator

DTYPES = [np.uint8, np.int8, np.uint16, np.int16,
          np.uint32, np.int32, np.uint64, np.int64]
VLMAX = 32  # VLEN 1024 at SEW 32, LMUL 1
SHAPES = [(b, n) for b in (1, 2, 3, 64)
          for n in (0, 1, VLMAX - 1, VLMAX + 1, 4096)] + [(1000, 16)]


def _values(rng, shape, dtype):
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, shape, dtype=dtype, endpoint=True)


def _flags(rng, shape, dtype, p=0.5):
    return (rng.random(shape) < p).astype(dtype)


@pytest.fixture(params=DTYPES, ids=lambda d: np.dtype(d).name)
def dtype(request):
    return np.dtype(request.param)


@pytest.fixture(params=SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def shape(request):
    return request.param


@pytest.fixture
def rng(dtype, shape):
    return np.random.default_rng([dtype.itemsize, int(dtype.kind == "i"), *shape])


def test_pack(dtype, shape, rng):
    src = _values(rng, shape, dtype)
    keep = rng.random(shape) < 0.5
    if shape[0] > 1:
        keep[1] = False  # a row with no survivor
    dst0 = _values(rng, shape, dtype)
    dst = dst0.copy()
    kept = fp.np_pack(src, keep, dst)
    assert kept.dtype == np.int64 and kept.shape == (shape[0],)
    for i in range(shape[0]):
        row = dst0[i].copy()
        assert kept[i] == fp.np_pack(src[i], keep[i], row)
        assert np.array_equal(dst[i], row)  # tail lanes keep dst's contents
    # in place: the survivors are copied before they are stored
    work = src.copy()
    assert np.array_equal(fp.np_pack(work, keep, work), kept)
    for i in range(shape[0]):
        row = src[i].copy()
        fp.np_pack(row, keep[i], row)
        assert np.array_equal(work[i], row)


def test_enumerate(dtype, shape, rng):
    flags = _flags(rng, shape, dtype)
    for set_bit in (True, False):
        out = _values(rng, shape, dtype)
        count = fp.np_enumerate(flags, set_bit, out)
        assert count.dtype == np.int64 and count.shape == (shape[0],)
        for i in range(shape[0]):
            row = np.empty(shape[1], dtype)
            assert count[i] == fp.np_enumerate(flags[i], set_bit, row)
            assert np.array_equal(out[i], row)


def test_enumerate_count_does_not_wrap_in_a_narrow_out():
    flags = np.ones(300, np.uint32)
    out = np.empty(300, np.uint8)
    assert fp.np_enumerate(flags, True, out) == 300
    assert np.array_equal(out, np.arange(300) % 256)
    mat = np.ones((3, 300), np.uint32)
    out = np.empty((3, 300), np.uint8)
    assert fp.np_enumerate(mat, True, out).tolist() == [300] * 3


def test_select(dtype, shape, rng):
    # any nonzero flag selects, not only 1
    flags = rng.choice(np.array([0, 1, 2, np.iinfo(dtype).max], dtype), shape)
    a = _values(rng, shape, dtype)
    b0 = _values(rng, shape, dtype)
    b = b0.copy()
    fp.np_select(flags, a, b)
    assert np.array_equal(b, np.where(flags != 0, a, b0))
    for i in range(shape[0]):
        row = b0[i].copy()
        fp.np_select(flags[i], a[i], row)
        assert np.array_equal(b[i], row)


def test_seg_scan(dtype, shape, rng):
    plus = get_operator("plus")
    a0 = _values(rng, shape, dtype)
    heads = _flags(rng, shape, dtype, p=0.1)
    for inclusive in (True, False):
        a = a0.copy()
        fp.np_seg_scan(a, heads, plus, inclusive)
        for i in range(shape[0]):
            row = a0[i].copy()
            fp.np_seg_scan(row, heads[i], plus, inclusive)
            assert np.array_equal(a[i], row)


def test_get_flags(dtype, shape, rng):
    src = _values(rng, shape, dtype)
    for bit in (0, 3, dtype.itemsize * 8 - 1):
        out = np.empty(shape, dtype)
        fp.np_get_flags(src, bit, out)
        assert np.array_equal(out, (src >> dtype.type(bit)) & dtype.type(1))
        for i in range(shape[0]):
            row = np.empty(shape[1], dtype)
            fp.np_get_flags(src[i], bit, row)
            assert np.array_equal(out[i], row)
