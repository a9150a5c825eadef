"""One NumPy body per primitive, for one row and for a batch: on a
``[B, n]`` matrix each body must equal the 1-D body applied row by row.

Covers every integer SEW, the batch shapes ``svm.batch`` produces
(B rows of one length, including empty rows and lengths around a strip
boundary) and one many-short-rows shape.
"""

from __future__ import annotations

import itertools

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
    kept = fp.np_pack(src, dst, keep)
    assert kept.dtype == np.int64 and kept.shape == (shape[0],)
    for i in range(shape[0]):
        row = dst0[i].copy()
        assert kept[i] == fp.np_pack(src[i], row, keep[i])
        assert np.array_equal(dst[i], row)  # tail lanes keep dst's contents
    # in place: the survivors are copied before they are stored
    work = src.copy()
    assert np.array_equal(fp.np_pack(work, work, keep), kept)
    for i in range(shape[0]):
        row = src[i].copy()
        fp.np_pack(row, row, keep[i])
        assert np.array_equal(work[i], row)


def test_enumerate(dtype, shape, rng):
    flags = _flags(rng, shape, dtype)
    for set_bit in (True, False):
        out = _values(rng, shape, dtype)
        count = fp.np_enumerate(flags, out, set_bit)
        assert count.dtype == np.int64 and count.shape == (shape[0],)
        for i in range(shape[0]):
            row = np.empty(shape[1], dtype)
            assert count[i] == fp.np_enumerate(flags[i], row, set_bit)
            assert np.array_equal(out[i], row)


def test_enumerate_count_does_not_wrap_in_a_narrow_out():
    flags = np.ones(300, np.uint32)
    out = np.empty(300, np.uint8)
    assert fp.np_enumerate(flags, out, True) == 300
    assert np.array_equal(out, np.arange(300) % 256)
    mat = np.ones((3, 300), np.uint32)
    out = np.empty((3, 300), np.uint8)
    assert fp.np_enumerate(mat, out, True).tolist() == [300] * 3


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
    # max takes the per-segment loop, plus the cumsum trick: both must
    # see the heads a matrix forces at every row start
    a0 = _values(rng, shape, dtype)
    heads = _flags(rng, shape, dtype, p=0.1)
    for op, inclusive in itertools.product(("plus", "max"), (True, False)):
        op = get_operator(op)
        a = a0.copy()
        fp.np_seg_scan(a, heads, op, inclusive=inclusive)
        for i in range(shape[0]):
            row = a0[i].copy()
            fp.np_seg_scan(row, heads[i], op, inclusive=inclusive)
            assert np.array_equal(a[i], row)


@pytest.mark.parametrize("vlmax", [1, 4, VLMAX, 100])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.5])
def test_pack_strip_survivors(shape, vlmax, p):
    """Strips with at least one survivor, per row, for every strip
    length (one that does not divide n included) and all-false masks;
    a 1-D mask gives the 0-d count of its one row."""
    b, n = shape
    keep = np.random.default_rng([*shape, vlmax]).random(shape) < p
    strips = -(-n // vlmax)
    padded = np.zeros((b, strips * vlmax), bool)
    padded[:, :n] = keep
    want = padded.reshape(b, strips, vlmax).any(axis=-1).sum(axis=-1)
    got = fp.pack_strip_survivors(keep, vlmax)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    for i in range(min(b, 3)):
        one = fp.pack_strip_survivors(keep[i], vlmax)
        assert one.shape == () and one == want[i]


def test_get_flags(dtype, shape, rng):
    src = _values(rng, shape, dtype)
    for bit in (0, 3, dtype.itemsize * 8 - 1):
        out = np.empty(shape, dtype)
        fp.np_get_flags(src, out, bit)
        assert np.array_equal(out, (src >> dtype.type(bit)) & dtype.type(1))
        for i in range(shape[0]):
            row = np.empty(shape[1], dtype)
            fp.np_get_flags(src[i], row, bit)
            assert np.array_equal(out[i], row)
