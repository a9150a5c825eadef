"""The benchmark's pipelines and their NumPy reference semantics.

The engine workload owns its pipeline definitions (they mirror the
serving daemon's registry of the same names, plus ``seg_scan``), so a
change to the daemon's registry cannot silently change what the
engine workload measures. Each pipeline returns ``(out, kept)`` where
``kept`` is the survivor-count future of a pack pipeline, else None.
Inputs are uint32 values below 2**16, so the filters keep a share of
each row.
"""

from __future__ import annotations

import numpy as np

FILTER_LO, FILTER_HI = 2**14, 3 * 2**14
RADIX_KEEP_BELOW = 2**15
SEG_FLAG_BIT = 3
VALUE_RANGE = 2**16
_MASK32 = np.uint64(0xFFFFFFFF)


def chain_scan(lz, data):
    lz.p_add(data, 10)
    lz.p_mul(data, 3)
    lz.p_xor(data, 5)
    lz.plus_scan(data)
    return data, None


def reverse(lz, data):
    return lz.reverse(data), None


def seg_scan(lz, data):
    flags = lz.get_flags(data, SEG_FLAG_BIT)
    lz.seg_plus_scan(data, flags)
    lz.free(flags)
    return data, None


def filter_range(lz, data):
    lt_hi = lz.p_lt(data, FILTER_HI)
    ge_lo = lz.p_ge(data, FILTER_LO)
    lz.p_mul(ge_lo, lt_hi)
    out, kept = lz.pack(data, ge_lo)
    lz.free(ge_lo)
    lz.free(lt_hi)
    return out, kept


def radix_pack(lz, data):
    flags = lz.get_flags(data, 0)
    part, _zeros = lz.split(data, flags)
    keep = lz.p_lt(part, RADIX_KEEP_BELOW)
    out, kept = lz.pack(part, keep)
    lz.free(keep)
    lz.free(part)
    lz.free(flags)
    return out, kept


PIPELINES = {
    "chain_scan": chain_scan,
    "reverse": reverse,
    "seg_scan": seg_scan,
    "filter": filter_range,
    "radix_pack": radix_pack,
}


def batch_pipe(name: str):
    """The ``pipe(lz, data) -> out`` shape :meth:`SVM.batch` takes."""
    pipe = PIPELINES[name]

    def run(lz, data):
        return pipe(lz, data)[0]

    run.__name__ = f"batch_{name}"
    return run


# ---------------------------------------------------------------------------
# NumPy references
# ---------------------------------------------------------------------------

def _cumsum32(x: np.ndarray) -> np.ndarray:
    return (np.cumsum(x.astype(np.uint64)) & _MASK32).astype(np.uint32)


def seg_plus_scan_ref(x: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Inclusive plus-scan restarting at every element whose head flag
    is set (mod 2**32)."""
    total = np.cumsum(x.astype(np.uint64))
    before = np.concatenate(([np.uint64(0)], total[:-1]))
    start = np.where(heads != 0, np.arange(x.size), 0)
    start = np.maximum.accumulate(start)
    return ((total - before[start]) & _MASK32).astype(np.uint32)


def pipeline_ref(name: str, x: np.ndarray) -> np.ndarray:
    """The defined output of ``name`` on ``x`` (for pack pipelines, the
    survivor prefix only)."""
    x = x.astype(np.uint32)
    if name in ("chain_scan", "scan"):
        if name == "chain_scan":
            x = ((x + np.uint32(10)) * np.uint32(3)) ^ np.uint32(5)
        return _cumsum32(x)
    if name == "reverse":
        return x[::-1].copy()
    if name == "seg_scan":
        return seg_plus_scan_ref(x, (x >> SEG_FLAG_BIT) & 1)
    if name == "filter":
        return x[(x >= FILTER_LO) & (x < FILTER_HI)]
    if name == "radix_pack":
        part = np.concatenate((x[(x & 1) == 0], x[(x & 1) == 1]))
        return part[part < RADIX_KEEP_BELOW]
    raise KeyError(name)


def kernel_ref(kernel: str, x: np.ndarray, heads: np.ndarray | None) -> np.ndarray:
    """NumPy result of one paper kernel on ``x`` (``heads`` only for
    the segmented scan)."""
    if kernel == "p_add":
        return x + np.uint32(7)
    if kernel == "plus_scan":
        return _cumsum32(x)
    if kernel == "seg_plus_scan":
        return seg_plus_scan_ref(x, heads)
    if kernel == "split_radix_sort":
        return np.sort(x)
    raise KeyError(kernel)
