"""Sequential baseline kernels (the paper's comparison targets).

Each function implements the *semantics* of a baseline with NumPy
(vectorized per the HPC guides) and charges the modeled RV64 loop cost
on a :class:`~repro.scalar.machine.ScalarMachine`. Results operate
in-place on NumPy arrays, mirroring the C baselines that write through
their input pointers.

All arithmetic is modular at the element width (C unsigned semantics).
"""

from __future__ import annotations

import numpy as np

from ..errors import SegmentError, VectorLengthError
from .machine import ScalarMachine

__all__ = [
    "p_add_baseline",
    "p_select_baseline",
    "plus_scan_baseline",
    "max_scan_baseline",
    "min_scan_baseline",
    "seg_plus_scan_baseline",
    "seg_max_scan_baseline",
    "enumerate_baseline",
    "permute_baseline",
    "get_flags_baseline",
    "segmented_cumsum",
    "segmented_reduce_numpy",
]


def _check_1d(name: str, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 1:
        raise VectorLengthError(f"{name} must be 1-D, got shape {a.shape}")
    return a


def _check_flags(flags: np.ndarray) -> np.ndarray:
    flags = _check_1d("flags", flags)
    if flags.size and int(flags.max(initial=0)) > 1:
        raise SegmentError("flag vectors may contain only 0 and 1")
    return flags


# --- elementwise ------------------------------------------------------------

def p_add_baseline(sm: ScalarMachine, a: np.ndarray, x: int) -> None:
    """Sequential p-add: ``a[i] += x`` (Table 2's baseline)."""
    a = _check_1d("a", a)
    sm.charge_loop("p_add", a.size)
    np.add(a, a.dtype.type(int(x) & (2 ** (a.dtype.itemsize * 8) - 1)), out=a)


def p_select_baseline(
    sm: ScalarMachine, flags: np.ndarray, a: np.ndarray, b: np.ndarray
) -> None:
    """Sequential p-select: ``b[i] = a[i] if flags[i] else b[i]``
    (the form Listing 7 uses: select i_down into i_up where flag set)."""
    flags = _check_flags(flags)
    a = _check_1d("a", a)
    b = _check_1d("b", b)
    if not (flags.size == a.size == b.size):
        raise VectorLengthError("p_select operands must have equal length")
    sm.charge_loop("p_select", a.size)
    np.copyto(b, a, where=flags.astype(bool))


# --- scans ----------------------------------------------------------------

def plus_scan_baseline(sm: ScalarMachine, a: np.ndarray) -> None:
    """Sequential inclusive plus-scan, in place (Table 3's baseline)."""
    a = _check_1d("a", a)
    sm.charge_loop("plus_scan", a.size)
    np.cumsum(a, out=a)


def max_scan_baseline(sm: ScalarMachine, a: np.ndarray) -> None:
    """Sequential inclusive max-scan, in place."""
    a = _check_1d("a", a)
    sm.charge_loop("max_scan", a.size)
    np.maximum.accumulate(a, out=a)


def min_scan_baseline(sm: ScalarMachine, a: np.ndarray) -> None:
    """Sequential inclusive min-scan, in place."""
    a = _check_1d("a", a)
    sm.charge_loop("min_scan", a.size)
    np.minimum.accumulate(a, out=a)


# --- segmented scans ---------------------------------------------------------

def segmented_cumsum(a: np.ndarray, head_flags: np.ndarray) -> np.ndarray:
    """Reference segmented inclusive plus-scan (pure NumPy, no costs).

    Standard trick: take the global cumsum, then subtract, within each
    segment, the global prefix just before the segment's head. The
    cumsum runs in the element dtype: the machine wraps mod 2**SEW, and
    so does every term here, so the result is exact without a 64-bit
    accumulator and a cast back. Each lane finds its head by
    forward-filling the head indices with ``np.maximum.accumulate``.
    Used by both the scalar baseline and the vector fast path, and
    property-tested against a per-element oracle.
    """
    a = np.asarray(a)
    flags = np.asarray(head_flags)
    if a.shape != flags.shape:
        raise VectorLengthError("data and head-flags must have equal length")
    if a.size == 0:
        return a.copy()
    total = np.cumsum(a, dtype=a.dtype)
    # the global prefix just before each lane
    before = total - a
    # each lane's segment head: the head indices, forward-filled (a
    # multiply, unlike np.where, does not branch on dense flags)
    head = np.arange(a.size)
    head *= flags != 0
    np.maximum.accumulate(head, out=head)
    total -= before[head]
    return total


def seg_plus_scan_baseline(
    sm: ScalarMachine, a: np.ndarray, head_flags: np.ndarray
) -> None:
    """Sequential segmented inclusive plus-scan, in place (Table 4's
    baseline): the running sum resets at every head flag."""
    a = _check_1d("a", a)
    flags = _check_flags(head_flags)
    if a.size != flags.size:
        raise VectorLengthError("data and head-flags must have equal length")
    sm.charge_loop("seg_plus_scan", a.size)
    a[:] = segmented_cumsum(a, flags)


def seg_max_scan_baseline(
    sm: ScalarMachine, a: np.ndarray, head_flags: np.ndarray
) -> None:
    """Sequential segmented inclusive max-scan, in place."""
    a = _check_1d("a", a)
    flags = _check_flags(head_flags)
    if a.size != flags.size:
        raise VectorLengthError("data and head-flags must have equal length")
    sm.charge_loop("seg_max_scan", a.size)
    a[:] = segmented_reduce_numpy(a, flags, np.maximum)


def segmented_reduce_numpy(a: np.ndarray, head_flags: np.ndarray, ufunc) -> np.ndarray:
    """Segmented inclusive scan of ``a`` under any associative ufunc.

    Splits at segment heads and applies ``ufunc.accumulate`` per
    segment. O(#segments) Python overhead — acceptable because only
    non-plus operators take this path (plus uses the cumsum trick).
    """
    a = np.asarray(a)
    flags = np.asarray(head_flags).astype(bool).copy()
    if a.size == 0:
        return a.copy()
    flags[0] = True
    out = np.empty_like(a)
    bounds = np.flatnonzero(flags).tolist() + [a.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ufunc.accumulate(a[lo:hi], out=out[lo:hi])
    return out


# --- derived-operation baselines ----------------------------------------------

def enumerate_baseline(
    sm: ScalarMachine, flags: np.ndarray, dst: np.ndarray, set_bit: bool
) -> int:
    """Sequential enumerate: ``dst[i]`` = number of earlier positions
    whose flag equals ``set_bit``; returns the total count."""
    flags = _check_flags(flags)
    dst = _check_1d("dst", dst)
    if flags.size != dst.size:
        raise VectorLengthError("flags and dst must have equal length")
    sm.charge_loop("enumerate", flags.size)
    match = (flags == (1 if set_bit else 0)).astype(np.int64)
    dst[:] = np.cumsum(match) - match  # exclusive count
    return int(match.sum())


def permute_baseline(
    sm: ScalarMachine, src: np.ndarray, dst: np.ndarray, index: np.ndarray
) -> None:
    """Sequential out-of-place permute: ``dst[index[i]] = src[i]``."""
    src = _check_1d("src", src)
    dst = _check_1d("dst", dst)
    index = _check_1d("index", index)
    if not (src.size == dst.size == index.size):
        raise VectorLengthError("permute operands must have equal length")
    sm.charge_loop("permute", src.size)
    dst[index.astype(np.int64)] = src


def get_flags_baseline(
    sm: ScalarMachine, src: np.ndarray, flags: np.ndarray, bit: int
) -> None:
    """Sequential flag extraction: ``flags[i] = (src[i] >> bit) & 1``."""
    src = _check_1d("src", src)
    flags = _check_1d("flags", flags)
    if src.size != flags.size:
        raise VectorLengthError("src and flags must have equal length")
    if not 0 <= bit < src.dtype.itemsize * 8:
        raise VectorLengthError(f"bit {bit} out of range for {src.dtype}")
    sm.charge_loop("get_flags", src.size)
    flags[:] = (src >> src.dtype.type(bit)) & src.dtype.type(1)
