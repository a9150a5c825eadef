"""Permutation primitive instructions (§4.2) — strict kernels.

The paper supports *out-of-place* permutation (in-place would create
data dependencies between lanes) via RVV's indexed unordered store
``vsuxei`` (Listing 5): each loaded element is scattered to
``dst + index[i]``. Element indices scale to byte offsets with one
``vsll`` per strip.

``back_permute`` (Blelloch's inverse form, a gather) and ``pack`` (a
masked compress to the front) complete the permutation class.

An index outside the indexed array is an access fault on hardware; the
kernels check the whole index vector up front and raise
:class:`IndexError` before any store, like every other tier.
"""

from __future__ import annotations

from ..rvv.allocation import PERMUTE_PROFILE, plan_allocation
from ..rvv.counters import Cat
from ..rvv.intrinsics import arith, compare, loadstore, mask as maskops
from ..rvv.intrinsics.permutation import vcompress_vm
from ..rvv.machine import RVVMachine
from ..rvv.memory import Pointer
from ..rvv.types import LMUL, sew_for_dtype

__all__ = ["permute", "back_permute", "pack"]


def _check_index(index: Pointer, n: int, bound: int) -> None:
    """Raise :class:`IndexError` when one of the first ``n`` indices
    addresses past ``bound`` elements (the access fault of
    ``vsuxei``/``vluxei``), before the kernel stores anything."""
    if n and int(index.view(n).max()) >= bound:
        raise IndexError(f"permute index out of range for {bound} elements")


def _index_shift(dtype) -> int:
    """lg2 of the element size: index -> byte offset shift amount."""
    return {1: 0, 2: 1, 4: 2, 8: 3}[dtype.itemsize]


def permute(m: RVVMachine, n: int, src: Pointer, dst: Pointer, index: Pointer,
            lmul: LMUL = LMUL.M1, bound: int | None = None) -> None:
    """Out-of-place permute (Listing 5): ``dst[index[i]] = src[i]``.

    ``index`` must be a permutation of ``[0, n)`` for a meaningful
    result; duplicate destinations follow ``vsuxei``'s unordered-store
    semantics (one of the writers wins). Every index must lie below
    ``bound`` (``dst``'s length, ``n`` by default).
    """
    _check_index(index, int(n), n if bound is None else bound)
    sew = sew_for_dtype(src.dtype)
    plan = plan_allocation(PERMUTE_PROFILE, lmul)
    m.prologue("permute")
    if plan.has_spills:
        m.count(Cat.SPILL, plan.frame_setup)
    n = int(n)
    while n > 0:
        vl = m.vsetvl(n, sew, lmul)
        vdata = loadstore.vle(m, src, vl)
        vindex = loadstore.vle(m, index, vl)
        voffset = arith.vsll_vx(m, vindex, _index_shift(dst.dtype), vl)
        loadstore.vsuxei(m, dst, voffset, vdata, vl)
        src += vl
        index += vl
        n -= vl
        m.strip_overhead("permute", n_arrays=2)
        if plan.has_spills:
            m.count(Cat.SPILL, plan.strip_cost(0))


def back_permute(m: RVVMachine, n: int, src: Pointer, dst: Pointer, index: Pointer,
                 lmul: LMUL = LMUL.M1, bound: int | None = None) -> None:
    """Inverse permute (gather): ``dst[i] = src[index[i]]`` via the
    indexed load ``vluxei``. Every index must lie below ``bound``
    (``src``'s length, ``n`` by default)."""
    _check_index(index, int(n), n if bound is None else bound)
    sew = sew_for_dtype(src.dtype)
    plan = plan_allocation(PERMUTE_PROFILE, lmul)
    m.prologue("permute")
    if plan.has_spills:
        m.count(Cat.SPILL, plan.frame_setup)
    n = int(n)
    while n > 0:
        vl = m.vsetvl(n, sew, lmul)
        vindex = loadstore.vle(m, index, vl)
        voffset = arith.vsll_vx(m, vindex, _index_shift(src.dtype), vl)
        vdata = loadstore.vluxei(m, src, voffset, vl)
        loadstore.vse(m, dst, vdata, vl)
        dst += vl
        index += vl
        n -= vl
        m.strip_overhead("permute", n_arrays=2)
        if plan.has_spills:
            m.count(Cat.SPILL, plan.strip_cost(0))


def pack(m: RVVMachine, n: int, src: Pointer, dst: Pointer, flags: Pointer,
         lmul: LMUL = LMUL.M1) -> int:
    """Pack (stream compaction): copy elements whose flag is set to the
    front of ``dst``, preserving order; returns how many were kept.

    Implemented with ``vcompress`` per strip plus a moving destination
    pointer — the masked lanes of each strip land contiguously after
    the previous strip's survivors.
    """
    sew = sew_for_dtype(src.dtype)
    plan = plan_allocation(PERMUTE_PROFILE, lmul)
    m.prologue("permute")
    if plan.has_spills:
        m.count(Cat.SPILL, plan.frame_setup)
    kept = 0
    n = int(n)
    while n > 0:
        vl = m.vsetvl(n, sew, lmul)
        vdata = loadstore.vle(m, src, vl)
        vflags = loadstore.vle(m, flags, vl)
        mask = compare.vmsne_vx(m, vflags, 0, vl)
        packed = vcompress_vm(m, mask, vdata, vl)
        strip_kept = maskops.vcpop_m(m, mask, vl)
        if strip_kept:
            # store only the packed survivors (vse with vl=strip_kept
            # after a vsetvl; we charge the extra vsetvl)
            m.vsetvl(strip_kept, sew, lmul)
            loadstore.vse(m, dst, type(packed)(packed.data[:strip_kept]), strip_kept)
            m.vsetvl(min(n, m.vlmax(sew, lmul)), sew, lmul)
        dst += strip_kept
        kept += strip_kept
        m.scalar(1)
        src += vl
        flags += vl
        n -= vl
        m.strip_overhead("permute", n_arrays=3)
        if plan.has_spills:
            m.count(Cat.SPILL, plan.strip_cost(0))
    return kept
