"""Fast-path kernels: whole-array NumPy semantics + closed-form counts.

The strict kernels walk the machine strip by strip — exact but O(n/vl)
Python-level work, which the HPC guides rightly forbid in hot paths.
Every kernel's dynamic instruction count, however, depends only on the
*vl sequence* (a function of n, VLEN, SEW, LMUL), never on the data
(the kernels are branch-free at the lane level; the one data-dependent
kernel, ``pack``, is handled explicitly). So each primitive here:

1. computes its result with one vectorized NumPy expression over the
   memory view, and
2. charges the machine counters with the *identical per-category
   counts* the strict kernel would produce.

``tests/integration/test_strict_vs_fast.py`` asserts exact equality of
both results and per-category counts across n, VLEN, LMUL, operators
and codegen presets — the fast path is not an approximation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..rvv.allocation import (
    ELEMENTWISE_PROFILE,
    ENUMERATE_PROFILE,
    PERMUTE_PROFILE,
    PLUS_SCAN_PROFILE,
    SEG_SCAN_PROFILE,
    plan_allocation,
)
from ..rvv.counters import Cat
from ..rvv.machine import RVVMachine
from ..rvv.memory import Pointer
from ..rvv.types import LMUL, sew_for_dtype
from ..scalar.kernels import segmented_cumsum, segmented_reduce_numpy
from .operators import PLUS, BinaryOp, get_operator
from .scan import inner_scan_steps

__all__ = [
    "strip_shape",
    "fast_elementwise_vx",
    "fast_elementwise_vv",
    "fast_p_select",
    "fast_get_flags",
    "fast_scan",
    "fast_scan_exclusive",
    "fast_seg_scan",
    "fast_seg_scan_exclusive",
    "fast_enumerate",
    "fast_permute",
    "fast_back_permute",
    "fast_pack",
    "fast_cmp_vv", "fast_cmp_vx", "fast_index", "fast_rsub",
    "fast_reduce", "fast_shift1up", "fast_copy",
]

def _srl(view, x, out):
    np.right_shift(view, view.dtype.type(int(x) & (view.dtype.itemsize * 8 - 1)),
                   out=out)


def _sll(view, x, out):
    np.left_shift(view, view.dtype.type(int(x) & (view.dtype.itemsize * 8 - 1)),
                  out=out)


def _rsub(view, x, out):
    np.subtract(x, view, out=out)


_UFUNC_VX = {
    "p_add": np.add, "p_sub": np.subtract, "p_mul": np.multiply,
    "p_and": np.bitwise_and, "p_or": np.bitwise_or, "p_xor": np.bitwise_xor,
    "p_max": np.maximum, "p_min": np.minimum,
    "p_srl": _srl, "p_sll": _sll, "p_rsub": _rsub,
}


@lru_cache(maxsize=4096)
def strip_shape(n: int, vlmax: int) -> tuple[int, int]:
    """(number of full strips, remainder strip length) for ``n``
    elements at ``vlmax`` — the vl sequence is ``vlmax`` repeated
    ``full`` times followed by ``rem`` if nonzero.

    Cached: benchmark grids and batch runs recompute the same few
    (n, vlmax) points thousands of times, and both arguments are plain
    ints (machine objects never enter the key)."""
    n = int(n)
    return n // vlmax, n % vlmax


def _wrap(x: int, dtype: np.dtype):
    dtype = np.dtype(dtype)
    bits = dtype.itemsize * 8
    x = int(x) & ((1 << bits) - 1)
    if dtype.kind == "i" and x >= 1 << (bits - 1):
        x -= 1 << bits
    return dtype.type(x)


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def _charge_elementwise(m: RVVMachine, kernel: str, n: int, lmul: LMUL,
                        n_arrays: int, n_loads: int, sew, extra_cats=()) -> None:
    """Counts of a one-op-per-strip elementwise kernel: vsetvl, loads,
    one compute op, a store, bookkeeping — times the strip count."""
    vlmax = m.vlmax(sew=sew, lmul=lmul)
    full, rem = strip_shape(n, vlmax)
    n_strips = full + (1 if rem else 0)
    plan = plan_allocation(ELEMENTWISE_PROFILE, lmul)
    m.count(Cat.SCALAR, m.codegen.prologue(kernel))
    if plan.has_spills:
        m.count(Cat.SPILL, plan.frame_setup + n_strips * plan.strip_cost(0))
    m.count(Cat.VCONFIG, n_strips)
    m.count(Cat.VMEM, n_strips * (n_loads + 1))  # loads + one store
    m.count(Cat.VARITH, n_strips * m.codegen.op_cost())
    for cat, per_strip in extra_cats:
        m.count(cat, n_strips * per_strip)
    m.count(Cat.SCALAR, n_strips * m.codegen.strip_overhead(kernel, n_arrays))


def fast_elementwise_vx(m: RVVMachine, kernel: str, n: int, a: Pointer, x: int,
                        lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the vector-scalar elementwise kernels (p_add etc.)."""
    n = int(n)
    if n:
        view = a.view(n)
        ufunc = _UFUNC_VX[kernel]
        ufunc(view, _wrap(x, a.dtype), out=view)
    _charge_elementwise(m, kernel, n, lmul, n_arrays=1, n_loads=1,
                        sew=sew_for_dtype(a.dtype))


def fast_elementwise_vv(m: RVVMachine, kernel: str, n: int, a: Pointer, b: Pointer,
                        lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the vector-vector elementwise kernels."""
    n = int(n)
    if n:
        va = a.view(n)
        ufunc = _UFUNC_VX[kernel]
        ufunc(va, b.view(n), out=va)
    _charge_elementwise(m, kernel, n, lmul, n_arrays=2, n_loads=2,
                        sew=sew_for_dtype(a.dtype))


def fast_p_select(m: RVVMachine, n: int, flags: Pointer, a: Pointer, b: Pointer,
                  lmul: LMUL = LMUL.M1) -> None:
    """Fast path of p_select: ``b[i] = a[i] where flags[i]``.

    Strict counts per strip: vsetvl + 3 loads + vmsne + vmerge + store.
    """
    n = int(n)
    if n:
        vb = b.view(n)
        np.copyto(vb, a.view(n), where=flags.view(n).astype(bool))
    vlmax = m.vlmax(sew=sew_for_dtype(a.dtype), lmul=lmul)
    full, rem = strip_shape(n, vlmax)
    n_strips = full + (1 if rem else 0)
    plan = plan_allocation(ELEMENTWISE_PROFILE, lmul)
    m.count(Cat.SCALAR, m.codegen.prologue("p_select"))
    if plan.has_spills:
        m.count(Cat.SPILL, plan.frame_setup + n_strips * plan.strip_cost(0))
    m.count(Cat.VCONFIG, n_strips)
    m.count(Cat.VMEM, n_strips * 4)
    m.count(Cat.VMASK, n_strips * m.codegen.op_cost())
    m.count(Cat.VARITH, n_strips * m.codegen.op_cost())
    m.count(Cat.SCALAR, n_strips * m.codegen.strip_overhead("p_select", 3))


def fast_get_flags(m: RVVMachine, n: int, src: Pointer, flags: Pointer, bit: int,
                   lmul: LMUL = LMUL.M1) -> None:
    """Fast path of get_flags: strict is vsetvl + load + vsrl + vand +
    store per strip."""
    n = int(n)
    if n:
        s = src.view(n)
        flags.view(n)[:] = (s >> s.dtype.type(bit)) & s.dtype.type(1)
    _charge_elementwise(
        m, "get_flags", n, lmul, n_arrays=2, n_loads=1,
        sew=sew_for_dtype(src.dtype),
        extra_cats=((Cat.VARITH, m.codegen.op_cost()),),  # the second shift/and op
    )


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def _charge_scan(m: RVVMachine, n: int, lmul: LMUL, exclusive: bool, sew) -> None:
    """Counts of the unsegmented scan kernel (Listing 6 structure)."""
    kernel = "plus_scan"
    vlmax = m.vlmax(sew=sew, lmul=lmul)
    full, rem = strip_shape(n, vlmax)
    n_strips = full + (1 if rem else 0)
    steps_full = inner_scan_steps(vlmax)
    steps_rem = inner_scan_steps(rem)
    total_steps = full * steps_full + steps_rem
    cg = m.codegen
    plan = plan_allocation(PLUS_SCAN_PROFILE, lmul)

    m.count(Cat.SCALAR, cg.prologue(kernel))
    if plan.has_spills:
        spill = plan.frame_setup
        spill += full * plan.strip_cost(steps_full)
        if rem:
            spill += plan.strip_cost(steps_rem)
        m.count(Cat.SPILL, spill)
    # one-time: vsetvlmax + identity broadcast
    m.count(Cat.VCONFIG, 1)
    m.count(Cat.VPERM, cg.op_cost())
    # per strip
    m.count(Cat.VCONFIG, n_strips)
    m.count(Cat.VMEM, n_strips * 2)  # vle + vse
    # inner: slideup (undisturbed dest) + combine
    m.count(Cat.VPERM, total_steps * cg.op_cost(dest_undisturbed=True))
    m.count(Cat.VARITH, total_steps * cg.op_cost())
    m.count(Cat.SCALAR, total_steps * cg.inner_overhead(kernel))
    if exclusive:
        # vslidedown + vmv.x.s + vslide1up, carry combine applied to all
        m.count(Cat.VPERM, n_strips * 3)
        m.count(Cat.VARITH, n_strips * cg.op_cost())
        m.count(Cat.SCALAR, n_strips * 1)
    else:
        m.count(Cat.VARITH, n_strips * cg.op_cost())  # carry apply
        m.count(Cat.SCALAR, n_strips * 2)  # carry reload
    m.count(Cat.SCALAR, n_strips * cg.strip_overhead(kernel, 1))


def fast_scan(m: RVVMachine, n: int, src: Pointer, op: str | BinaryOp = PLUS,
              lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the inclusive ⊕-scan."""
    op = get_operator(op)
    n = int(n)
    if n:
        view = src.view(n)
        op.ufunc.accumulate(view, out=view)
    _charge_scan(m, n, lmul, exclusive=False, sew=sew_for_dtype(src.dtype))


def fast_scan_exclusive(m: RVVMachine, n: int, src: Pointer,
                        op: str | BinaryOp = PLUS, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the exclusive ⊕-scan."""
    op = get_operator(op)
    n = int(n)
    if n:
        view = src.view(n)
        incl = op.ufunc.accumulate(view)
        view[1:] = incl[:-1]
        view[0] = _wrap(op.identity(src.dtype), src.dtype)
    _charge_scan(m, n, lmul, exclusive=True, sew=sew_for_dtype(src.dtype))


def _charge_seg_scan(m: RVVMachine, n: int, lmul: LMUL, exclusive: bool, sew) -> None:
    """Counts of the segmented scan kernel (Listing 10 structure)."""
    kernel = "seg_plus_scan"
    vlmax = m.vlmax(sew=sew, lmul=lmul)
    full, rem = strip_shape(n, vlmax)
    n_strips = full + (1 if rem else 0)
    steps_full = inner_scan_steps(vlmax)
    steps_rem = inner_scan_steps(rem)
    total_steps = full * steps_full + steps_rem
    cg = m.codegen
    plan = plan_allocation(SEG_SCAN_PROFILE, lmul)

    m.count(Cat.SCALAR, cg.prologue(kernel))
    if plan.has_spills:
        spill = plan.frame_setup
        spill += full * plan.strip_cost(steps_full)
        if rem:
            spill += plan.strip_cost(steps_rem)
        m.count(Cat.SPILL, spill)
    # one-time: vsetvlmax + two broadcasts (identity, ones)
    m.count(Cat.VCONFIG, 1)
    m.count(Cat.VPERM, 2 * cg.op_cost())
    # per strip outer
    m.count(Cat.VCONFIG, n_strips)
    m.count(Cat.VMEM, n_strips * 3)  # two loads + store
    m.count(Cat.VMASK, n_strips * 2)  # vmsne + vmsbf
    m.count(Cat.VPERM, n_strips * cg.op_cost(dest_undisturbed=True))  # vmv.s.x
    # inner: vmsne + slideup(x) + masked combine + slideup(flags) + vor
    m.count(Cat.VMASK, total_steps * cg.op_cost())
    m.count(Cat.VPERM, total_steps * 2 * cg.op_cost(dest_undisturbed=True))
    m.count(Cat.VARITH, total_steps * (cg.op_cost(masked=True) + cg.op_cost()))
    m.count(Cat.SCALAR, total_steps * cg.inner_overhead(kernel))
    # carry apply (masked) + carry reload / exclusive post-pass
    m.count(Cat.VARITH, n_strips * cg.op_cost(masked=True))
    if exclusive:
        m.count(Cat.VPERM, n_strips * 3)  # vslidedown + vmv.x.s + vslide1up
        m.count(Cat.VARITH, n_strips * 1)  # vmerge with identity
        m.count(Cat.SCALAR, n_strips * 1)
    else:
        m.count(Cat.SCALAR, n_strips * 2)
    m.count(Cat.SCALAR, n_strips * cg.strip_overhead(kernel, 2))


def fast_seg_scan(m: RVVMachine, n: int, src: Pointer, head_flags: Pointer,
                  op: str | BinaryOp = PLUS, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the inclusive segmented ⊕-scan."""
    op = get_operator(op)
    n = int(n)
    if n:
        view = src.view(n)
        flags = head_flags.view(n)
        if op.name == "plus":
            view[:] = segmented_cumsum(view, flags)
        else:
            view[:] = segmented_reduce_numpy(view, flags, op.ufunc)
    _charge_seg_scan(m, n, lmul, exclusive=False, sew=sew_for_dtype(src.dtype))


def fast_seg_scan_exclusive(m: RVVMachine, n: int, src: Pointer, head_flags: Pointer,
                            op: str | BinaryOp = PLUS, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the exclusive segmented ⊕-scan."""
    op = get_operator(op)
    n = int(n)
    if n:
        view = src.view(n)
        flags = head_flags.view(n)
        if op.name == "plus":
            incl = segmented_cumsum(view, flags)
        else:
            incl = segmented_reduce_numpy(view, flags, op.ufunc)
        heads = flags.astype(bool).copy()
        heads[0] = True
        view[1:] = incl[:-1]
        view[heads] = _wrap(op.identity(src.dtype), src.dtype)
    _charge_seg_scan(m, n, lmul, exclusive=True, sew=sew_for_dtype(src.dtype))


# ---------------------------------------------------------------------------
# enumerate / permute / pack
# ---------------------------------------------------------------------------

def fast_enumerate(m: RVVMachine, n: int, flags: Pointer, dst: Pointer,
                   set_bit: bool, lmul: LMUL = LMUL.M1) -> int:
    """Fast path of enumerate (Listing 8 structure: vsetvl, vle, vmseq,
    viota, vadd, vse, vcpop per strip)."""
    n = int(n)
    count = 0
    if n:
        match = (flags.view(n) == flags.dtype.type(1 if set_bit else 0))
        excl = np.zeros(n, dtype=np.int64)
        if n > 1:
            np.cumsum(match[:-1], out=excl[1:])
        dst.view(n)[:] = excl.astype(dst.dtype)
        count = int(np.count_nonzero(match))
    vlmax = m.vlmax(sew=sew_for_dtype(flags.dtype), lmul=lmul)
    full, rem = strip_shape(n, vlmax)
    n_strips = full + (1 if rem else 0)
    plan = plan_allocation(ENUMERATE_PROFILE, lmul)
    cg = m.codegen
    m.count(Cat.SCALAR, cg.prologue("enumerate"))
    if plan.has_spills:
        m.count(Cat.SPILL, plan.frame_setup + n_strips * plan.strip_cost(0))
    m.count(Cat.VCONFIG, n_strips)
    m.count(Cat.VMEM, n_strips * 2)
    m.count(Cat.VMASK, n_strips * 3)  # vmseq + viota + vcpop
    m.count(Cat.VARITH, n_strips * cg.op_cost())
    m.count(Cat.SCALAR, n_strips * (1 + cg.strip_overhead("enumerate", 2)))
    return count


def _charge_permute(m: RVVMachine, n: int, lmul: LMUL, gather: bool,
                    sew=None) -> None:
    if sew is None:
        sew = sew_for_dtype(np.uint32)
    vlmax = m.vlmax(sew=sew, lmul=lmul)
    full, rem = strip_shape(n, vlmax)
    n_strips = full + (1 if rem else 0)
    plan = plan_allocation(PERMUTE_PROFILE, lmul)
    cg = m.codegen
    m.count(Cat.SCALAR, cg.prologue("permute"))
    if plan.has_spills:
        m.count(Cat.SPILL, plan.frame_setup + n_strips * plan.strip_cost(0))
    m.count(Cat.VCONFIG, n_strips)
    m.count(Cat.VMEM, n_strips * 2)  # index load + (data load | data store)
    m.count(Cat.VMEM_INDEXED, n_strips)
    m.count(Cat.VARITH, n_strips * cg.op_cost())  # index shift
    m.count(Cat.SCALAR, n_strips * cg.strip_overhead("permute", 2))


def fast_permute(m: RVVMachine, n: int, src: Pointer, dst: Pointer, index: Pointer,
                 lmul: LMUL = LMUL.M1) -> None:
    """Fast path of permute: ``dst[index[i]] = src[i]``."""
    n = int(n)
    if n:
        dst.view(n)[index.view(n).astype(np.int64)] = src.view(n)
    _charge_permute(m, n, lmul, gather=False, sew=sew_for_dtype(src.dtype))


def fast_back_permute(m: RVVMachine, n: int, src: Pointer, dst: Pointer,
                      index: Pointer, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of back-permute: ``dst[i] = src[index[i]]``."""
    n = int(n)
    if n:
        dst.view(n)[:] = src.view(n)[index.view(n).astype(np.int64)]
    _charge_permute(m, n, lmul, gather=True, sew=sew_for_dtype(src.dtype))


#: Pack's data-dependent charge, per strip that holds at least one
#: survivor: the strict kernel re-narrows vl to the survivor count and
#: back (2 extra vsetvls) and issues the compacted store (1 extra
#: vse). Everything else in pack's profile is closed-form. This is the
#: single source for the variable term — shared by :func:`fast_pack`
#: and the ragged 2D batch path (via :func:`pack_variable_items`).
PACK_VARIABLE = ((Cat.VCONFIG, 2), (Cat.VMEM, 1))


def pack_variable_items(sws: int) -> tuple[tuple[Cat, int], ...]:
    """Pack's data-dependent charge for one row as ``(category, count)``
    pairs, given that row's strips-with-survivors count.

    Every other term in pack's profile is a function of (n, VLEN, SEW,
    LMUL) alone and is covered by the closed-form counter delta; only
    these items vary between rows of a batch. The weights are
    :data:`PACK_VARIABLE` — the same constant :func:`fast_pack`
    charges with — so the eager and ragged tiers cannot drift."""
    sws = int(sws)
    return tuple((cat, weight * sws) for cat, weight in PACK_VARIABLE)


def pack_strip_survivors(keep: np.ndarray, vlmax: int) -> np.ndarray:
    """Strips holding at least one survivor, per row.

    ``keep`` is a boolean keep-mask over the trailing axis (1-D for a
    single call, ``[B, n]`` for a ragged batch); the return has the
    leading shape (a 0-d array for 1-D input). One ``reduceat`` per
    call — the same arithmetic for the eager fast path and the batch
    runner, so the data-dependent charge can never drift between
    tiers."""
    n = keep.shape[-1]
    if n == 0:
        return np.zeros(keep.shape[:-1], dtype=np.int64)
    starts = np.arange(0, n, vlmax)
    per_strip = np.add.reduceat(keep.astype(np.int64), starts, axis=-1)
    return np.count_nonzero(per_strip, axis=-1)


def fast_pack(m: RVVMachine, n: int, src: Pointer, dst: Pointer, flags: Pointer,
              lmul: LMUL = LMUL.M1) -> int:
    """Fast path of pack. The strict kernel's count is data-dependent
    (strips with zero survivors skip their store and two vsetvls), so
    the per-strip survivor counts are computed here with one
    ``reduceat``."""
    n = int(n)
    kept = 0
    vlmax = m.vlmax(sew=sew_for_dtype(src.dtype), lmul=lmul)
    full, rem = strip_shape(n, vlmax)
    n_strips = full + (1 if rem else 0)
    strips_with_survivors = 0
    if n:
        keep = flags.view(n).astype(bool)
        packed = src.view(n)[keep]
        kept = packed.size
        if kept:
            dst.view(kept)[:] = packed
        strips_with_survivors = int(pack_strip_survivors(keep, vlmax))
    plan = plan_allocation(PERMUTE_PROFILE, lmul)
    cg = m.codegen
    m.count(Cat.SCALAR, cg.prologue("permute"))
    if plan.has_spills:
        m.count(Cat.SPILL, plan.frame_setup + n_strips * plan.strip_cost(0))
    m.count(Cat.VCONFIG, n_strips)
    m.count(Cat.VMEM, n_strips * 2)
    m.count(Cat.VMASK, n_strips * 2)  # vmsne + vcpop
    m.count(Cat.VPERM, n_strips)  # vcompress
    m.count(Cat.SCALAR, n_strips * (1 + cg.strip_overhead("permute", 3)))
    for cat, weight in PACK_VARIABLE:
        m.count(cat, weight * strips_with_survivors)
    return kept


# ---------------------------------------------------------------------------
# extended primitives (Blelloch's full elementwise class)
# ---------------------------------------------------------------------------

_NP_CMP = {
    "lt": np.less, "le": np.less_equal, "gt": np.greater,
    "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal,
}


@lru_cache(maxsize=4096)
def _strip_count(n: int, vlmax: int) -> int:
    full, rem = strip_shape(n, vlmax)
    return full + (1 if rem else 0)


def _strips(m: RVVMachine, n: int, lmul: LMUL, dtype=np.uint32) -> int:
    # cache on the (n, vlmax) ints only — machine objects never enter
    # the key
    return _strip_count(int(n), m.vlmax(sew=sew_for_dtype(dtype), lmul=lmul))


def _spill(m: RVVMachine, n_strips: int, lmul: LMUL) -> None:
    plan = plan_allocation(ELEMENTWISE_PROFILE, lmul)
    if plan.has_spills:
        m.count(Cat.SPILL, plan.frame_setup + n_strips * plan.strip_cost(0))


def fast_cmp_vv(m: RVVMachine, which: str, n: int, a: Pointer, b: Pointer,
                out: Pointer, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the vector-vector flag compares."""
    n = int(n)
    if n:
        out.view(n)[:] = _NP_CMP[which](a.view(n), b.view(n)).astype(out.dtype)
    s = _strips(m, n, lmul, a.dtype)
    _spill(m, s, lmul)
    m.count(Cat.SCALAR, m.codegen.prologue("p_cmp"))
    m.count(Cat.VCONFIG, 1 + s)  # vsetvlmax + per strip
    m.count(Cat.VPERM, m.codegen.op_cost())  # zero broadcast
    m.count(Cat.VMEM, s * 3)
    m.count(Cat.VMASK, s)
    m.count(Cat.VARITH, s)  # vmerge
    m.count(Cat.SCALAR, s * m.codegen.strip_overhead("p_cmp", 3))


def fast_cmp_vx(m: RVVMachine, which: str, n: int, a: Pointer, x: int,
                out: Pointer, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the vector-scalar flag compares (``ge`` uses the
    vmsltu+vmnot idiom and costs one extra mask op per strip)."""
    n = int(n)
    if n:
        out.view(n)[:] = _NP_CMP[which](a.view(n), _wrap(x, a.dtype)).astype(out.dtype)
    s = _strips(m, n, lmul, a.dtype)
    _spill(m, s, lmul)
    m.count(Cat.SCALAR, m.codegen.prologue("p_cmp"))
    m.count(Cat.VCONFIG, 1 + s)
    m.count(Cat.VPERM, m.codegen.op_cost())
    m.count(Cat.VMEM, s * 2)
    m.count(Cat.VMASK, s * (2 if which == "ge" else 1))
    m.count(Cat.VARITH, s)
    m.count(Cat.SCALAR, s * m.codegen.strip_overhead("p_cmp", 2))


def fast_index(m: RVVMachine, n: int, out: Pointer, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of p_index."""
    n = int(n)
    if n:
        out.view(n)[:] = np.arange(n, dtype=np.uint64).astype(out.dtype)
    s = _strips(m, n, lmul, out.dtype)
    _spill(m, s, lmul)
    m.count(Cat.SCALAR, m.codegen.prologue("p_index"))
    m.count(Cat.VCONFIG, s)
    m.count(Cat.VMASK, s)  # vid
    m.count(Cat.VARITH, s)
    m.count(Cat.VMEM, s)
    m.count(Cat.SCALAR, s * (1 + m.codegen.strip_overhead("p_index", 1)))


def fast_rsub(m: RVVMachine, n: int, a: Pointer, x: int, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of p_rsub."""
    n = int(n)
    if n:
        view = a.view(n)
        np.subtract(_wrap(x, a.dtype), view, out=view)
    s = _strips(m, n, lmul, a.dtype)
    _spill(m, s, lmul)
    m.count(Cat.SCALAR, m.codegen.prologue("p_add"))
    m.count(Cat.VCONFIG, s)
    m.count(Cat.VMEM, s * 2)
    m.count(Cat.VARITH, s)
    m.count(Cat.SCALAR, s * m.codegen.strip_overhead("p_add", 1))


def fast_reduce(m: RVVMachine, n: int, a: Pointer, op: str | BinaryOp = PLUS,
                lmul: LMUL = LMUL.M1) -> int:
    """Fast path of reduce."""
    op = get_operator(op)
    n = int(n)
    acc = op.identity(a.dtype)
    if n:
        acc = int(op.ufunc.reduce(a.view(n), initial=_wrap(acc, a.dtype), dtype=a.dtype))
    s = _strips(m, n, lmul, a.dtype)
    _spill(m, s, lmul)
    m.count(Cat.SCALAR, m.codegen.prologue("p_reduce"))
    m.count(Cat.VCONFIG, s)
    m.count(Cat.VMEM, s)
    m.count(Cat.VREDUCE, s)
    m.count(Cat.SCALAR, s * m.codegen.strip_overhead("p_reduce", 1))
    return acc


def fast_shift1up(m: RVVMachine, n: int, src: Pointer, dst: Pointer, fill: int,
                  lmul: LMUL = LMUL.M1) -> None:
    """Fast path of shift1up."""
    n = int(n)
    if n:
        s_view = src.view(n)
        d_view = dst.view(n)
        # src and dst may alias; copy the source tail first
        tail = s_view[:-1].copy()
        d_view[1:] = tail
        d_view[0] = _wrap(fill, dst.dtype)
    s = _strips(m, n, lmul, src.dtype)
    _spill(m, s, lmul)
    m.count(Cat.SCALAR, m.codegen.prologue("p_add"))
    m.count(Cat.VCONFIG, s)
    m.count(Cat.VMEM, s * 2)
    m.count(Cat.VPERM, s)
    m.count(Cat.SCALAR, s * (2 + m.codegen.strip_overhead("p_add", 2)))


def fast_copy(m: RVVMachine, n: int, src: Pointer, dst: Pointer,
              lmul: LMUL = LMUL.M1) -> None:
    """Fast path of copy (a two-array elementwise pass without the
    compute op; no spill accounting, like the strict loop)."""
    n = int(n)
    m.count(Cat.SCALAR, m.codegen.prologue("p_add"))
    if n:
        dst.view(n)[:] = src.view(n)
    s = _strips(m, n, lmul, src.dtype)
    m.count(Cat.VCONFIG, s)
    m.count(Cat.VMEM, s * 2)
    m.count(Cat.SCALAR, s * m.codegen.strip_overhead("p_add", 2))
