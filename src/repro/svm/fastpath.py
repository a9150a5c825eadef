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

The counts come from one pure charge function per kernel
(``charge_*``): ``(codegen preset, VLEN, n, SEW, LMUL)`` plus at most
one op-specific fact in, ``((Cat, count), ...)`` out, no side effects
(so each is memoized). The fast kernel applies the result with one
``counters.add_many``; the :mod:`repro.svm.opspec` registry publishes
the same functions as ``OpSpec.charge``, and the engine sums them into
each plan's static counter profile at compile time. Pack's survivor-strip term
(:data:`PACK_VARIABLE`) is the one runtime charge.

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
from ..rvv.types import LMUL, sew_for_dtype, vlmax_for
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
    "charge_vx", "charge_vv", "charge_p_select", "charge_get_flags",
    "charge_scan", "charge_seg_scan", "charge_enumerate",
    "charge_permute", "charge_pack", "charge_cmp_vv", "charge_cmp_vx",
    "charge_index", "charge_reduce", "charge_shift1up", "charge_copy",
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
# pure charge functions: (cg, vlen, n, sew, lmul[, fact]) -> ((Cat, k), ...)
# ---------------------------------------------------------------------------

def _items(*pairs) -> tuple[tuple[Cat, int], ...]:
    """``(category, count)`` pairs summed per category, zero counts
    dropped — the shape every charge function returns."""
    acc: dict[Cat, int] = {}
    for cat, k in pairs:
        if k:
            acc[cat] = acc.get(cat, 0) + k
    return tuple(acc.items())


def _n_strips(vlen: int, n: int, sew, lmul: LMUL) -> int:
    full, rem = strip_shape(n, vlmax_for(vlen, sew, lmul))
    return full + (1 if rem else 0)


def _flat_spill(profile, lmul: LMUL, n_strips: int) -> int:
    """SPILL of a kernel without an inner loop: frame setup plus one
    strip cost per strip, 0 when nothing spills."""
    plan = plan_allocation(profile, lmul)
    if not plan.has_spills:
        return 0
    return plan.frame_setup + n_strips * plan.strip_cost(0)


def _flat(cg, vlen, n, sew, lmul, kernel: str, profile, n_arrays: int,
          per_strip, scalar=0, once=()):
    """A strip-mined loop without an inner loop: ``kernel``'s prologue,
    the ``once`` setup, then per strip one vsetvl, the ``per_strip``
    vector instructions, ``scalar`` extra scalar ops and ``kernel``'s
    bookkeeping over ``n_arrays`` pointers. ``profile`` None: no spill
    accounting."""
    s = _n_strips(vlen, n, sew, lmul)
    return _items(
        (Cat.SCALAR, cg.prologue(kernel)),
        (Cat.SPILL, _flat_spill(profile, lmul, s) if profile else 0),
        *once, (Cat.VCONFIG, s), *((cat, s * k) for cat, k in per_strip),
        (Cat.SCALAR, s * (scalar + cg.strip_overhead(kernel, n_arrays))),
    )


@lru_cache(maxsize=4096)
def charge_vx(cg, vlen, n, sew, lmul, kernel: str):
    """Vector-scalar elementwise ``kernel``: load, op, store."""
    return _flat(cg, vlen, n, sew, lmul, kernel, ELEMENTWISE_PROFILE, 1,
                 ((Cat.VMEM, 2), (Cat.VARITH, cg.op_cost())))


@lru_cache(maxsize=4096)
def charge_vv(cg, vlen, n, sew, lmul, kernel: str):
    """Vector-vector elementwise ``kernel``: 2 loads, op, store."""
    return _flat(cg, vlen, n, sew, lmul, kernel, ELEMENTWISE_PROFILE, 2,
                 ((Cat.VMEM, 3), (Cat.VARITH, cg.op_cost())))


@lru_cache(maxsize=4096)
def charge_get_flags(cg, vlen, n, sew, lmul):
    """get_flags: load, vsrl, vand, store."""
    return _flat(cg, vlen, n, sew, lmul, "get_flags", ELEMENTWISE_PROFILE, 2,
                 ((Cat.VMEM, 2), (Cat.VARITH, 2 * cg.op_cost())))


@lru_cache(maxsize=4096)
def charge_p_select(cg, vlen, n, sew, lmul):
    """p_select: 3 loads, vmsne, vmerge, store."""
    op = cg.op_cost()
    return _flat(cg, vlen, n, sew, lmul, "p_select", ELEMENTWISE_PROFILE, 3,
                 ((Cat.VMEM, 4), (Cat.VMASK, op), (Cat.VARITH, op)))


def _scan_shape(vlen, n, sew, lmul, profile):
    """(strips, total inner scan steps, SPILL) of a Listing 6/10 loop."""
    vlmax = vlmax_for(vlen, sew, lmul)
    full, rem = strip_shape(n, vlmax)
    steps_full = inner_scan_steps(vlmax)
    steps_rem = inner_scan_steps(rem)
    plan = plan_allocation(profile, lmul)
    spill = 0
    if plan.has_spills:
        spill = plan.frame_setup + full * plan.strip_cost(steps_full)
        if rem:
            spill += plan.strip_cost(steps_rem)
    return full + (1 if rem else 0), full * steps_full + steps_rem, spill


@lru_cache(maxsize=4096)
def charge_scan(cg, vlen, n, sew, lmul, exclusive: bool):
    """The unsegmented scan kernel (Listing 6 structure)."""
    kernel = "plus_scan"
    s, steps, spill = _scan_shape(vlen, n, sew, lmul, PLUS_SCAN_PROFILE)
    op = cg.op_cost()
    if exclusive:
        # vslidedown + vmv.x.s + vslide1up, carry combine applied to all
        tail = ((Cat.VPERM, s * 3), (Cat.VARITH, s * op), (Cat.SCALAR, s))
    else:
        # carry apply + carry reload
        tail = ((Cat.VARITH, s * op), (Cat.SCALAR, s * 2))
    return _items(
        (Cat.SCALAR, cg.prologue(kernel)),
        (Cat.SPILL, spill),
        # one-time vsetvlmax + identity broadcast; per strip vle + vse
        (Cat.VCONFIG, 1 + s), (Cat.VPERM, op), (Cat.VMEM, s * 2),
        # inner: slideup (undisturbed dest) + combine
        (Cat.VPERM, steps * cg.op_cost(dest_undisturbed=True)),
        (Cat.VARITH, steps * op),
        (Cat.SCALAR, steps * cg.inner_overhead(kernel)),
        *tail,
        (Cat.SCALAR, s * cg.strip_overhead(kernel, 1)),
    )


@lru_cache(maxsize=4096)
def charge_seg_scan(cg, vlen, n, sew, lmul, exclusive: bool):
    """The segmented scan kernel (Listing 10 structure)."""
    kernel = "seg_plus_scan"
    s, steps, spill = _scan_shape(vlen, n, sew, lmul, SEG_SCAN_PROFILE)
    op = cg.op_cost()
    undisturbed = cg.op_cost(dest_undisturbed=True)
    if exclusive:
        # vslidedown + vmv.x.s + vslide1up, vmerge with identity
        tail = ((Cat.VPERM, s * 3), (Cat.VARITH, s), (Cat.SCALAR, s))
    else:
        tail = ((Cat.SCALAR, s * 2),)
    return _items(
        (Cat.SCALAR, cg.prologue(kernel)),
        (Cat.SPILL, spill),
        # one-time vsetvlmax + two broadcasts (identity, ones)
        (Cat.VCONFIG, 1 + s), (Cat.VPERM, 2 * op),
        # per strip: two loads + store, vmsne + vmsbf, vmv.s.x
        (Cat.VMEM, s * 3), (Cat.VMASK, s * 2), (Cat.VPERM, s * undisturbed),
        # inner: vmsne + slideup(x) + masked combine + slideup(flags) + vor
        (Cat.VMASK, steps * op),
        (Cat.VPERM, steps * 2 * undisturbed),
        (Cat.VARITH, steps * (cg.op_cost(masked=True) + op)),
        (Cat.SCALAR, steps * cg.inner_overhead(kernel)),
        # masked carry apply, then carry reload / exclusive post-pass
        (Cat.VARITH, s * cg.op_cost(masked=True)),
        *tail,
        (Cat.SCALAR, s * cg.strip_overhead(kernel, 2)),
    )


@lru_cache(maxsize=4096)
def charge_enumerate(cg, vlen, n, sew, lmul):
    """Enumerate (Listing 8): vle, vmseq, viota, vadd, vse, vcpop."""
    return _flat(cg, vlen, n, sew, lmul, "enumerate", ENUMERATE_PROFILE, 2,
                 ((Cat.VMEM, 2), (Cat.VMASK, 3), (Cat.VARITH, cg.op_cost())),
                 scalar=1)


@lru_cache(maxsize=4096)
def charge_permute(cg, vlen, n, sew, lmul):
    """Permute and back-permute (Listing 5): index load, index shift,
    indexed store or load, unit-stride data access."""
    return _flat(cg, vlen, n, sew, lmul, "permute", PERMUTE_PROFILE, 2,
                 ((Cat.VMEM, 2), (Cat.VMEM_INDEXED, 1),
                  (Cat.VARITH, cg.op_cost())))


@lru_cache(maxsize=4096)
def charge_pack(cg, vlen, n, sew, lmul):
    """Pack's closed-form part: 2 loads, vmsne, vcompress, vcpop;
    :data:`PACK_VARIABLE` per strip holding a survivor comes on top."""
    return _flat(cg, vlen, n, sew, lmul, "permute", PERMUTE_PROFILE, 3,
                 ((Cat.VMEM, 2), (Cat.VMASK, 2), (Cat.VPERM, 1)), scalar=1)


def _compare(cg, vlen, n, sew, lmul, n_loads: int, n_mask: int):
    """A flag compare: zero broadcast once, then loads, ``n_mask`` mask
    ops, vmerge and store per strip."""
    return _flat(cg, vlen, n, sew, lmul, "p_cmp", ELEMENTWISE_PROFILE,
                 n_loads + 1,
                 ((Cat.VMEM, n_loads + 1), (Cat.VMASK, n_mask), (Cat.VARITH, 1)),
                 once=((Cat.VCONFIG, 1), (Cat.VPERM, cg.op_cost())))


@lru_cache(maxsize=4096)
def charge_cmp_vv(cg, vlen, n, sew, lmul):
    """Vector-vector flag compare."""
    return _compare(cg, vlen, n, sew, lmul, 2, 1)


@lru_cache(maxsize=4096)
def charge_cmp_vx(cg, vlen, n, sew, lmul, ge: bool):
    """Vector-scalar flag compare; ``ge`` is vmsltu + vmnot (one extra
    mask op per strip)."""
    return _compare(cg, vlen, n, sew, lmul, 1, 2 if ge else 1)


@lru_cache(maxsize=4096)
def charge_index(cg, vlen, n, sew, lmul):
    """p_index: vid, vadd, store."""
    return _flat(cg, vlen, n, sew, lmul, "p_index", ELEMENTWISE_PROFILE, 1,
                 ((Cat.VMASK, 1), (Cat.VARITH, 1), (Cat.VMEM, 1)), scalar=1)


@lru_cache(maxsize=4096)
def charge_reduce(cg, vlen, n, sew, lmul):
    """Reduce: load, vredop."""
    return _flat(cg, vlen, n, sew, lmul, "p_reduce", ELEMENTWISE_PROFILE, 1,
                 ((Cat.VMEM, 1), (Cat.VREDUCE, 1)))


@lru_cache(maxsize=4096)
def charge_shift1up(cg, vlen, n, sew, lmul):
    """shift1up: load, vslide1up, store (p_add's loop)."""
    return _flat(cg, vlen, n, sew, lmul, "p_add", ELEMENTWISE_PROFILE, 2,
                 ((Cat.VMEM, 2), (Cat.VPERM, 1)), scalar=2)


@lru_cache(maxsize=4096)
def charge_copy(cg, vlen, n, sew, lmul):
    """Copy: load, store — p_add's loop without the op, and without
    spill accounting, like the strict loop."""
    return _flat(cg, vlen, n, sew, lmul, "p_add", None, 2, ((Cat.VMEM, 2),))


def _charge(m: RVVMachine, fn, n: int, dtype, lmul: LMUL, **fact) -> None:
    """Apply charge function ``fn`` for a length-``n`` call strip-mined
    at ``dtype``'s SEW. The op-specific fact goes by keyword, as the
    registry's ``partial`` passes it, so both share one memo entry."""
    m.counters.add_many(fn(m.codegen, m.vlen, n, sew_for_dtype(dtype), lmul,
                           **fact))


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def fast_elementwise_vx(m: RVVMachine, kernel: str, n: int, a: Pointer, x: int,
                        lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the vector-scalar elementwise kernels (p_add etc.)."""
    n = int(n)
    if n:
        view = a.view(n)
        ufunc = _UFUNC_VX[kernel]
        ufunc(view, _wrap(x, a.dtype), out=view)
    _charge(m, charge_vx, n, a.dtype, lmul, kernel=kernel)


def fast_elementwise_vv(m: RVVMachine, kernel: str, n: int, a: Pointer, b: Pointer,
                        lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the vector-vector elementwise kernels."""
    n = int(n)
    if n:
        va = a.view(n)
        ufunc = _UFUNC_VX[kernel]
        ufunc(va, b.view(n), out=va)
    _charge(m, charge_vv, n, a.dtype, lmul, kernel=kernel)


def fast_p_select(m: RVVMachine, n: int, flags: Pointer, a: Pointer, b: Pointer,
                  lmul: LMUL = LMUL.M1) -> None:
    """Fast path of p_select: ``b[i] = a[i] where flags[i]``."""
    n = int(n)
    if n:
        vb = b.view(n)
        np.copyto(vb, a.view(n), where=flags.view(n).astype(bool))
    _charge(m, charge_p_select, n, a.dtype, lmul)


def fast_get_flags(m: RVVMachine, n: int, src: Pointer, flags: Pointer, bit: int,
                   lmul: LMUL = LMUL.M1) -> None:
    """Fast path of get_flags."""
    n = int(n)
    if n:
        s = src.view(n)
        flags.view(n)[:] = (s >> s.dtype.type(bit)) & s.dtype.type(1)
    _charge(m, charge_get_flags, n, src.dtype, lmul)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def fast_scan(m: RVVMachine, n: int, src: Pointer, op: str | BinaryOp = PLUS,
              lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the inclusive ⊕-scan."""
    op = get_operator(op)
    n = int(n)
    if n:
        view = src.view(n)
        op.ufunc.accumulate(view, out=view)
    _charge(m, charge_scan, n, src.dtype, lmul, exclusive=False)


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
    _charge(m, charge_scan, n, src.dtype, lmul, exclusive=True)


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
    _charge(m, charge_seg_scan, n, src.dtype, lmul, exclusive=False)


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
    _charge(m, charge_seg_scan, n, src.dtype, lmul, exclusive=True)


# ---------------------------------------------------------------------------
# enumerate / permute / pack
# ---------------------------------------------------------------------------

def fast_enumerate(m: RVVMachine, n: int, flags: Pointer, dst: Pointer,
                   set_bit: bool, lmul: LMUL = LMUL.M1) -> int:
    """Fast path of enumerate."""
    n = int(n)
    count = 0
    if n:
        match = (flags.view(n) == flags.dtype.type(1 if set_bit else 0))
        excl = np.zeros(n, dtype=np.int64)
        if n > 1:
            np.cumsum(match[:-1], out=excl[1:])
        dst.view(n)[:] = excl.astype(dst.dtype)
        count = int(np.count_nonzero(match))
    _charge(m, charge_enumerate, n, flags.dtype, lmul)
    return count


def fast_permute(m: RVVMachine, n: int, src: Pointer, dst: Pointer, index: Pointer,
                 lmul: LMUL = LMUL.M1) -> None:
    """Fast path of permute: ``dst[index[i]] = src[i]``."""
    n = int(n)
    if n:
        dst.view(n)[index.view(n).astype(np.int64)] = src.view(n)
    _charge(m, charge_permute, n, src.dtype, lmul)


def fast_back_permute(m: RVVMachine, n: int, src: Pointer, dst: Pointer,
                      index: Pointer, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of back-permute: ``dst[i] = src[index[i]]``."""
    n = int(n)
    if n:
        dst.view(n)[:] = src.view(n)[index.view(n).astype(np.int64)]
    _charge(m, charge_permute, n, src.dtype, lmul)


#: Pack's data-dependent charge, per strip that holds at least one
#: survivor: the strict kernel re-narrows vl to the survivor count and
#: back (2 extra vsetvls) and issues the compacted store (1 extra
#: vse). Everything else in pack's profile is closed-form
#: (:func:`charge_pack`). This is the single source for the variable
#: term — shared by :func:`fast_pack`, the native tier and the ragged
#: 2D batch path (via :func:`pack_variable_items`).
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
    if n:
        keep = flags.view(n).astype(bool)
        packed = src.view(n)[keep]
        kept = packed.size
        if kept:
            dst.view(kept)[:] = packed
        vlmax = m.vlmax(sew=sew_for_dtype(src.dtype), lmul=lmul)
        m.counters.add_many(pack_variable_items(pack_strip_survivors(keep, vlmax)))
    _charge(m, charge_pack, n, src.dtype, lmul)
    return kept


# ---------------------------------------------------------------------------
# extended primitives (Blelloch's full elementwise class)
# ---------------------------------------------------------------------------

_NP_CMP = {
    "lt": np.less, "le": np.less_equal, "gt": np.greater,
    "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal,
}


def fast_cmp_vv(m: RVVMachine, which: str, n: int, a: Pointer, b: Pointer,
                out: Pointer, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the vector-vector flag compares."""
    n = int(n)
    if n:
        out.view(n)[:] = _NP_CMP[which](a.view(n), b.view(n)).astype(out.dtype)
    _charge(m, charge_cmp_vv, n, a.dtype, lmul)


def fast_cmp_vx(m: RVVMachine, which: str, n: int, a: Pointer, x: int,
                out: Pointer, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of the vector-scalar flag compares."""
    n = int(n)
    if n:
        out.view(n)[:] = _NP_CMP[which](a.view(n), _wrap(x, a.dtype)).astype(out.dtype)
    _charge(m, charge_cmp_vx, n, a.dtype, lmul, ge=which == "ge")


def fast_index(m: RVVMachine, n: int, out: Pointer, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of p_index."""
    n = int(n)
    if n:
        out.view(n)[:] = np.arange(n, dtype=np.uint64).astype(out.dtype)
    _charge(m, charge_index, n, out.dtype, lmul)


def fast_rsub(m: RVVMachine, n: int, a: Pointer, x: int, lmul: LMUL = LMUL.M1) -> None:
    """Fast path of p_rsub (charged as p_add: the strict loop is
    p_add's)."""
    n = int(n)
    if n:
        view = a.view(n)
        np.subtract(_wrap(x, a.dtype), view, out=view)
    _charge(m, charge_vx, n, a.dtype, lmul, kernel="p_add")


def fast_reduce(m: RVVMachine, n: int, a: Pointer, op: str | BinaryOp = PLUS,
                lmul: LMUL = LMUL.M1) -> int:
    """Fast path of reduce."""
    op = get_operator(op)
    n = int(n)
    acc = op.identity(a.dtype)
    if n:
        acc = int(op.ufunc.reduce(a.view(n), initial=_wrap(acc, a.dtype), dtype=a.dtype))
    _charge(m, charge_reduce, n, a.dtype, lmul)
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
    _charge(m, charge_shift1up, n, src.dtype, lmul)


def fast_copy(m: RVVMachine, n: int, src: Pointer, dst: Pointer,
              lmul: LMUL = LMUL.M1) -> None:
    """Fast path of copy."""
    n = int(n)
    if n:
        dst.view(n)[:] = src.view(n)
    _charge(m, charge_copy, n, src.dtype, lmul)
