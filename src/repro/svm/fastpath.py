"""Fast-path kernels: whole-array NumPy semantics + closed-form counts.

The strict kernels walk the machine strip by strip — exact but O(n/vl)
Python-level work, which the HPC guides rightly forbid in hot paths.
Every kernel's dynamic instruction count, however, depends only on the
*vl sequence* (a function of n, VLEN, SEW, LMUL), never on the data
(the kernels are branch-free at the lane level; the one data-dependent
kernel, ``pack``, is handled explicitly). So this module holds, per
primitive, the two halves of its fast path:

1. a NumPy body (``np_*``) that computes the result: one vectorized
   expression over the trailing axis, which runs unchanged on one
   call's memory views and on a ``[B, n]`` matrix of batch rows;
2. a pure charge function (``charge_*``): ``(codegen preset, VLEN, n,
   SEW, LMUL)`` plus at most one op-specific fact in, the strict
   kernel's *identical per-category counts* ``((Cat, count), ...)``
   out, no side effects (so each is memoized).

Neither half knows a calling convention. The
:mod:`repro.svm.opspec` registry pairs them: its per-kind signature
table (:data:`~repro.svm.opspec.SIGNATURES`) names each body's operand
roles, from which the engine derives its node calls (views in, body,
one ``counters.add_many`` of ``OpSpec.charge``), which every eager and
lazy node runs; the engine also sums the charges into each plan's static
counter profile at compile time. Pack's survivor-strip term
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
from ..rvv.types import LMUL, vlmax_for
from ..scalar.kernels import segmented_cumsum, segmented_reduce_numpy
from .operators import BinaryOp
from .scan import inner_scan_steps

__all__ = [
    "strip_shape",
    "charge_vx", "charge_vv", "charge_p_select", "charge_get_flags",
    "charge_scan", "charge_seg_scan", "charge_enumerate",
    "charge_permute", "charge_pack", "charge_cmp_vv", "charge_cmp_vx",
    "charge_index", "charge_reduce", "charge_shift1up", "charge_copy",
    "np_elementwise", "np_select", "np_get_flags", "np_scan", "np_seg_scan",
    "np_enumerate", "np_permute", "np_back_permute", "np_pack",
    "np_compare", "np_index", "np_reduce", "np_shift1up", "np_copy",
]

def _srl(view, x, out):
    return np.right_shift(
        view, view.dtype.type(int(x) & (view.dtype.itemsize * 8 - 1)), out=out)


def _sll(view, x, out):
    return np.left_shift(
        view, view.dtype.type(int(x) & (view.dtype.itemsize * 8 - 1)), out=out)


def _rsub(view, x, out):
    return np.subtract(x, view, out=out)


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


# ---------------------------------------------------------------------------
# NumPy bodies
# ---------------------------------------------------------------------------
# An ``np_*`` body runs on ``[n]`` memory views (an eager call, a
# single lazy call) and on a batch bucket's ``[B, n]`` matrices, and
# never charges. Its positional parameters follow its node kind's roles
# in :data:`repro.svm.opspec.SIGNATURES`, the strict kernel's order.
# Scalars arrive wrapped to the element dtype (in a batch possibly as a
# ``[B, 1]`` column of per-row values), operators resolved; per-row
# results come back as vectors.

def np_elementwise(a: np.ndarray, x, *, op: str) -> None:
    """``a = a ⊙ x`` in place for kernel ``op`` (``"p_add"``, ...);
    ``x`` is a wrapped scalar or an array."""
    _UFUNC_VX[op](a, x, out=a)


def np_select(flags: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``b = a where flags``, in place: Listing 7's masked merge. The
    mask is all ones in ``b``'s dtype on every lane whose flag is
    nonzero, and ``b ^= (b ^ a) & mask`` keeps ``b`` elsewhere."""
    mask = (flags != 0).astype(b.dtype)
    np.negative(mask, out=mask)
    diff = np.bitwise_xor(b, a)
    np.bitwise_and(diff, mask, out=diff)
    np.bitwise_xor(b, diff, out=b)


def np_get_flags(src: np.ndarray, out: np.ndarray, bit) -> None:
    """Bit ``bit`` of every lane of ``src`` into ``out``, with no
    temporary: the shift lands in ``out`` (truncated to its dtype,
    which keeps the low bit) and the mask runs in place. The shift
    amount is ``bit & (SEW-1)``, as ``vsrl`` takes it."""
    bit = int(bit) & (src.dtype.itemsize * 8 - 1)
    np.right_shift(src, src.dtype.type(bit), out=out, casting="unsafe")
    np.bitwise_and(out, out.dtype.type(1), out=out)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def np_scan(a: np.ndarray, op: BinaryOp, *, inclusive: bool) -> None:
    """⊕-scan of ``a`` in place (a no-op on an empty trailing axis)."""
    if not a.shape[-1]:
        return
    if inclusive:
        op.ufunc.accumulate(a, axis=-1, out=a)
    else:
        incl = op.ufunc.accumulate(a, axis=-1)
        a[..., 1:] = incl[..., :-1]
        a[..., 0] = _wrap(op.identity(a.dtype), a.dtype)


def np_seg_scan(a: np.ndarray, head_flags: np.ndarray, op: BinaryOp, *,
                inclusive: bool) -> None:
    """Segmented ⊕-scan of ``a`` under ``head_flags``, in place. A
    batch forces a head at every row start, so one segmented pass over
    the flattened matrix is exact: no carry crosses a row boundary. A
    no-op on an empty trailing axis."""
    if not a.shape[-1]:
        return
    if a.ndim > 1:
        head_flags = head_flags.copy()
        head_flags[..., 0] = 1
    flat, flags = a.reshape(-1), head_flags.reshape(-1)
    if op.name == "plus":
        incl = segmented_cumsum(flat, flags)
    else:
        incl = segmented_reduce_numpy(flat, flags, op.ufunc)
    if inclusive:
        flat[:] = incl
    else:
        heads = flags.astype(bool)
        heads[0] = True
        flat[1:] = incl[:-1]
        flat[heads] = _wrap(op.identity(a.dtype), a.dtype)


# ---------------------------------------------------------------------------
# enumerate / permute / pack
# ---------------------------------------------------------------------------

def np_enumerate(flags: np.ndarray, out: np.ndarray, set_bit):
    """Rank of every lane among the earlier lanes whose flag equals
    ``set_bit``, into ``out``; returns the number of matching lanes
    (int64). The exclusive count accumulates straight into ``out`` in
    its own dtype (wrapping as the machine does), so the returned count
    is taken from ``match`` itself, never from a lane that may wrap."""
    match = flags == flags.dtype.type(1 if set_bit else 0)
    out[..., :1] = 0
    if match.shape[-1] > 1:
        np.cumsum(match[..., :-1], axis=-1, dtype=out.dtype, out=out[..., 1:])
    return np.count_nonzero(match, axis=-1)


def _as_int64(index: np.ndarray) -> np.ndarray:
    """``index`` as NumPy's index dtype. A ``uint64`` index at or above
    2**63 would wrap negative and address from the end, so it raises
    :class:`IndexError` here, as on every other tier; narrower index
    dtypes cannot wrap and pay no extra pass."""
    if index.dtype == np.uint64 and index.size and int(index.max()) >= 1 << 63:
        raise IndexError("permute index out of range")
    return index.astype(np.int64)


def np_permute(src: np.ndarray, dst: np.ndarray, index: np.ndarray) -> None:
    """Scatter: ``dst[index[i]] = src[i]``. One row indexes directly,
    twice as fast as ``put_along_axis`` at a few hundred lanes."""
    index = _as_int64(index)
    if dst.ndim == 1:
        dst[index] = src
    else:
        np.put_along_axis(dst, index, src, axis=-1)


def np_back_permute(src: np.ndarray, dst: np.ndarray, index: np.ndarray) -> None:
    """Gather: ``dst[i] = src[index[i]]``, one row indexed directly as
    in :func:`np_permute`."""
    index = _as_int64(index)
    dst[...] = src[index] if src.ndim == 1 else np.take_along_axis(src, index, axis=-1)


#: Pack's data-dependent charge, per strip that holds at least one
#: survivor: the strict kernel re-narrows vl to the survivor count and
#: back (2 extra vsetvls) and issues the compacted store (1 extra
#: vse). Everything else in pack's profile is closed-form
#: (:func:`charge_pack`). This is the single source for the variable
#: term — shared by the unit loop (eager and lazy), the native
#: tier and the ragged 2D batch path (via :func:`pack_variable_items`).
PACK_VARIABLE = ((Cat.VCONFIG, 2), (Cat.VMEM, 1))


def pack_variable_items(sws: int) -> tuple[tuple[Cat, int], ...]:
    """Pack's data-dependent charge for one row as ``(category, count)``
    pairs, given that row's strips-with-survivors count.

    Every other term in pack's profile is a function of (n, VLEN, SEW,
    LMUL) alone and is covered by the closed-form counter delta; only
    these items vary between rows of a batch. The weights are
    :data:`PACK_VARIABLE`, so the eager and ragged tiers cannot
    drift."""
    sws = int(sws)
    return tuple((cat, weight * sws) for cat, weight in PACK_VARIABLE)


def pack_strip_survivors(keep: np.ndarray, vlmax: int) -> np.ndarray:
    """Strips holding at least one survivor, per row.

    ``keep`` is a boolean keep-mask over the trailing axis (1-D for a
    single call, ``[B, n]`` for a ragged batch); the return has the
    leading shape (a 0-d array for 1-D input). One ``reduceat`` per
    call, an OR over each strip of the mask itself — the same
    arithmetic for the eager fast path and the batch runner, so the
    data-dependent charge can never drift between tiers."""
    n = keep.shape[-1]
    if n == 0:
        return np.zeros(keep.shape[:-1], dtype=np.int64)
    starts = np.arange(0, n, vlmax)
    any_kept = np.logical_or.reduceat(keep, starts, axis=-1)
    return np.count_nonzero(any_kept, axis=-1)


def np_pack(src: np.ndarray, dst: np.ndarray, keep: np.ndarray):
    """Stream compaction, the kernel of ``pack`` for one row and for a
    batch.

    The lanes of ``src`` where ``keep`` is nonzero are written in order
    to the front of ``dst``; lanes past the kept count keep whatever
    ``dst`` held (the undefined tail of the single-row kernel). Returns
    the kept count, per row as int64 for a matrix. One row gathers
    with a boolean index. A matrix gathers every survivor at once, in
    row-major order, and stores them through the boolean mask of each
    row's first ``kept`` lanes, which visits the same order. The
    survivors are copied before they are stored, so compacting in
    place (``dst is src``) is safe."""
    keep = keep.astype(bool, copy=False)
    if keep.ndim == 1:
        packed = src[keep]
        dst[:packed.size] = packed
        return packed.size
    kept = np.count_nonzero(keep, axis=-1)
    dst[np.arange(dst.shape[-1]) < kept[..., None]] = src[keep]
    return kept


# ---------------------------------------------------------------------------
# extended primitives (Blelloch's full elementwise class)
# ---------------------------------------------------------------------------

_NP_CMP = {
    "lt": np.less, "le": np.less_equal, "gt": np.greater,
    "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal,
}


def np_compare(a: np.ndarray, b, out: np.ndarray, *, op: str) -> None:
    """0/1 flags of ``a <op> b`` into ``out`` (``op`` is ``"lt"``, ...)."""
    out[...] = _NP_CMP[op](a, b)


def np_index(out: np.ndarray) -> None:
    """``out[i] = i``."""
    out[...] = np.arange(out.shape[-1], dtype=np.uint64).astype(out.dtype)


def np_reduce(a: np.ndarray, op: BinaryOp):
    """⊕-reduction of ``a`` (per row of a matrix), in ``a``'s dtype."""
    return op.ufunc.reduce(a, axis=-1, initial=_wrap(op.identity(a.dtype), a.dtype),
                           dtype=a.dtype)


def np_shift1up(src: np.ndarray, dst: np.ndarray, fill) -> None:
    """``dst[0] = fill``, ``dst[i] = src[i-1]``; ``fill`` is wrapped.
    A no-op on an empty trailing axis."""
    if not dst.shape[-1]:
        return
    tail = src[..., :-1].copy()  # src and dst may alias
    dst[..., 1:] = tail
    dst[..., 0] = fill


def np_copy(src: np.ndarray, dst: np.ndarray) -> None:
    """``dst = src``."""
    dst[...] = src
