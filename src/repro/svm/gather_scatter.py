"""Raw gather/scatter helpers for mixed-length operands.

The permute primitives in :class:`~repro.svm.context.SVM` enforce
equal src/dst lengths (the paper's out-of-place permutation). The
underlying ``vluxei``/``vsuxei`` instructions are more general — they
address arbitrary offsets — and several applications (RLE decode, CSR
SpMV row-total extraction) need exactly that: scatter k values into an
n-element array, or gather k elements out of one. These helpers expose
that form with the same strict/fast duality and identical counts as
permute/back_permute.
"""

from __future__ import annotations

from ..rvv.types import LMUL, sew_for_dtype
from . import fastpath as fp
from . import permute_ops as pm
from .context import SVM, SVMArray

__all__ = ["gather_any", "scatter_any"]


def _charge_permute(m, n: int, dtype, lmul: LMUL) -> None:
    """Permute's closed-form charge for ``n`` indices at ``dtype``'s
    SEW."""
    m.counters.add_many(fp.charge_permute(m.codegen, m.vlen, n,
                                          sew_for_dtype(dtype), lmul))


def gather_any(svm: SVM, src: SVMArray, index: SVMArray,
               lmul: LMUL | None = None) -> SVMArray:
    """``out[i] = src[index[i]]`` for ``i < len(index)`` — src and
    index may have different lengths. Indices must lie in
    ``[0, len(src))``; an index past it raises :class:`IndexError`
    and frees the output."""
    lmul = svm._lmul(lmul)
    dst = svm.empty(index.n, src.dtype)
    try:
        if svm._fast(index.n):
            if index.n:
                fp.np_back_permute(src.view(), dst.view(), index.view())
            _charge_permute(svm.machine, index.n, src.dtype, lmul)
        else:
            pm.back_permute(svm.machine, index.n, src.ptr, dst.ptr, index.ptr,
                            lmul, bound=src.n)
    except BaseException:
        svm.free(dst)
        raise
    return dst


def scatter_any(svm: SVM, src: SVMArray, index: SVMArray, dst: SVMArray,
                lmul: LMUL | None = None) -> None:
    """``dst[index[i]] = src[i]`` for ``i < len(src)`` — dst may be
    longer than src. Indices must be unique and lie in
    ``[0, len(dst))``."""
    lmul = svm._lmul(lmul)
    if svm._fast(src.n):
        if src.n:
            fp.np_permute(src.view(), dst.view(), index.view()[: src.n])
        _charge_permute(svm.machine, src.n, src.dtype, lmul)
    else:
        pm.permute(svm.machine, src.n, src.ptr, dst.ptr, index.ptr, lmul,
                   bound=dst.n)
