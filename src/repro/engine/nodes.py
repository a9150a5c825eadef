"""One plan node, two ways: its strict SVM replay, or its NumPy body.

Every non-fused unit — a lane op left out of any group, a structured
kind (permute, pack, seg_scan, select, ...) — has one branch per kind
in each ladder (``tools/check_opspec.py`` gates both):

* :func:`run_node_eager` is the strict replay of the
  :class:`~repro.svm.context.SVM` call the node was captured from, so
  its results *and* counters are exactly eager strict execution's;
  each kind maps back to its primitive by the field conventions on
  :class:`~repro.engine.ir.OpNode`;
* :func:`run_node_np` runs the NumPy body of the node's fast kernel
  (``repro.svm.fastpath.np_*``) and charges nothing — every fast node
  of the unit loop (:func:`repro.engine.executor.run_units`), on a
  single call's memory views and on batch rows' ``[B-1, n]`` matrices
  alike.

:func:`node_spec` resolves the op a node was recorded from (its span
name), and :func:`node_charge` is that op's registry charge, the
node's term in the plan's static profile.
"""

from __future__ import annotations

import numpy as np

from ..rvv.types import sew_for_dtype
from ..svm import fastpath as fp
from ..svm.operators import get_operator
from ..svm.opspec import OPSPECS, iter_specs
from .ir import EngineError, Kind, OpNode, Plan, resolve_scalar

__all__ = ["node_charge", "node_spec", "run_node_eager", "run_node_np"]

#: Kind -> the op that records it; the elementwise and compare kinds
#: several ops share resolve through ``node.op`` instead.
_SPEC_OF_KIND = {Kind(kind): spec for spec in iter_specs()
                 for kind in spec.node_kinds.values()}


def node_spec(plan: Plan, node: OpNode) -> tuple:
    """The registered op (whose name is the node's span name) and
    variant capture recorded ``node`` from, and the buffer whose length
    and dtype its kernel strip-mines by (the source's; the
    destination's for nodes without one)."""
    kind = node.kind
    if kind in (Kind.EW_VX, Kind.EW_VV, Kind.CMP_VX, Kind.CMP_VV):
        ew = kind in (Kind.EW_VX, Kind.EW_VV)
        spec, variant = OPSPECS[node.op if ew else f"p_{node.op}"], kind.value[-2:]
    else:
        spec = _SPEC_OF_KIND[kind]
        variant = "" if "incl" not in spec.node_kinds \
            else "incl" if node.inclusive else "excl"
    return spec, variant, plan.buffers[
        node.src if node.src is not None else node.dst]


def node_charge(machine, plan: Plan, node: OpNode) -> tuple:
    """The closed-form ``(category, count)`` charge of running ``node``
    on ``machine``, pack's survivor-strip term excluded: the
    ``OpSpec.charge`` of its :func:`node_spec`, at the node's length,
    SEW and LMUL."""
    spec, variant, buf = node_spec(plan, node)
    return spec.charge[variant](machine.codegen, machine.vlen, buf.n,
                                sew_for_dtype(buf.dtype), node.lmul)


def run_node_eager(svm, plan: Plan, node: OpNode) -> None:
    """The strict replay: run one node by repeating the SVM call it
    recorded, at a length ``svm._fast`` declines (the unit loop frees
    a FREE node itself)."""
    arr = lambda bid: plan.buffers[bid].array

    if node.kind is Kind.EW_VX:
        getattr(svm, node.op)(arr(node.dst), resolve_scalar(node.scalar), lmul=node.lmul)
    elif node.kind is Kind.EW_VV:
        getattr(svm, node.op)(arr(node.dst), arr(node.operand), lmul=node.lmul)
    elif node.kind is Kind.CMP_VX:
        getattr(svm, f"p_{node.op}")(
            arr(node.src), resolve_scalar(node.scalar), out=arr(node.dst), lmul=node.lmul
        )
    elif node.kind is Kind.CMP_VV:
        getattr(svm, f"p_{node.op}")(
            arr(node.src), arr(node.operand), out=arr(node.dst), lmul=node.lmul
        )
    elif node.kind is Kind.GET_FLAGS:
        svm.get_flags(arr(node.src), resolve_scalar(node.scalar),
                      out=arr(node.dst), lmul=node.lmul)
    elif node.kind is Kind.SCAN:
        svm.scan(arr(node.dst), node.op, inclusive=node.inclusive, lmul=node.lmul)
    elif node.kind is Kind.SELECT:
        svm.p_select(arr(node.operand), arr(node.src), arr(node.dst), lmul=node.lmul)
    elif node.kind is Kind.SEG_SCAN:
        svm.seg_scan(arr(node.dst), arr(node.operand), node.op,
                     inclusive=node.inclusive, lmul=node.lmul)
    elif node.kind is Kind.PERMUTE:
        svm.permute(arr(node.src), arr(node.operand), out=arr(node.dst), lmul=node.lmul)
    elif node.kind is Kind.BACK_PERMUTE:
        svm.back_permute(arr(node.src), arr(node.operand),
                         out=arr(node.dst), lmul=node.lmul)
    elif node.kind is Kind.PACK:
        _, kept = svm.pack(arr(node.src), arr(node.operand),
                           out=arr(node.dst), lmul=node.lmul)
        node.future.resolve(kept)
    elif node.kind is Kind.ENUMERATE:
        _, count = svm.enumerate(arr(node.src), set_bit=bool(node.scalar),
                                 out=arr(node.dst), lmul=node.lmul)
        node.future.resolve(count)
    elif node.kind is Kind.REDUCE:
        node.future.resolve(svm.reduce(arr(node.src), node.op, lmul=node.lmul))
    elif node.kind is Kind.SHIFT1UP:
        svm.shift1up(arr(node.src), resolve_scalar(node.scalar),
                     out=arr(node.dst), lmul=node.lmul)
    elif node.kind is Kind.COPY:
        svm.copy(arr(node.src), out=arr(node.dst), lmul=node.lmul)
    elif node.kind is Kind.INDEX:
        svm.index_array(plan.buffers[node.dst].n, out=arr(node.dst), lmul=node.lmul)
    else:  # pragma: no cover - exhaustive over Kind
        raise EngineError(f"cannot execute node kind {node.kind}")


def run_node_np(node: OpNode, mats, m) -> None:
    """Execute one node as its NumPy body on ``mats``
    (:class:`~repro.engine.executor.Views` or
    :class:`~repro.batch.runner.Rows`): ``mats[bid]`` holds a buffer's
    contents, ``mats.fresh(bid)`` one the node overwrites in full
    (fetched after the operands), ``mats.scalar``/``mats.produce`` read
    a scalar operand and record a produced future, ``mats.free``
    releases a buffer, and pack adds its strips with survivors to
    ``mats.sws``."""
    kind = node.kind
    if kind is Kind.EW_VX:
        a = mats[node.dst]
        fp.np_elementwise(node.op, a, mats.scalar(node, a.dtype))
    elif kind is Kind.EW_VV:
        fp.np_elementwise(node.op, mats[node.dst], mats[node.operand])
    elif kind is Kind.CMP_VX:
        a = mats[node.src]
        fp.np_compare(node.op, a, mats.scalar(node, a.dtype),
                      mats.fresh(node.dst))
    elif kind is Kind.CMP_VV:
        fp.np_compare(node.op, mats[node.src], mats[node.operand],
                      mats.fresh(node.dst))
    elif kind is Kind.GET_FLAGS:
        fp.np_get_flags(mats[node.src], resolve_scalar(node.scalar),
                        mats.fresh(node.dst))
    elif kind is Kind.SCAN:
        fp.np_scan(mats[node.dst], get_operator(node.op), node.inclusive)
    elif kind is Kind.SELECT:
        fp.np_select(mats[node.operand], mats[node.src], mats[node.dst])
    elif kind is Kind.SEG_SCAN:
        fp.np_seg_scan(mats[node.dst], mats[node.operand],
                       get_operator(node.op), node.inclusive)
    elif kind is Kind.ENUMERATE:
        mats.produce(node, fp.np_enumerate(mats[node.src], node.scalar,
                                           mats.fresh(node.dst)))
    elif kind is Kind.REDUCE:
        mats.produce(node, fp.np_reduce(mats[node.src], get_operator(node.op)))
    elif kind is Kind.PERMUTE:
        fp.np_permute(mats[node.src], mats[node.operand], mats[node.dst])
    elif kind is Kind.BACK_PERMUTE:
        fp.np_back_permute(mats[node.src], mats[node.operand],
                           mats.fresh(node.dst))
    elif kind is Kind.SHIFT1UP:
        src, dst = mats[node.src], mats.fresh(node.dst)
        fp.np_shift1up(src, mats.scalar(node, dst.dtype), dst)
    elif kind is Kind.COPY:
        fp.np_copy(mats[node.src], mats.fresh(node.dst))
    elif kind is Kind.INDEX:
        fp.np_index(mats.fresh(node.dst))
    elif kind is Kind.PACK:
        src, keep = mats[node.src], mats[node.operand] != 0
        mats.produce(node, fp.np_pack(src, keep, mats[node.dst]))
        vlmax = m.vlmax(sew=sew_for_dtype(src.dtype), lmul=node.lmul)
        mats.sws += int(np.sum(fp.pack_strip_survivors(keep, vlmax)))
    elif kind is Kind.FREE:
        mats.free(node.dst)
    else:  # pragma: no cover - exhaustive over Kind
        raise EngineError(f"cannot evaluate node kind {kind}")
