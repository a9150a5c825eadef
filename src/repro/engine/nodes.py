"""Eager replay of a single plan node through the SVM surface.

Non-fused units — structured replay kinds (permute, pack, seg_scan,
select, ...) and frees — execute by calling the
:class:`~repro.svm.context.SVM` primitive they were captured from, so
their results *and* counters are exactly what eager execution would
have produced. Each kind maps back to its primitive using the
node-field conventions documented on :class:`~repro.engine.ir.OpNode`.

:func:`run_node_eager` is a module-level function (not a closure) so
generated whole-plan kernels can reference it as one pre-bound
constant shared by every compiled plan.
"""

from __future__ import annotations

from .ir import EngineError, Kind, OpNode, Plan, resolve_scalar

__all__ = ["run_node_eager"]


def run_node_eager(svm, plan: Plan, node: OpNode) -> None:
    """Execute one node by replaying the SVM call it recorded."""
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
    elif node.kind is Kind.FREE:
        svm.free(arr(node.dst))
    else:  # pragma: no cover - exhaustive over Kind
        raise EngineError(f"cannot execute node kind {node.kind}")
