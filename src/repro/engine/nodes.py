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

from ..rvv.types import sew_for_dtype
from ..svm.opspec import OPSPECS, iter_specs
from .ir import EngineError, Kind, OpNode, Plan, resolve_scalar

__all__ = ["node_charge", "run_node_eager"]

#: Kind -> the op that records it; the elementwise and compare kinds
#: several ops share resolve through ``node.op`` instead.
_SPEC_OF_KIND = {Kind(kind): spec for spec in iter_specs()
                 for kind in spec.node_kinds.values()}


def node_charge(machine, plan: Plan, node: OpNode) -> tuple:
    """The closed-form ``(category, count)`` charge of replaying
    ``node`` on ``machine``, pack's survivor-strip term excluded: the
    ``OpSpec.charge`` of the op and variant capture recorded it from,
    at the node's length and LMUL and at the SEW its kernel strip-mines
    by (the source's; the destination's for nodes without one)."""
    kind = node.kind
    if kind in (Kind.EW_VX, Kind.EW_VV, Kind.CMP_VX, Kind.CMP_VV):
        ew = kind in (Kind.EW_VX, Kind.EW_VV)
        spec, variant = OPSPECS[node.op if ew else f"p_{node.op}"], kind.value[-2:]
    else:
        spec = _SPEC_OF_KIND[kind]
        variant = "" if "incl" not in spec.node_kinds \
            else "incl" if node.inclusive else "excl"
    buf = plan.buffers[node.src if node.src is not None else node.dst]
    return spec.charge[variant](machine.codegen, machine.vlen, buf.n,
                                sew_for_dtype(buf.dtype), node.lmul)


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
