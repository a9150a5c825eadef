"""One plan node, two ways: its strict kernel, or its NumPy body.

Every non-fused unit — a lane op left out of any group, a structured
kind (permute, pack, seg_scan, select, ...), every eager primitive
call — runs one of two generic calls. Both read the node kind's entry
in the registry's signature table (:data:`repro.svm.opspec.SIGNATURES`),
which names the node field behind each operand, in the order the
kernel and the body take them:

* :func:`run_node_strict` calls the op's strict kernel
  (``OpSpec.strict``) on the plan buffers' pointers: the reference
  results *and* counters;
* :func:`run_node_np` calls the kind's NumPy body and charges nothing —
  every fast node of the unit loop (:func:`repro.engine.executor.run_units`),
  on a single call's memory views and on batch rows' ``[B-1, n]``
  matrices alike.

:func:`node_spec` resolves the op a node was recorded from (its span
name), and :func:`node_charge` is that op's registry charge, the
node's term in the plan's static profile.
"""

from __future__ import annotations

import numpy as np

from ..rvv.types import sew_for_dtype
from ..svm import fastpath as fp
from ..svm.operators import get_operator
from ..svm.opspec import SIGNATURES, VECTOR_ROLES, iter_specs, node_op
from .ir import Kind, OpNode, Plan, resolve_scalar

__all__ = ["node_charge", "node_spec", "run_node_np", "run_node_strict"]


def _positions(sig) -> tuple:
    """How :func:`run_node_np` fills a kind's arguments, resolved once
    from its signature: the (position, node field) of each operand
    buffer, then the positions of ``dst``, ``scalar`` and ``op`` (None
    where the kind has none), whether the body overwrites ``dst`` whole,
    the arity, the body and its keyword field (no body takes two)."""
    return (tuple((i, role) for i, role in enumerate(sig.roles)
                  if role in ("src", "operand")),
            sig.at("dst"), sig.at("scalar"), sig.at("op"), sig.dst == "w",
            len(sig.roles), sig.body, sig.keywords[0] if sig.keywords else None)


#: Kind value -> its :func:`_positions` (keyed by the value: a Kind
#: hashes through a Python-level ``Enum.__hash__``, once per lookup).
_SIG = {kind: _positions(sig) for kind, sig in SIGNATURES.items()}


def _key(kind: str, op: str, inclusive: bool) -> tuple:
    """What tells apart the ops and variants that record the kind of
    value ``kind``: the node's ``op`` or ``inclusive`` where the body
    takes it by keyword."""
    keyword = _SIG[kind][-1]
    return (kind, op if keyword == "op" else None,
            inclusive if keyword == "inclusive" else None)


#: :func:`_key` -> the (spec, variant) capture records it from.
_SPEC_OF = {_key(kind, node_op(spec), variant != "excl"): (spec, variant)
            for spec in iter_specs() for variant, kind in spec.node_kinds.items()}


def node_spec(plan: Plan, node: OpNode) -> tuple:
    """The registered op (whose name is the node's span name) and
    variant capture recorded ``node`` from, and the buffer whose length
    and dtype its kernel strip-mines by (the source's; the
    destination's for nodes without one)."""
    spec, variant = _SPEC_OF[_key(node.kind._value_, node.op, node.inclusive)]
    return spec, variant, plan.buffers[
        node.src if node.src is not None else node.dst]


def node_charge(machine, node: OpNode, spec, variant: str, buf) -> tuple:
    """The closed-form ``(category, count)`` charge of running ``node``
    on ``machine``, pack's survivor-strip term excluded: the
    ``OpSpec.charge`` of its :func:`node_spec` ``(spec, variant,
    buf)``, at the node's length, SEW and LMUL."""
    return spec.charge[variant](machine.codegen, machine.vlen, buf.n,
                                sew_for_dtype(buf.dtype), node.lmul)


def run_node_strict(svm, plan: Plan, node: OpNode) -> None:
    """Run one node as its op's strict kernel on the plan buffers'
    pointers, at a length ``svm._fast`` declines (the unit loop frees
    a FREE node itself); a node's future resolves to the kernel's
    return."""
    spec, variant, buf = node_spec(plan, node)
    args = [plan.buffers[getattr(node, role)].array.ptr if role in VECTOR_ROLES
            else resolve_scalar(node.scalar) if role == "scalar" else node.op
            for role in SIGNATURES[node.kind._value_].roles]
    result = spec.strict[variant](svm.machine, buf.n, *args, node.lmul)
    if node.future is not None:
        node.future.resolve(result)


def _strip_dtype(node: OpNode, mats) -> np.dtype:
    """The dtype a node strip-mines by (:func:`node_spec`'s buffer)."""
    return mats.buffers[node.src if node.src is not None else node.dst].dtype


def run_node_np(node: OpNode, mats, m) -> None:
    """Execute one node as its NumPy body on ``mats``
    (:class:`~repro.engine.executor.Views` or
    :class:`~repro.batch.runner.Rows`): ``mats[bid]`` holds a buffer's
    contents, ``mats.fresh(bid)`` one the node overwrites in full
    (fetched after the operands, which may alias it),
    ``mats.scalar``/``mats.produce`` read a scalar operand and record a
    produced future, ``mats.free`` releases a buffer, and pack adds its
    strips with survivors to ``mats.sws``."""
    kind = node.kind
    if kind is Kind.FREE:
        mats.free(node.dst)
        return
    reads, at_dst, at_scalar, at_op, fresh, arity, body, keyword = \
        _SIG[kind._value_]
    args = [None] * arity
    for i, field in reads:
        args[i] = mats[getattr(node, field)]
    if at_scalar is not None:
        args[at_scalar] = mats.scalar(node, _strip_dtype(node, mats))
    if at_op is not None:
        args[at_op] = get_operator(node.op)
    if at_dst is not None:
        args[at_dst] = mats.fresh(node.dst) if fresh else mats[node.dst]
    result = body(*args, **{keyword: getattr(node, keyword)}) if keyword \
        else body(*args)
    if node.future is not None:
        mats.produce(node, result)
    if kind is Kind.PACK:
        vlmax = m.vlmax(sew=sew_for_dtype(_strip_dtype(node, mats)),
                        lmul=node.lmul)
        survivors = fp.pack_strip_survivors(mats[node.operand] != 0, vlmax)
        # a NumPy scalar for one call's views (its .sum() costs a
        # reduction), one count per row for batch rows
        mats.sws += int(survivors.sum() if survivors.ndim else survivors)
