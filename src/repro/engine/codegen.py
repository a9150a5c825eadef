"""Compile fused groups to Python source, once, at cache-insert time.

:func:`compile_fused` takes a :class:`~repro.engine.fuse.FusedPlan`
and, for every fused group,

1. derives the group's lane chain from the registry's lane recipes
   (:data:`~repro.svm.opspec.LANE_RECIPES`): one :class:`LaneStep` per
   strip lane, each with its NumPy callable resolved and the *node
   index* (never a buffer id) of the node that supplies its runtime
   scalar or operand;
2. precomputes the closed-form counter profile of the strict strip
   loop (:func:`group_charge_items`) — a function of the vl sequence
   and the codegen preset only, never of the data — which
   :meth:`~repro.engine.executor.Engine.compile_plan` sums into the
   plan's static profile;
3. emits one function per group, ``_g{i}(nodes, mats)``: the lane
   chain, NumPy over the trailing axis, reading its head and operands
   from ``mats`` and leaving its result there. The engine's unit loop
   (:func:`~repro.engine.executor.run_units`) calls it for a group on
   the fast path, on the 1-D memory views of a single call and on the
   ``[B, n]`` matrices of a batch bucket's B rows. The generated source
   never charges.

The generated source has

* every lane op unrolled in order, its ufunc prebound in the module
  namespace (no per-step dispatch);
* scalar wrapping inlined for unsigned dtypes (the dtype is part of
  the plan signature, so the mask is a literal and the masked python
  int feeds the ufunc directly — NEP 50 weak-scalar promotion keeps
  the array dtype, so no np scalar is constructed per call);
* scan tails along the trailing axis (one row or a batch of rows);
* copy elision where the *structure* proves it safe: aliasing between
  a group's head, destination, and operands is α-stable (buffer slot
  relations are part of :meth:`~repro.engine.ir.Plan.signature`), so
  an in-place chain whose operands never re-read the destination can
  run directly on the memory view, skipping the head copy and the
  final writeback.

Scalar *values* and raw buffer ids are **excluded** from the plan
signature, so generated code never bakes them: it resolves both
through node indices at call time (``nodes[i].scalar`` via
``resolve_scalar``, ``nodes[i].operand``). The source is
``compile()``/``exec()``-ed once at plan-cache insert; cache hits call
straight into the code objects.

The reference semantics is the strict per-strip loop
(:func:`repro.engine.executor.run_group_strict`): results of the
generated functions and their closed-form charges are identical to it —
asserted across the full VLEN×LMUL grid in
``tests/engine/test_codegen.py`` and locked in ``BENCH_codegen.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rvv.counters import Cat
from ..svm.fastpath import _flat_spill, _items, _n_strips, _scan_shape, _wrap
from ..svm.opspec import LANE_RECIPES, lane_ufunc
from ..svm.operators import get_operator
from .fuse import (
    KERNEL_EW,
    KERNEL_SCAN,
    FusedGroup,
    FusedPlan,
    GroupSpec,
    group_profile,
    materialize,
)
from .ir import EngineError, Plan, resolve_scalar

__all__ = [
    "CompiledGroup",
    "CompiledPlan",
    "compile_fused",
    "group_charge_items",
]

# ---------------------------------------------------------------------------
# front end: lane chains and closed-form charges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaneStep:
    """One lane op of a fused group, as the emitter consumes it.

    ``fn`` is the NumPy callable (``_UFUNC_VX`` entry for vx/vv lanes,
    ``_NP_CMP`` entry for compares). ``node_index`` locates the node
    that supplies the runtime scalar (vx) or operand buffer (vv) in
    whatever plan is executing. ``const`` overrides the node's scalar
    for structural literals (get_flags' trailing ``& 1``).
    """

    kind: str  # "vx" | "vv" | "cmp_vx" | "cmp_vv"
    fn: object
    node_index: int
    const: int | None = None


def _node_steps(node, index: int) -> list[LaneStep]:
    """The lane steps one node contributes, with callables resolved —
    the same registry recipes ``fuse._node_lanes`` expands, so a node's
    strip lanes and their NumPy kernels come from one declaration. A
    ``const`` in the recipe is structural (get_flags' trailing ``& 1``);
    a ``None`` const defers to the node's scalar at run time (the shift
    bit)."""
    recipe = LANE_RECIPES.get(node.kind.value)
    if recipe is None:
        raise EngineError(f"no lane recipe for {node.kind}")
    return [
        LaneStep(lane_kind,
                 lane_ufunc(lane_kind, op if op is not None else node.op),
                 index, const=const)
        for lane_kind, op, const in recipe
    ]


def _group_steps(plan: Plan, spec: GroupSpec) -> tuple[LaneStep, ...]:
    """The lane chain of one group: every member but the scan tail."""
    body = spec.node_indices[:-1] if spec.scan else spec.node_indices
    return tuple(step for i in body for step in _node_steps(plan.nodes[i], i))


def group_charge_items(m, group: FusedGroup) -> tuple[tuple[Cat, int], ...]:
    """The closed-form per-category counts of ``run_group_strict`` as
    ``(category, count)`` pairs, collected once: the group's term in the
    plan's static profile.

    Depends only on the vl sequence (n, VLEN, SEW, LMUL) and the
    codegen preset, never on the data.
    """
    scan = group.scan_op is not None
    kernel = KERNEL_SCAN if scan else KERNEL_EW
    cg = m.codegen
    op = cg.op_cost()
    profile = group_profile(group)
    if scan:
        s, steps, spill = _scan_shape(m.vlen, group.n, group.sew, group.lmul,
                                      profile)
    else:
        s = _n_strips(m.vlen, group.n, group.sew, group.lmul)
        steps, spill = 0, _flat_spill(profile, group.lmul, s)
    # one-time constant setup: one vsetvlmax covers every broadcast
    consts = (1 if scan else 0) + (1 if group.needs_zero else 0)
    return _items(
        (Cat.SCALAR, cg.prologue(kernel)),
        (Cat.SPILL, spill),
        (Cat.VCONFIG, (1 if consts else 0) + s),
        (Cat.VPERM, consts * op),
        # per strip
        (Cat.VMEM, s * (group.n_loads + 1)),
        (Cat.VARITH, s * group.n_varith * op),
        (Cat.VMASK, s * group.n_mask * op),
        # scan tail: inner slideup + combine, carry apply and reload
        (Cat.VPERM, steps * cg.op_cost(dest_undisturbed=True)),
        (Cat.VARITH, steps * op + (s * op if scan else 0)),
        (Cat.SCALAR, steps * cg.inner_overhead(kernel) + (2 * s if scan else 0)),
        (Cat.SCALAR, s * cg.strip_overhead(kernel, group.n_arrays)),
    )


# ---------------------------------------------------------------------------
# the compiled artifacts
# ---------------------------------------------------------------------------

class CompiledGroup:
    """The generated entry point of one fused group.

    ``run(nodes, mats)`` runs the group's lane chain on the unit
    loop's arrays — the 1-D memory views of one call or the
    ``[B, n]`` matrices of a batch bucket's B rows (see
    :func:`repro.engine.executor.run_units`) — and charges nothing.
    ``n`` is the group length the unit loop gates the fast path on;
    ``charge`` is the group's :func:`group_charge_items`, the term it
    adds to the plan's static profile (and what a run that charges unit
    by unit charges after a fast ``run``).
    """

    __slots__ = ("run", "name", "n", "charge")

    def __init__(self, run, name: str, n: int, charge: tuple) -> None:
        self.run = run
        self.name = name
        self.n = n
        self.charge = charge


class CompiledPlan:
    """Generated source + bound code objects for one fused plan.

    ``groups`` maps each :class:`GroupSpec` to its
    :class:`CompiledGroup`.
    """

    def __init__(self, source: str, consts: dict, group_meta: dict) -> None:
        # group_meta: {GroupSpec: ("_g0", n, charge), ...}
        self.source = source
        self.consts = consts
        ns = dict(consts)
        ns["_np"] = np
        ns["_wrap"] = _wrap
        ns["_rs"] = resolve_scalar
        exec(compile(source, "<repro.engine.codegen>", "exec"), ns)
        self.groups = {
            spec: CompiledGroup(ns[name], name, n, charge)
            for spec, (name, n, charge) in group_meta.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledPlan({len(self.groups)} groups)"


# ---------------------------------------------------------------------------
# source emission
# ---------------------------------------------------------------------------

class _Emitter:
    """Accumulates source lines + the prebound-constant table."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}

    def emit(self, line: str = "") -> None:
        self.lines.append(line)

    def bind(self, name: str, value) -> str:
        self.consts[name] = value
        return name

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _scalar_expr(e: _Emitter, g: str, si: int, step, dtype: np.dtype,
                 dt_name: str) -> str:
    """The wrapped scalar operand of a vx/cmp_vx step.

    Structural constants (get_flags' ``& 1``) are wrapped at codegen
    time and prebound; node scalars resolve at call time, with the
    ``_wrap`` masking inlined for unsigned dtypes (the mask is a
    signature-stable literal)."""
    if step.const is not None:
        return e.bind(f"_k{g}_{si}", _wrap(step.const, dtype))
    if dtype.kind == "u":
        # a masked python int is a NEP-50 weak scalar: the ufunc keeps
        # the array dtype, bit-identical to an np-scalar operand but
        # without constructing one per call; plain-int scalars (the
        # common case) skip the resolve_scalar call entirely
        mask = (1 << (dtype.itemsize * 8)) - 1
        e.emit(f"    _x = nodes[{step.node_index}].scalar")
        return f"((_x if _x.__class__ is int else int(_rs(_x))) & {mask})"
    return f"_wrap(_rs(nodes[{step.node_index}].scalar), {dt_name})"


def _emit_group(e: _Emitter, plan: Plan, spec: GroupSpec, machine,
                gi: int) -> tuple[str, int, tuple]:
    """Emit one fused group as ``_g{gi}(nodes, mats)``: its lane chain,
    NumPy over the trailing axis, reading the head and operands from
    ``mats`` and leaving the result in ``mats`` (in place on the head,
    or through ``mats.store``). Returns the function name, the group
    length and its closed-form charge."""
    group = materialize(plan, spec)
    steps = _group_steps(plan, spec)
    charge = group_charge_items(machine, group)
    g = str(gi)
    name = f"_g{gi}"
    dtype = np.dtype(group.dtype)
    head_index = spec.node_indices[0]
    head_node = plan.nodes[head_index]
    dst_bid = head_node.dst
    head_is_dst = head_node.src is None or head_node.src == dst_bid
    # α-stable: buffer-slot relations are part of the plan signature
    alias_dst = any(
        st.kind in ("vv", "cmp_vv")
        and plan.nodes[st.node_index].operand == dst_bid
        for st in steps
    )
    dt = e.bind(f"_dt{g}", dtype)
    sc = e.bind(f"_sc{g}", get_operator(group.scan_op).ufunc) \
        if group.scan_op is not None else None
    fns = [e.bind(f"_f{g}_{si}", st.fn) for si, st in enumerate(steps)]

    # `acc` enters as the head (the destination, or the source of an
    # out-of-place compare/get_flags head). It is updated in place only
    # while it is the destination and no operand re-reads it; otherwise
    # the first in-place step lands in a fresh array, and an operand
    # re-reading the destination gets a copy of the head up front, so
    # it sees pre-group memory. `in_place` records whether the chain
    # ends on its head, already updated; else the result is stored.
    e.emit(f"def {name}(nodes, mats):")
    e.emit(f"    _h = nodes[{head_index}]")
    e.emit(f"    acc = mats[_h.{'dst' if head_is_dst else 'src'}]")
    for si, st in enumerate(steps):
        if st.kind in ("vv", "cmp_vv"):
            e.emit(f"    _o{si} = mats[nodes[{st.node_index}].operand]")
    owned = head_is_dst and not alias_dst
    in_place = owned
    if head_is_dst and alias_dst:
        e.emit("    acc = _np.array(acc, copy=True)")
        owned = True
    for si, st in enumerate(steps):
        if st.kind in ("vx", "cmp_vx"):
            x = _scalar_expr(e, g, si, st, dtype, dt)
        else:
            x = f"_o{si}"
        if st.kind in ("vv", "vx") and owned:
            e.emit(f"    {fns[si]}(acc, {x}, out=acc)")
        elif st.kind in ("vv", "vx"):
            e.emit(f"    acc = {fns[si]}(acc, {x}, out=_np.empty_like(acc))")
        else:
            e.emit(f"    acc = {fns[si]}(acc, {x}).astype({dt})")
            in_place = False
        owned = True
    if sc is not None:
        out = "acc" if owned else "_np.empty_like(acc)"
        e.emit(f"    acc = {sc}.accumulate(acc, axis=-1, out={out})")
    if not in_place:
        e.emit("    mats.store(_h.dst, acc)")
    e.emit()
    return name, int(group.n), charge


def compile_fused(plan: Plan, fused: FusedPlan, machine) -> CompiledPlan | None:
    """Generate, compile and bind the entry point of every fused group of
    ``fused`` against ``machine``'s configuration (VLEN and codegen
    preset fix the closed-form charges); returns None when there is
    nothing to compile (no fused groups).

    Called once at plan-cache insert by
    :meth:`repro.engine.executor.Engine.compile_plan`, which attaches
    the result as ``fused.compiled``.
    """
    order = [u for u in fused.units if isinstance(u, GroupSpec)]
    if not order:
        return None
    e = _Emitter()
    group_meta = {
        spec: _emit_group(e, plan, spec, machine, gi)
        for gi, spec in enumerate(order)
    }

    return CompiledPlan(e.source(), e.consts, group_meta)
