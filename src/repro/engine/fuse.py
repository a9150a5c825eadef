"""Optimization passes over a captured :class:`~repro.engine.ir.Plan`.

Two passes run, in order:

1. **Dead-temp elimination** — a backward liveness walk deletes pure
   nodes whose destination is a recorder-allocated temp buffer that is
   freed inside the plan without any intervening read (the write can
   never be observed).

2. **Strip fusion** — a forward greedy pass merges runs of compatible
   nodes into :class:`GroupSpec` units executed as a *single* strip
   loop: one ``vsetvl``, one load of the accumulator, every lane
   operation applied in registers, one store. The intermediate
   load/store round trip (and its ``vsetvl``) that eager execution
   pays per member node per strip disappears.

Fusion legality
---------------
A node may join the open group (destination buffer ``D``) iff:

* it is a fusable kind (in-place elementwise, flag compare, get_flags,
  or an inclusive scan as the *terminal* member);
* it targets ``D`` with the same element width and the same LMUL —
  one strip loop has one vtype;
* it does not read ``D`` *from memory* after the accumulator has
  diverged from memory (a vector operand equal to ``D`` is legal only
  as the very first lane operation of a plain elementwise group;
  a compare/get_flags head reading a different source closes the
  group first, because the store of the accumulated value must land
  before memory is re-read);
* fusing does not spill where eager execution would not: the fused
  kernel's register profile (accumulator + one operand slot + constant
  vectors, plus the scan kernel's live values when a scan tail is
  attached) must spill exactly the values the eager scan would —
  otherwise the group is not extended (this is what keeps LMUL=8
  vector-operand chains out of scan tails, preserving the
  "fused never increases any counter" invariant).

Groups that end up with a single member and no scan tail are demoted
back to eager nodes — a fused loop of one op has no fewer memory
operations than the eager kernel, and demotion keeps its counters
*exactly* equal to the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..rvv.allocation import (
    PLUS_SCAN_PROFILE,
    RegisterProfile,
    ValueUse,
    plan_allocation,
)
from ..rvv.types import LMUL, sew_for_dtype
from ..svm.opspec import LANE_RECIPES
from .ir import Kind, OpNode, Plan, PURE_KINDS

__all__ = [
    "LaneOp",
    "FusedGroup",
    "GroupSpec",
    "FusedPlan",
    "fuse",
    "dead_temp_elimination",
    "group_profile",
    "scan_fusion_legal",
]

#: Codegen-model kernel names of the fused loops (not in the PAPER
#: calibration tables, so they take the default fitted overheads; the
#: IDEAL preset derives them structurally from the array count).
KERNEL_EW = "fused_ew"
KERNEL_SCAN = "fused_scan"

#: Kinds that may open or extend a fused group — exactly the kinds the
#: :mod:`repro.svm.opspec` registry publishes a lane recipe for.
FUSABLE_KINDS = frozenset(Kind(k) for k in LANE_RECIPES)


@dataclass(frozen=True)
class LaneOp:
    """One in-register operation of a fused strip loop.

    ``kind`` ∈ {"vx", "vv", "cmp_vx", "cmp_vv"}; ``op`` is the
    elementwise kernel name ("p_add", ...) or the compare relation
    ("lt", "ge", ...); ``operand`` is the buffer id loaded for vector
    forms (None for scalar forms and for compares applied directly to
    the accumulator); ``scalar`` is an int or ScalarFuture.
    """

    kind: str
    op: str
    operand: int | None = None
    scalar: object = None

    @property
    def loads(self) -> int:
        return 1 if self.operand is not None else 0

    @property
    def varith(self) -> int:
        # every lane op lands exactly one arithmetic instruction: the
        # elementwise op itself, or the vmerge materializing 0/1 flags
        return 1

    @property
    def vmask(self) -> int:
        if self.kind == "cmp_vx":
            # vmsgeu does not exist: "ge" is vmsltu + vmnot (2 mask ops)
            return 2 if self.op == "ge" else 1
        if self.kind == "cmp_vv":
            return 1
        return 0


def _node_lanes(node: OpNode) -> list[LaneOp]:
    """The lane-op recipe a node contributes to a fused loop, derived
    from the registry's :data:`~repro.svm.opspec.LANE_RECIPES` (e.g.
    get_flags expands to ``(src >> bit) & 1`` — two register ops once
    the value is loaded)."""
    recipe = LANE_RECIPES.get(node.kind.value)
    if recipe is None:
        raise AssertionError(f"no lane recipe for {node.kind}")
    lanes: list[LaneOp] = []
    for lane_kind, op_override, const in recipe:
        op = op_override if op_override is not None else node.op
        if lane_kind in ("vv", "cmp_vv"):
            lanes.append(LaneOp(lane_kind, op, operand=node.operand))
        else:
            scalar = const if const is not None else node.scalar
            lanes.append(LaneOp(lane_kind, op, scalar=scalar))
    return lanes


@dataclass
class FusedGroup:
    """A materialized fused strip loop, bound to one plan's buffers."""

    dst: int
    head_src: int
    lane_ops: list[LaneOp]
    scan_op: str | None
    lmul: LMUL
    node_indices: tuple[int, ...]
    n: int = 0
    dtype: object = None

    # -- structure census (drives both strict loop and closed form) -------
    @property
    def sew(self):
        return sew_for_dtype(self.dtype)

    @property
    def n_operand_loads(self) -> int:
        return sum(l.loads for l in self.lane_ops)

    @property
    def n_loads(self) -> int:
        """Unit-stride loads per strip: the head plus vector operands."""
        return 1 + self.n_operand_loads

    @property
    def n_arrays(self) -> int:
        """Pointers bumped per strip (drives scalar strip overhead)."""
        return 1 + (1 if self.head_src != self.dst else 0) + self.n_operand_loads

    @property
    def n_varith(self) -> int:
        return sum(l.varith for l in self.lane_ops)

    @property
    def n_mask(self) -> int:
        return sum(l.vmask for l in self.lane_ops)

    @property
    def needs_zero(self) -> bool:
        """Compares merge 1 over a broadcast zero vector (one-time)."""
        return any(l.kind.startswith("cmp") for l in self.lane_ops)

    @property
    def eliminated_roundtrips(self) -> int:
        """Per-strip intermediate store+reload pairs fusion removed
        (the dead intermediate stores of the chain)."""
        return len(self.node_indices) - 1


def group_profile(group: FusedGroup) -> RegisterProfile:
    """Simultaneously-live vector values of the fused loop, for the
    register-pressure model. The accumulator plus (at most) one
    transient operand slot and the compare zero vector; a scan tail
    adds the scan kernel's live set."""
    values: list[ValueUse]
    if group.scan_op is None:
        values = [ValueUse("acc", outer_accesses=3)]
        kernel = KERNEL_EW
        mask_values = 1
    else:
        values = list(PLUS_SCAN_PROFILE.values)
        kernel = KERNEL_SCAN
        mask_values = PLUS_SCAN_PROFILE.mask_values
    if group.n_operand_loads:
        values.append(ValueUse("operand", outer_accesses=2))
    if group.needs_zero:
        values.append(ValueUse("vec_zero_cmp", outer_accesses=1))
    return RegisterProfile(kernel, tuple(values), mask_values=mask_values)


def scan_fusion_legal(group: FusedGroup, lmul: LMUL) -> bool:
    """Attach a scan tail only when the enlarged live set spills exactly
    what the eager scan kernel would spill — never more. (The eager
    elementwise passes being replaced never spill, so equality keeps
    every counter category non-increasing.)"""
    probe = FusedGroup(
        dst=group.dst, head_src=group.head_src, lane_ops=group.lane_ops,
        scan_op="plus", lmul=lmul, node_indices=group.node_indices,
        n=group.n, dtype=group.dtype,
    )
    fused = plan_allocation(group_profile(probe), lmul)
    eager = plan_allocation(PLUS_SCAN_PROFILE, lmul)
    return fused.spilled == eager.spilled


@dataclass(frozen=True)
class GroupSpec:
    """Cacheable, plan-shape-only description of one fused group: the
    member node indices (the last one is the scan tail when ``scan``
    is set). Rebinding to an α-equivalent plan re-derives buffers and
    lane ops from the nodes at these indices."""

    node_indices: tuple[int, ...]
    scan: bool = False


@dataclass
class FusedPlan:
    """The fuser's output: execution units in program order (either a
    raw node index, run eagerly, or a :class:`GroupSpec`), plus the
    node indices dead-temp elimination removed. Contains no buffer
    ids, so a cached instance replays against any plan with the same
    signature."""

    units: list[int | GroupSpec] = field(default_factory=list)
    removed: tuple[int, ...] = ()
    #: :class:`~repro.engine.codegen.CompiledPlan` attached by
    #: :meth:`repro.engine.executor.Engine.compile_plan` at cache-insert
    #: time; ``None`` until compiled (or when there is nothing to
    #: compile). Excluded from equality: it is derived state.
    compiled: object | None = field(default=None, compare=False, repr=False)
    #: :class:`~repro.engine.native.NativePlan` attached by
    #: :meth:`repro.engine.executor.Engine.fused_for` on a
    #: native-backend compile, or lazily on first native use (``None``
    #: = not yet attempted, ``"unavailable"`` = structurally
    #: ineligible). Derived state, like ``compiled``.
    native: object | None = field(default=None, compare=False, repr=False)
    #: ``((Cat, count), ...)``: one execution's closed-form counter
    #: profile, pack's survivor-strip items excluded, computed by
    #: :meth:`repro.engine.executor.Engine.compile_plan` (None on a
    #: plan that was not compiled). Every all-fast run charges it: the
    #: fast evaluator, the native tier and batch rows 1+.
    charge_items: tuple | None = field(default=None, compare=False,
                                       repr=False)
    #: The element count of the shortest unit (FREE excluded), set with
    #: ``charge_items``: ``svm._fast(min_n)`` gates the all-fast paths
    #: (the fast evaluator and native). None on an uncompiled plan,
    #: which therefore always takes the unit loop.
    min_n: int | None = field(default=None, compare=False, repr=False)

    @property
    def n_groups(self) -> int:
        return sum(1 for u in self.units if isinstance(u, GroupSpec))

    @property
    def n_fused_nodes(self) -> int:
        return sum(len(u.node_indices) for u in self.units if isinstance(u, GroupSpec))

    def describe(self, plan: Plan) -> str:
        """Human-readable unit listing (the ``repro fuse`` after-dump)."""
        lines = [
            f"fused plan: {len(self.units)} units "
            f"({self.n_groups} fused groups covering {self.n_fused_nodes} nodes, "
            f"{len(self.removed)} dead nodes removed)"
        ]
        for rm in self.removed:
            lines.append(f"  dce  [{rm:>2}] removed (dead temp write)")
        for u in self.units:
            if isinstance(u, GroupSpec):
                g = materialize(plan, u)
                tail = f" ⊕ {g.scan_op}-scan tail" if g.scan_op else ""
                ops = " → ".join(
                    f"{l.op}.{l.kind.split('_')[-1] if l.kind.startswith('cmp') else l.kind}"
                    for l in g.lane_ops
                )
                lines.append(
                    f"  fuse {list(u.node_indices)}: load×{g.n_loads} [{ops}]{tail} "
                    f"store×1 per strip — eliminates {g.eliminated_roundtrips} "
                    f"intermediate load/store round trips per strip"
                )
            else:
                lines.append(f"  keep [{u:>2}] eager")
        return "\n".join(lines)


def materialize(plan: Plan, spec: GroupSpec) -> FusedGroup:
    """Bind a :class:`GroupSpec` to a concrete plan's buffers."""
    nodes = [plan.nodes[i] for i in spec.node_indices]
    body = nodes[:-1] if spec.scan else nodes
    scan_node = nodes[-1] if spec.scan else None
    head = body[0] if body else scan_node
    dst = head.dst
    head_src = head.src if head.src is not None else dst
    lanes: list[LaneOp] = []
    for node in body:
        lanes.extend(_node_lanes(node))
    buf = plan.buffers[dst]
    return FusedGroup(
        dst=dst,
        head_src=head_src,
        lane_ops=lanes,
        scan_op=scan_node.op if scan_node is not None else None,
        lmul=head.lmul,
        node_indices=spec.node_indices,
        n=buf.n,
        dtype=buf.dtype,
    )


# ---------------------------------------------------------------------------
# pass 1: dead-temp elimination
# ---------------------------------------------------------------------------

def dead_temp_elimination(plan: Plan) -> tuple[int, ...]:
    """Indices of pure nodes whose destination is a temp buffer freed
    later in the plan with no intervening read — their writes are
    unobservable. A compare/get_flags with a distinct source *kills*
    its destination (fully overwrites it), which lets whole dead
    chains above the kill fall out too."""
    live: set[int] = set(plan.buffers)  # everything not freed is live-out
    removed: list[int] = []
    for i in range(len(plan.nodes) - 1, -1, -1):
        node = plan.nodes[i]
        if node.kind is Kind.FREE:
            live.discard(node.dst)
            continue
        if (
            node.kind in PURE_KINDS
            and node.dst is not None
            and node.dst not in live
            and plan.buffers[node.dst].temp
        ):
            removed.append(i)
            continue
        if (
            node.kind in (Kind.CMP_VX, Kind.CMP_VV, Kind.GET_FLAGS)
            and node.src != node.dst
        ):
            live.discard(node.dst)
        live |= {b for b in node.buffers_read() if b is not None}
    return tuple(sorted(removed))


# ---------------------------------------------------------------------------
# pass 2: strip fusion
# ---------------------------------------------------------------------------

def _compatible(plan: Plan, group: FusedGroup, node: OpNode) -> bool:
    """Shared vtype check: same element width, same LMUL, same length."""
    buf = plan.buffers[node.dst]
    return (
        node.lmul == group.lmul
        and buf.n == group.n
        and buf.dtype == group.dtype
    )


def _try_extend(plan: Plan, group: FusedGroup, node: OpNode) -> bool:
    """Whether ``node`` may legally join ``group`` (see module doc)."""
    if node.kind not in FUSABLE_KINDS:
        return False
    if node.dst != group.dst or not _compatible(plan, group, node):
        return False
    if node.kind in (Kind.CMP_VX, Kind.CMP_VV, Kind.GET_FLAGS):
        # mid-group, the head load already happened: only compares that
        # apply to the accumulator itself (src == dst) can fuse; a
        # different source needs the pending store flushed first
        if node.src != node.dst:
            return False
    if node.operand is not None and node.operand == group.dst:
        # reading dst from memory is stale once the accumulator holds
        # unstored values; only legal as the very first lane op of a
        # plain elementwise group (acc just loaded, still == memory)
        if group.lane_ops or group.head_src != group.dst:
            return False
    return True


def fuse(plan: Plan) -> FusedPlan:
    """Run both passes and return the fused execution recipe."""
    removed = set(dead_temp_elimination(plan))
    units: list[int | GroupSpec] = []
    open_idx: list[int] = []  # node indices of the group being built
    open_group: FusedGroup | None = None

    def close() -> None:
        nonlocal open_group
        if open_group is None:
            return
        if len(open_idx) == 1 and open_group.scan_op is None:
            units.append(open_idx[0])  # demoted: fusion buys nothing
        else:
            units.append(GroupSpec(tuple(open_idx), scan=open_group.scan_op is not None))
        open_idx.clear()
        open_group = None

    def open_new(i: int, node: OpNode) -> None:
        nonlocal open_group
        buf = plan.buffers[node.dst]
        open_group = FusedGroup(
            dst=node.dst,
            head_src=node.src if node.src is not None else node.dst,
            lane_ops=list(_node_lanes(node)),
            scan_op=None,
            lmul=node.lmul,
            node_indices=(),
            n=buf.n,
            dtype=buf.dtype,
        )
        open_idx.append(i)

    for i, node in enumerate(plan.nodes):
        if i in removed:
            continue
        if node.kind in FUSABLE_KINDS:
            if open_group is not None and _try_extend(plan, open_group, node):
                open_group.lane_ops.extend(_node_lanes(node))
                open_idx.append(i)
            else:
                close()
                if (
                    node.src is not None
                    and node.src != node.dst
                    and plan.buffers[node.src].dtype != plan.buffers[node.dst].dtype
                ):
                    # the eager kernel strip-mines at the *source* SEW;
                    # a fused loop would use the destination's — keep
                    # mixed-width heads eager
                    units.append(i)
                else:
                    open_new(i, node)
            continue
        if node.kind is Kind.SCAN and node.inclusive:
            if (
                open_group is not None
                and node.dst == open_group.dst
                and _compatible(plan, open_group, node)
                and scan_fusion_legal(open_group, node.lmul)
            ):
                open_group.scan_op = node.op
                open_idx.append(i)
                close()  # a scan tail is terminal
            else:
                close()
                units.append(i)  # eager scan: counters match baseline
            continue
        # structured replay (permute/pack/seg_scan/select/...), free,
        # exclusive scan — never merged into a strip loop
        close()
        units.append(i)
    close()
    return FusedPlan(units=units, removed=tuple(sorted(removed)))
