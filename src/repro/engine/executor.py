"""Execute a fused plan: the unit loop, or native C.

:meth:`Engine.compile_plan` fixes a plan's closed-form counter profile
(``FusedPlan.charge_items``: the fused groups' tuples plus every other
node's ``OpSpec.charge``) and its shortest unit (``FusedPlan.min_n``).
A run is *all-fast* when the fast path applies at that length; on the
native backend it then runs as one C call (:mod:`repro.engine.native`)
charged the profile once (:func:`charge_runs`).

Every other single call, and batch rows 1+, take the Python tier's one
unit loop, :func:`run_units`, on memory views (:class:`Views`) or on
``[B-1, n]`` matrices; an eager SVM primitive is one node step of
it (:func:`run_node`, from :class:`~repro.engine.capture.EagerRecorder`).
A fast unit runs its group's generated function or its node's NumPy
body (:func:`~repro.engine.nodes.run_node_np`); a
strict unit runs :func:`run_group_strict`, the reference semantics
(one strip loop on the machine intrinsics: load the head, apply every
lane op in registers, the optional scan tail, store once), or its
node's strict kernel (:func:`~repro.engine.nodes.run_node_strict`).
Both node calls take their operands by the node kind's roles in the
registry's signature table (:data:`repro.svm.opspec.SIGNATURES`).
An all-fast, unprofiled call charges the static profile once; any
other run — strict, mixed-threshold, profiled or unfused — picks each
unit's tier at its own length and charges the unit inside its span, so
a profiler explains the path that runs without changing it.

Every path shares the vl sequence (``n``, VLEN, SEW, LMUL determine
it), so results and per-category counts agree exactly — the invariant
``tests/engine`` asserts across modes, sizes, and presets.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from ..config import BACKENDS, DEFAULT_BACKEND, env_backend
from ..obs.spans import NULL_SPAN, span
from ..rvv.allocation import plan_allocation
from ..rvv.counters import Cat
from ..rvv.intrinsics import arith, compare, loadstore, mask as maskops, move, permutation
from ..rvv.value import VReg
from ..svm import elementwise as ew
from ..svm.fastpath import _items, _wrap, pack_variable_items
from ..svm.operators import get_operator
from ..svm.scan import inner_scan_steps
from .cache import PlanCache
from .codegen import compile_fused
from .fuse import (
    KERNEL_EW,
    KERNEL_SCAN,
    FusedGroup,
    FusedPlan,
    GroupSpec,
    fuse as fuse_plan,
    group_profile,
    materialize,
)
from .ir import EngineError, Kind, Plan, resolve_scalar
from .native import artifact_dir, lower_plan, native_state
from .nodes import node_charge, node_spec, run_node_np, run_node_strict

__all__ = [
    "Engine",
    "Views",
    "all_fast",
    "charge_runs",
    "execute",
    "free_live",
    "native_for",
    "run_group_strict",
    "run_node",
    "run_units",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "resolve_backend",
]

_CMP_VX_INTRIN = ew._CMP_VX  # no "ge": that relation uses vmsltu + vmnot
_CMP_VV_INTRIN = ew._CMP_VV


def _trim(v: VReg, vl: int) -> VReg:
    return v if v.vl == vl else VReg(v.data[:vl])


# ---------------------------------------------------------------------------
# strict group execution
# ---------------------------------------------------------------------------

def _apply_lane_strict(m, lane, acc, vl, vzero, operand_ptr):
    """One in-register lane op of the fused strip body."""
    if lane.kind == "vx":
        return ew._VX_OPS[lane.op](m, acc, resolve_scalar(lane.scalar), vl)
    if lane.kind == "vv":
        vb = loadstore.vle(m, operand_ptr, vl)
        return ew._VV_OPS[lane.op](m, acc, vb, vl)
    if lane.kind == "cmp_vx":
        x = resolve_scalar(lane.scalar)
        if lane.op == "ge":  # vmsgeu.vx does not exist: vmsltu + vmnot
            msk = compare.vmsltu_vx(m, acc, x, vl)
            msk = maskops.vmnot_m(m, msk, vl)
        else:
            msk = _CMP_VX_INTRIN[lane.op](m, acc, x, vl)
        return arith.vmerge_vxm(m, msk, _trim(vzero, vl), 1, vl)
    if lane.kind == "cmp_vv":
        vb = loadstore.vle(m, operand_ptr, vl)
        msk = _CMP_VV_INTRIN[lane.op](m, acc, vb, vl)
        return arith.vmerge_vxm(m, msk, _trim(vzero, vl), 1, vl)
    raise EngineError(f"unknown lane kind {lane.kind!r}")


def run_group_strict(svm, plan: Plan, group: FusedGroup) -> None:
    """Drive one fused group through the machine intrinsics."""
    m = svm.machine
    sew = group.sew
    lmul = group.lmul
    kernel = KERNEL_SCAN if group.scan_op is not None else KERNEL_EW
    alloc = plan_allocation(group_profile(group), lmul)

    m.prologue(kernel)
    if alloc.has_spills:
        m.count(Cat.SPILL, alloc.frame_setup)

    # one-time constant setup (a single vsetvlmax covers every broadcast)
    vec_identity = vzero = None
    op = identity = None
    if group.scan_op is not None or group.needs_zero:
        vlmax = m.vsetvlmax(sew, lmul)
        if group.scan_op is not None:
            op = get_operator(group.scan_op)
            identity = op.identity(group.dtype)
            vec_identity = move.vmv_v_x(m, identity, vlmax, dtype=group.dtype)
        if group.needs_zero:
            vzero = move.vmv_v_x(m, 0, vlmax, dtype=group.dtype)
    if group.scan_op is not None:
        scan_vv = ew._VV_OPS[_SCAN_EW[op.name]]
        scan_vx = ew._VX_OPS[_SCAN_EW[op.name]]
        carry = identity

    head = plan.buffers[group.head_src].array.ptr
    dst = plan.buffers[group.dst].array.ptr
    ptrs = [
        plan.buffers[l.operand].array.ptr if l.operand is not None else None
        for l in group.lane_ops
    ]

    n = int(group.n)
    while n > 0:
        vl = m.vsetvl(n, sew, lmul)
        acc = loadstore.vle(m, head, vl)
        for i, lane in enumerate(group.lane_ops):
            acc = _apply_lane_strict(m, lane, acc, vl, vzero, ptrs[i])
            if ptrs[i] is not None:
                ptrs[i] += vl
        if group.scan_op is not None:
            ident_vl = _trim(vec_identity, vl)
            offset = 1
            while offset < vl:
                y = permutation.vslideup_vx(m, ident_vl, acc, offset, vl)
                acc = scan_vv(m, acc, y, vl)
                m.inner_overhead(kernel)
                offset <<= 1
            acc = scan_vx(m, acc, carry, vl)
        loadstore.vse(m, dst, acc, vl)
        if group.scan_op is not None:
            carry = dst[vl - 1]
            m.scalar(2)  # carry reload: address computation + lw
        head += vl
        dst += vl
        n -= vl
        m.strip_overhead(kernel, group.n_arrays)
        if alloc.has_spills:
            steps = inner_scan_steps(vl) if group.scan_op is not None else 0
            m.count(Cat.SPILL, alloc.strip_cost(steps))


#: Scan operator name -> elementwise kernel with the same vv/vx intrinsics.
_SCAN_EW = {
    "plus": "p_add", "max": "p_max", "min": "p_min",
    "or": "p_or", "and": "p_and", "xor": "p_xor",
}


# ---------------------------------------------------------------------------
# the unit loop
# ---------------------------------------------------------------------------

class Views(dict):
    """Buffer id -> 1-D view of the buffer in simulated memory, sliced
    on first touch: the unit loop's arrays for one call. Writes
    land in memory, a produced future resolves at once, so the units
    after it (fused groups, shifts) read it in program order, and a
    FREE node frees its buffer."""

    __slots__ = ("svm", "buffers", "sws")

    def __init__(self, svm, buffers: dict) -> None:
        super().__init__()
        self.svm = svm
        self.buffers = buffers
        #: Pack strips that held a survivor, summed over the run.
        self.sws = 0

    def __missing__(self, bid: int):
        # a buffer's array is a heap block allocated before the run
        buf = self.buffers[bid]
        view = self[bid] = buf.array.ptr.view_unchecked(buf.n)
        return view

    #: A node that overwrites a buffer writes its memory view.
    fresh = dict.__getitem__

    def store(self, bid: int, arr) -> None:
        self[bid][...] = arr

    @staticmethod
    def scalar(node, dtype):
        return _wrap(resolve_scalar(node.scalar), dtype)

    @staticmethod
    def produce(node, value) -> None:
        node.future.resolve(value)

    def free(self, bid: int) -> None:
        self.pop(bid, None)
        self.svm.free(self.buffers[bid].array)


def run_units(plan: Plan, fused: FusedPlan, mats, m, svm=None) -> None:
    """The Python tier's one unit loop: every unit of a plan in program
    order on ``mats`` — the :class:`Views` of a single call, or the
    :class:`~repro.batch.runner.Rows` matrices of batch rows 1+. With
    no ``svm`` every unit is fast (a group's generated entry point, a
    node's NumPy body) and nothing is charged: the caller charges the
    static profile once (:func:`charge_runs`), with ``mats.sws`` for
    pack's term. With ``svm``, see :func:`_run_unit`."""
    nodes = plan.nodes
    groups = fused.compiled.groups if fused.compiled is not None else {}
    for unit in fused.units:
        if svm is not None:
            _run_unit(svm, plan, unit, groups, mats)
        elif isinstance(unit, GroupSpec):
            groups[unit].run(nodes, mats)
        else:
            run_node_np(nodes[unit], mats, m)


def _run_unit(svm, plan: Plan, unit, groups: dict, mats) -> None:
    """One unit on the tier ``svm._fast`` picks at its length, charged
    inside its span. A fused group's span is its kernel name with {n,
    nodes, path}: fast runs its generated function plus the group's
    ``charge``, strict :func:`run_group_strict`. A node is
    :func:`run_node`."""
    if not isinstance(unit, GroupSpec):
        run_node(svm, plan, plan.nodes[unit], mats)
        return
    m = svm.machine
    name = KERNEL_SCAN if unit.scan else KERNEL_EW
    cg = groups.get(unit)
    if cg is not None and svm._fast(cg.n):
        with span(m, name, n=cg.n, nodes=len(unit.node_indices),
                  path="fast", backend="codegen"):
            cg.run(plan.nodes, mats)
            m.counters.add_many(cg.charge)
        return
    group = materialize(plan, unit)
    if svm._fast(group.n):
        raise EngineError(
            "fused group has no generated kernel; build fused plans "
            "with Engine.compile_plan"
        )
    with span(m, name, n=group.n, nodes=len(unit.node_indices),
              path="strict"):
        run_group_strict(svm, plan, group)


def run_node(svm, plan, node, mats) -> None:
    """One node on the tier ``svm._fast`` picks at its length, charged
    inside a span named after its primitive with {n, path}. Fast: its
    NumPy body (:func:`run_node_np`) plus its ``node_charge`` and
    pack's items for the strips it added; strict: its strict kernel
    (:func:`run_node_strict`). A FREE node frees its buffer. ``plan``
    needs only ``buffers``: the eager recorder
    (:class:`~repro.engine.capture.EagerRecorder`) passes itself."""
    if node.kind is Kind.FREE:
        mats.free(node.dst)
        return
    m = svm.machine
    spec, variant, buf = node_spec(plan, node)
    fast = svm._fast(buf.n)
    col = m.collector  # read once: every eager primitive call runs here
    with NULL_SPAN if col is None else col.span(
            spec.name, n=buf.n, path="fast" if fast else "strict"):
        if not fast:
            run_node_strict(svm, plan, node)
            return
        sws = mats.sws
        run_node_np(node, mats, m)
        m.counters.add_many(node_charge(m, node, spec, variant, buf))
        if mats.sws != sws:
            m.counters.add_many(pack_variable_items(mats.sws - sws))


def charge_runs(m, fused: FusedPlan, rows: int = 1, sws: int = 0) -> None:
    """Charge ``rows`` all-fast runs of ``fused``: its static profile
    (``fused.charge_items``) per row, plus pack's survivor-strip term
    for ``sws`` strips over all rows. The one charge of every all-fast
    run — unit loop or native, one row or B."""
    items = fused.charge_items
    if rows != 1:
        items = [(cat, k * rows) for cat, k in items]
    m.counters.add_many(items)
    if sws:
        m.counters.add_many(pack_variable_items(sws))


def free_live(svm, plan: Plan, bids) -> None:
    """Free each buffer of ``bids`` that is still allocated: after a
    run that raised, the buffers its FREE nodes name; after a batch
    row, its temporaries and input."""
    heap = svm.machine.heap
    for bid in bids:
        arr = plan.buffers[bid].array
        if heap.is_live(arr.ptr.addr):
            svm.free(arr)


def all_fast(svm, fused: FusedPlan) -> bool:
    """Whether every unit of ``fused`` takes the fast path: its
    shortest unit does (False for a plan :meth:`Engine.compile_plan`
    did not build)."""
    return fused.min_n is not None and svm._fast(fused.min_n)


# ---------------------------------------------------------------------------
# plan execution + the Engine facade
# ---------------------------------------------------------------------------

def execute(svm, plan: Plan, fused: FusedPlan,
            backend: str = DEFAULT_BACKEND) -> None:
    """Run a fused plan's units in program order against ``svm``.

    An all-fast run (see the module docstring) on ``"native"`` is one
    compiled C call, charged the static profile, when the plan lowers
    and a toolchain is present, with a ``native_plan`` span ({n,
    backend}) under a profiler. Everything else runs the unit loop
    (:func:`run_units`) on the buffers' memory views: an unprofiled
    all-fast run charges the static profile once after it, any other
    run unit by unit, each in its span. A fused group on the fast path
    needs the function ``Engine.compile_plan`` generated for it. A run
    that raises still frees the buffers its FREE nodes name.
    """
    m = svm.machine
    col = getattr(m, "collector", None)
    native = native_for(svm, plan, fused, backend)
    try:
        if native is not None:
            # the charge runs inside the span, so it carries the delta
            with col.span("native_plan", n=fused.min_n, backend=backend) \
                    if col is not None else nullcontext():
                charge_runs(m, fused, 1, native.run(svm, plan))
        elif col is None and all_fast(svm, fused):
            views = Views(svm, plan.buffers)
            run_units(plan, fused, views, m)
            charge_runs(m, fused, 1, views.sws)
        else:
            run_units(plan, fused, Views(svm, plan.buffers), m, svm)
    except BaseException:
        # every tier: a plan that raised still frees what it would have
        free_live(svm, plan, [node.dst for node in plan.nodes
                              if node.kind is Kind.FREE])
        raise


def native_for(svm, plan: Plan, fused: FusedPlan, backend: str):
    """The :class:`~repro.engine.native.NativePlan` :func:`execute`
    runs ``plan`` through on ``backend``, or None when it runs the
    Python tier (codegen backend, an execution that is not all-fast,
    plan does not lower, or no toolchain)."""
    if backend != "native" or not all_fast(svm, fused):
        return None
    return native_state(svm, plan, fused)


def _static_facts(plan: Plan, fused: FusedPlan, m) -> tuple[tuple, int]:
    """One execution's closed-form counter profile — each fused group's
    precomputed tuple plus the registry charge of every other node,
    pack's survivor-strip term excluded and zero counts dropped — and
    the element count of its shortest unit, FREE excluded (0 when there
    is none)."""
    groups = fused.compiled.groups if fused.compiled is not None else {}
    items: list = []
    lengths = []
    for unit in fused.units:
        if isinstance(unit, GroupSpec):
            items += groups[unit].charge
            lengths.append(groups[unit].n)
        elif plan.nodes[unit].kind is not Kind.FREE:
            node = plan.nodes[unit]
            items += node_charge(m, node, *node_spec(plan, node))
            lengths.append(plan.buffers[
                node.dst if node.dst is not None else node.src].n)
    return _items(*items), int(min(lengths, default=0))


def resolve_backend(backend: str | None) -> str:
    """Validate an explicit backend or derive the default from the
    environment (``REPRO_BACKEND`` via :mod:`repro.config`, read at
    call time) falling back to codegen when it is unset or unknown. ``BACKENDS`` and
    ``DEFAULT_BACKEND`` are canonical in :mod:`repro.config` and
    re-exported here for the execution layer."""
    if backend is None:
        # like every REPRO_* value, a malformed one falls back
        env = env_backend()
        return env if env in BACKENDS else DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise EngineError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


class Engine:
    """Owns the plan cache and runs captured plans for one SVM context.

    ``backend`` picks the fast-path execution strategy for fused groups
    (see :func:`execute`). On a native backend, compiled C artifacts
    persist under :func:`~repro.engine.native.artifact_dir` of the
    context's ``cache_dir`` (set explicitly or through
    ``REPRO_CACHE_DIR``); nothing else the engine builds touches disk.
    """

    def __init__(self, svm, cache: PlanCache | None = None, *,
                 backend: str | None = None) -> None:
        self.svm = svm
        self.cache = cache if cache is not None else PlanCache()
        self.backend = resolve_backend(backend)
        #: ``<cache_dir>/native`` when the context has a cache dir.
        self.artifact_dir = artifact_dir(getattr(svm, "cache_dir", None))
        #: Plan resolutions by tier, counted once per :meth:`fused_for`
        #: call. Per engine, unlike the (possibly shared) cache's
        #: stats, so a caller can diff it around its own executions.
        self.resolutions = {"memory": 0, "disk": 0, "compile": 0}
        #: Most recent (plan, fused plan) pair — used by ``repro fuse``.
        self.last_plan: Plan | None = None
        self.last_fused: FusedPlan | None = None

    def plan_key(self, plan: Plan) -> tuple:
        m = self.svm.machine
        return plan.signature(m.vlen, m.codegen.name)

    def compile_plan(self, plan: Plan) -> FusedPlan:
        """Fuse + generate code for ``plan`` (a cache miss's work) and
        compute its static counter profile, with one ``plan.compile``
        span when profiling."""
        m = self.svm.machine
        col = getattr(m, "collector", None)
        t0 = time.perf_counter()
        ctx = col.span("plan.compile", nodes=len(plan.nodes)) \
            if col is not None else nullcontext()
        with ctx:
            fused = fuse_plan(plan)
            fused.compiled = compile_fused(plan, fused, m)
            fused.charge_items, fused.min_n = _static_facts(plan, fused, m)
        if col is not None:
            groups = len(fused.compiled.groups) if fused.compiled else 0
            col.codegen_event(groups, time.perf_counter() - t0)
        return fused

    def fused_for(self, plan: Plan) -> FusedPlan:
        """The fusion recipe for ``plan``: an in-memory LRU hit, else a
        full compile. On a native backend the compile also lowers the
        plan and binds its C artifact; the resolution counts as
        ``"disk"`` when that artifact was already under
        :attr:`artifact_dir` so no ``cc`` ran, else ``"compile"``.

        When the context was built with ``tune=``, the tuning policy is
        consulted first — it may retag the plan's LMUL to the learned
        optimum for this (plan fingerprint, n-bucket) *before* the key
        is computed, so the retagged plan shares cache entries with an
        SVM pinned to the chosen config. The lookup is memoized inside
        the policy; on the warm path it is one dict probe.
        """
        tuner = getattr(self.svm, "_tuner", None)
        if tuner is not None:
            policy = tuner()
            if policy is not None:
                policy.apply(plan, self.svm)
        key = self.plan_key(plan)
        fused = self.cache.get(key)
        source = "memory"
        if fused is None:
            fused = self.compile_plan(plan)
            self.cache.put(key, fused)
            source = "compile"
            if self.backend == "native":
                # lower and bind after the put, so concurrent workers
                # hit the warm entry immediately; codegen-backend
                # processes never pay for this
                native = lower_plan(plan, fused)
                fused.native = native or "unavailable"
                if (native is not None and native.ensure(self.artifact_dir)
                        and self.artifact_dir is not None
                        and not native.built):
                    source = "disk"
                    self.cache.note_disk_hit()
        self.resolutions[source] += 1
        col = getattr(self.svm.machine, "collector", None)
        if col is not None:
            hit = source != "compile"
            col.plan_cache_event(hit, self.cache,
                                 source=source if hit else "none")
        return fused

    def run(self, plan: Plan, fuse: bool = True) -> FusedPlan:
        """Execute ``plan``; with ``fuse=False`` every node runs as its
        own unit of the unit loop on every backend (bit- and
        counter-identical to not using the engine)."""
        fused = self.fused_for(plan) if fuse else \
            FusedPlan(units=list(range(len(plan.nodes))))
        execute(self.svm, plan, fused, backend=self.backend)
        self.last_plan = plan
        self.last_fused = fused
        return fused
