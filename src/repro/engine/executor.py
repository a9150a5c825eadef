"""Execute a fused plan: the strict reference loop or generated kernels.

Non-fused units replay the recorded :class:`~repro.svm.context.SVM`
method call verbatim, so their results *and* counters are exactly what
eager execution would have produced — ``svm.lazy(fuse=False)`` is a
bit- and counter-identical spelling of the eager program.

Fused groups run one of two ways, mirroring the repo's strict/fast
contract:

* :func:`run_group_strict` is the reference semantics: it drives the
  machine intrinsic-by-intrinsic — one strip loop that loads the head
  value, applies every lane op in registers, runs the optional
  in-register scan tail, and stores once;
* on the fast path the group runs the kernel
  :func:`~repro.engine.codegen.compile_fused` generated for it at
  plan-cache insert — NumPy over the whole group plus one precomputed
  closed-form charge of the strict loop's counters.

Both share the vl sequence (``n``, VLEN, SEW, LMUL determine it), so
results and per-category counts agree exactly — the invariant
``tests/engine`` asserts across modes, sizes, and presets. The native
backends (:mod:`repro.engine.native`) sit on top: one compiled C call
per plan when it lowers, the generated kernels otherwise.

Because every count is closed-form, :meth:`Engine.compile_plan` also
computes the plan's whole counter profile once
(``FusedPlan.charge_items``): the groups' precomputed tuples plus each
replayed node's registry charge (``OpSpec.charge``). Native calls and
batch rows 1+ charge that profile instead of running Python, adding
pack's survivor-strip term per run.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from ..config import BACKENDS, DEFAULT_BACKEND, env_backend
from ..rvv.allocation import plan_allocation
from ..rvv.counters import Cat
from ..rvv.intrinsics import arith, compare, loadstore, mask as maskops, move, permutation
from ..rvv.value import VReg
from ..svm import elementwise as ew
from ..svm.fastpath import _items, pack_variable_items
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
from .native import NATIVE_BACKENDS, artifact_dir, lower_plan, native_state
from .nodes import node_charge, run_node_eager

__all__ = [
    "Engine",
    "execute",
    "native_for",
    "run_group_strict",
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
# plan execution + the Engine facade
# ---------------------------------------------------------------------------

def execute(svm, plan: Plan, fused: FusedPlan,
            backend: str = DEFAULT_BACKEND) -> None:
    """Run a fused plan's units in program order against ``svm``.

    ``fused`` must come from :meth:`Engine.compile_plan` (directly or
    through the plan cache): on the fast path every fused group runs
    the kernel generated for it in ``fused.compiled``, and there is no
    other fast-path implementation to fall back to. Strict execution
    materializes each group and drives :func:`run_group_strict`.

    ``"codegen"`` (the default) runs the generated kernels — the whole
    plan as one call (``fused.compiled.plan_fn``) when the fast path
    applies to every group, else unit by unit.
    ``"native"`` / ``"native-speed"`` run the whole plan as one
    compiled C call (:mod:`repro.engine.native`) when the plan lowers,
    a toolchain is present, and the execution is all-fast; otherwise
    they degrade to exactly the codegen tier. ``"native"`` keeps the
    counter contract by charging the plan's static profile
    (``fused.charge_items``, computed by :meth:`Engine.compile_plan`)
    on every native run, the first included; ``"native-speed"`` skips
    counter bookkeeping entirely (results-identical only). ``pack``'s
    one data-dependent term is not in the profile: every native run
    adds :func:`~repro.svm.fastpath.pack_variable_items` for the
    survivor strips its kernel counted.

    With a profiler installed each fused group gets its own span
    (``fused_scan``/``fused_ew`` with {n, nodes, path} metadata, plus
    ``backend`` on the fast path), and each compiled C call one
    ``native_plan`` span with {n, backend}; non-fused units replay
    through the instrumented SVM methods, so they show up under their
    primitive names as in eager mode.
    """
    col = getattr(svm.machine, "collector", None)
    native = native_for(svm, plan, fused, backend)
    if native is None:
        _execute_units(svm, plan, fused, col)
        return
    with _native_span(col, native, backend):
        sws = native.run(svm, plan)
        if backend == "native":
            counters = svm.machine.counters
            counters.add_many(fused.charge_items)
            if sws:
                counters.add_many(pack_variable_items(sws))


def native_for(svm, plan: Plan, fused: FusedPlan, backend: str):
    """The :class:`~repro.engine.native.NativePlan` :func:`execute`
    runs ``plan`` through on ``backend``, or None when it runs the
    Python tier (codegen backend, plan does not lower, no toolchain, or
    an execution that is not all-fast)."""
    if backend not in NATIVE_BACKENDS:
        return None
    native = native_state(svm, plan, fused)
    if native is None or not svm._fast(native.min_n):
        return None
    return native


def _static_charge(plan: Plan, fused: FusedPlan, m) -> tuple:
    """One execution's closed-form counter profile: each fused group's
    precomputed tuple plus the registry charge of every replayed node,
    pack's survivor-strip term excluded and zero counts dropped."""
    groups = fused.compiled.groups if fused.compiled is not None else {}
    items: list = []
    for unit in fused.units:
        if isinstance(unit, GroupSpec):
            items += groups[unit].charge
        elif plan.nodes[unit].kind is not Kind.FREE:
            items += node_charge(m, plan, plan.nodes[unit])
    return _items(*items)


def _native_span(col, native, backend: str):
    """One ``native_plan`` span around a compiled C call when
    profiling (the charge replay inside it, so the span carries the
    plan's counter delta)."""
    if col is None:
        return nullcontext()
    return col.span("native_plan", n=native.min_n, backend=backend)


def _execute_units(svm, plan: Plan, fused: FusedPlan, col) -> None:
    """The Python-tier unit loop: generated kernels on the fast path,
    the strict reference loop otherwise."""
    compiled = fused.compiled
    if compiled is None:
        groups = {}
    elif col is None and svm._fast(compiled.min_n):
        # whole-plan flat kernel: the fast path applies to every
        # group — skip the unit loop entirely (profiled runs keep
        # per-group spans)
        compiled.plan_fn(svm, plan)
        return
    else:
        groups = compiled.groups
    for unit in fused.units:
        if not isinstance(unit, GroupSpec):
            run_node_eager(svm, plan, plan.nodes[unit])
            continue
        name = KERNEL_SCAN if unit.scan else KERNEL_EW
        cg = groups.get(unit)
        if cg is not None and svm._fast(cg.n):
            ctx = col.span(name, n=cg.n, nodes=len(unit.node_indices),
                           path="fast", backend="codegen") \
                if col is not None else nullcontext()
            with ctx:
                cg.fn(svm, plan.nodes, plan.buffers)
            continue
        group = materialize(plan, unit)
        if svm._fast(group.n):
            raise EngineError(
                "fused group has no generated kernel; build fused plans "
                "with Engine.compile_plan"
            )
        ctx = col.span(name, n=group.n, nodes=len(unit.node_indices),
                       path="strict") if col is not None else nullcontext()
        with ctx:
            run_group_strict(svm, plan, group)


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
            fused.charge_items = _static_charge(plan, fused, m)
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
            if self.backend in NATIVE_BACKENDS:
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
        """Execute ``plan``; with ``fuse=False`` every node replays
        eagerly through the unit loop on every backend (bit- and
        counter-identical to not using the engine)."""
        if fuse:
            fused = self.fused_for(plan)
            execute(self.svm, plan, fused, backend=self.backend)
        else:
            fused = FusedPlan(units=list(range(len(plan.nodes))))
            _execute_units(self.svm, plan, fused,
                           getattr(self.svm.machine, "collector", None))
        self.last_plan = plan
        self.last_fused = fused
        return fused
