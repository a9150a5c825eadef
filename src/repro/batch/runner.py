"""Batched plan execution: one fused plan, many independent inputs.

The paper's primitives are data-oblivious in their instruction counts
(§3, Tables 2-4): the vl strip sequence — and therefore every closed-
form charge — depends only on (n, VLEN, SEW, LMUL), never on element
values. That is what makes batching sound: a cached
:class:`~repro.engine.fuse.FusedPlan` evaluated over B same-length
inputs performs B identical instruction streams, so the batch can

* execute the *data* as one 2D NumPy evaluation per execution unit
  (batch axis × element axis), and
* charge the *counters* by running row 0 through the ordinary
  single-input engine and scaling its counter delta by the remaining
  B-1 rows — exact, because integer scaling of an identical per-row
  profile is exact.

The result is bit- and counter-identical to looping the single-input
path, which stays the definitional semantics:

* variable-length batches are split into length buckets first (the vl
  sequence depends only on n, so only same-(n, dtype) rows may share a
  plan);
* every structured node kind batches — permute, enumerate, segmented
  scans, select, reduce and friends all have ``axis=1`` evaluations,
  and :class:`~repro.engine.ir.ScalarFuture` values produced inside
  the plan (enumerate counts, reductions, pack's kept count) thread
  through as per-row vectors;
* plans containing ``pack`` — the one op whose charge and output
  length are data-dependent — take the ``"ragged"`` path: still one
  2D evaluation, with a masked compaction kernel
  (:func:`repro.batch.ragged.pack2d`), a per-row-lengths column on the
  result (:class:`~repro.batch.ragged.RaggedBatch`), and an exact
  per-row counter charge via ``Counters.add_many`` that swaps row 0's
  data-dependent pack items for each row's own
  (:func:`repro.svm.fastpath.pack_variable_items`);
* only strict mode, sub-threshold lengths, and plans where a packed
  buffer escapes into a non-prefix-local consumer (or a future feeds a
  consumer the 2D path cannot broadcast) fall back to literally looping
  the single-input path;
* fused groups run the batch kernels
  :func:`~repro.engine.codegen.compile_fused` generated next to the
  single-call ones, with ``axis=1`` scan tails.

See ``docs/batching.md`` for the API, the bucketing rule, and the
ragged representation.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..engine.capture import PlanBuilder
from ..engine.executor import execute
from ..engine.fuse import GroupSpec
from ..engine.ir import EngineError, Kind, Plan, ScalarFuture, resolve_scalar
from ..engine.native import NATIVE_BACKENDS, native_state
from ..rvv.types import sew_for_dtype
from ..scalar.kernels import segmented_cumsum, segmented_reduce_numpy
from ..svm.fastpath import (
    _NP_CMP,
    _UFUNC_VX,
    _wrap,
    pack_strip_survivors,
    pack_variable_items,
)
from ..svm.opspec import get_spec
from ..svm.operators import get_operator
from .ragged import RaggedBatch, pack2d

__all__ = ["BatchBucket", "BatchResult", "run_batch", "run_bucket"]


@dataclass(frozen=True)
class BatchBucket:
    """One length bucket of a batch and how it was dispatched."""

    n: int
    dtype: str
    rows: int
    #: ``"2d"`` (matrix fast path), ``"ragged"`` (matrix fast path
    #: with pack's masked kernel + per-row lengths), or ``"loop"``
    #: (per-row fallback).
    path: str
    #: Positions of this bucket's rows in the original input order.
    indices: tuple[int, ...]
    #: Per-row defined-prefix lengths of the outputs (bucket row
    #: order) when the pipeline's output is ragged (its last writer is
    #: a pack); None when every output lane is defined.
    lengths: tuple[int, ...] | None = None


@dataclass
class BatchResult:
    """Outputs in input order plus per-bucket dispatch reports.

    ``lengths`` parallels ``outputs``: row *i*'s defined prefix is
    ``outputs[i][:lengths[i]]`` when ``lengths[i]`` is an int (a
    pack-tailed pipeline — lanes past the kept count are undefined
    malloc residue), and the whole row when it is None.
    """

    outputs: list[np.ndarray] = field(default_factory=list)
    buckets: list[BatchBucket] = field(default_factory=list)
    lengths: list = field(default_factory=list)

    @property
    def rows(self) -> int:
        return len(self.outputs)

    def __len__(self) -> int:
        return len(self.outputs)

    def __getitem__(self, i):
        return self.outputs[i]

    def __iter__(self):
        return iter(self.outputs)

    def to_ragged(self) -> RaggedBatch:
        """The result as one :class:`~repro.batch.ragged.RaggedBatch`.

        Requires all outputs to share one length (one bucket — the
        :func:`run_bucket` shape). Rows without a lengths entry are
        fully defined."""
        if not self.outputs:
            return RaggedBatch(np.empty((0, 0)), np.empty(0, dtype=np.int64))
        n = self.outputs[0].size
        if any(o.size != n for o in self.outputs):
            raise EngineError(
                "to_ragged needs same-length outputs (a single bucket)"
            )
        lengths = [n if k is None else int(k)
                   for k in (self.lengths or [None] * len(self.outputs))]
        return RaggedBatch(np.stack(self.outputs, axis=0),
                           np.asarray(lengths, dtype=np.int64))


def _freed_bids(plan: Plan) -> set[int]:
    return {node.dst for node in plan.nodes if node.kind is Kind.FREE}


def _release(svm, plan: Plan, input_addr: int, executed: bool = True) -> None:
    """Free the buffers one single-input run would not leave behind:
    plan temporaries and the input we allocated, minus anything the
    plan already freed. External (non-temp) arrays are left alone.
    A never-executed probe capture (``executed=False``) still holds
    everything, including buffers its FREE nodes would have freed."""
    freed = _freed_bids(plan) if executed else set()
    for bid, buf in plan.buffers.items():
        if bid in freed:
            continue
        if buf.temp or buf.array.ptr.addr == input_addr:
            svm.free(buf.array)


def _capture(svm, pipe, row: np.ndarray):
    """Capture ``pipe`` over a fresh input array; returns
    (plan, input SVMArray, output SVMArray)."""
    data = svm.array(row, dtype=row.dtype)
    lz = PlanBuilder(svm)
    out = pipe(lz, data)
    if out is None:
        raise EngineError(
            "batch pipelines must return their output SVMArray"
        )
    return lz.build(), data, out


def _batchable(plan: Plan, fused) -> bool:
    """Whether a plan batches as one 2D evaluation (the shared
    precondition of the ``"2d"`` and ``"ragged"`` paths).

    Every node kind batches; PACK is *not* rejected here — plans
    containing it are additionally screened by :func:`_ragged_tags`
    and dispatch to the ``"ragged"`` path.

    ScalarFuture operands (enumerate counts, reductions, pack's kept
    count feeding later nodes) are fine when the future is produced by
    an earlier node of the same plan — it becomes a per-row vector —
    and the consumer is an eager EW_VX / CMP_VX node whose ufunc
    broadcasts a column of per-row scalars. Consumers inside fused
    groups (whose kernels resolve the scalar once) and the shift ops
    (whose wrappers coerce the scalar to a plain int) fall back to the
    loop."""
    group_nodes: set[int] = set()
    for u in fused.units:
        if isinstance(u, GroupSpec):
            group_nodes.update(u.node_indices)
    produced: set[ScalarFuture] = set()
    for i, node in enumerate(plan.nodes):
        kind = node.kind
        if isinstance(node.scalar, ScalarFuture):
            if node.scalar not in produced or i in group_nodes:
                return False
            if kind not in (Kind.EW_VX, Kind.CMP_VX):
                return False
            if kind is Kind.EW_VX and node.op in ("p_srl", "p_sll"):
                return False
        if node.future is not None:
            produced.add(node.future)
    return True


#: Kinds that may read a ragged buffer without corrupting its defined
#: prefix: lane-local elementwise work plus the prefix-local scans
#: (lane i of the result depends only on lanes <= i of the inputs), so
#: the first ``kept`` lanes come out identical to the loop path no
#: matter what the undefined tail holds.
_PREFIX_LOCAL = frozenset((
    Kind.EW_VX, Kind.EW_VV, Kind.CMP_VX, Kind.CMP_VV, Kind.GET_FLAGS,
    Kind.SCAN, Kind.SEG_SCAN, Kind.SELECT, Kind.COPY,
))

#: Kinds that overwrite every lane of ``dst`` (from non-ragged inputs
#: they produce a fully-defined buffer, clearing any stale tag).
_FULL_WRITERS = frozenset((
    Kind.CMP_VX, Kind.CMP_VV, Kind.GET_FLAGS, Kind.BACK_PERMUTE,
    Kind.COPY, Kind.INDEX, Kind.ENUMERATE, Kind.SHIFT1UP,
))


def _node_reads(node) -> tuple:
    """Buffer ids whose *contents* influence the node's result —
    including ``dst`` for in-place and partial-write kinds (their
    unwritten or read-modify-written lanes persist)."""
    kind = node.kind
    if kind is Kind.EW_VX or kind is Kind.SCAN:
        return (node.dst,)
    if kind is Kind.EW_VV or kind is Kind.SEG_SCAN:
        return (node.dst, node.operand)
    if kind is Kind.CMP_VX or kind is Kind.GET_FLAGS:
        return (node.src,)
    if kind is Kind.CMP_VV or kind is Kind.PACK:
        return (node.src, node.operand)
    if kind is Kind.SELECT:
        return (node.dst, node.src, node.operand)
    if kind is Kind.PERMUTE:
        return (node.dst, node.src, node.operand)  # scatter: partial dst
    if kind is Kind.BACK_PERMUTE:
        return (node.src, node.operand)
    if kind in (Kind.ENUMERATE, Kind.REDUCE, Kind.SHIFT1UP, Kind.COPY):
        return (node.src,)
    return ()


def _ragged_tags(plan: Plan) -> tuple[bool, dict]:
    """Propagate per-row-length tags through a plan.

    A buffer written by PACK is tagged with the ``pack.kept`` future
    that bounds its defined prefix; prefix-local consumers
    (:data:`_PREFIX_LOCAL`) propagate the tag to their destination.
    Returns ``(ok, tags)`` — ``ok`` is False when a tagged buffer
    reaches a consumer that is not prefix-local (a permute could read
    undefined tail lanes into the defined region; an enumerate or
    reduce would fold undefined lanes into a scalar) or when two
    different length columns meet, in which case only the per-row loop
    is sound and ``tags`` is unreliable."""
    tags: dict[int, ScalarFuture] = {}
    for node in plan.nodes:
        kind = node.kind
        if kind is Kind.FREE:
            tags.pop(node.dst, None)
            continue
        read_tags = {tags[b] for b in _node_reads(node) if b in tags}
        if read_tags:
            if kind not in _PREFIX_LOCAL or len(read_tags) > 1:
                return False, {}
            tags[node.dst] = next(iter(read_tags))
        elif kind is Kind.PACK:
            tags[node.dst] = node.future
        elif kind in _FULL_WRITERS:
            tags.pop(node.dst, None)
    return True, tags


def _bid_of(plan: Plan, array) -> int:
    """The plan buffer id backed by ``array``'s heap address."""
    return next(
        bid for bid, buf in plan.buffers.items()
        if buf.array.ptr.addr == array.ptr.addr
    )


def _out_lengths_future(plan: Plan, out_bid: int):
    """The ``pack.kept`` future bounding the output's defined prefix,
    or None when the output is fully defined (or the plan's ragged
    flow is untrackable)."""
    ok, tags = _ragged_tags(plan)
    return tags.get(out_bid) if ok else None


# ---------------------------------------------------------------------------
# 2D evaluation of one plan over the trailing B-1 rows
# ---------------------------------------------------------------------------

def _mat_getter(plan: Plan, init: dict[int, np.ndarray], b1: int):
    """Lazy [b1, n] matrices per buffer id: the input matrix is
    pre-seeded by the caller; temporaries materialize from their
    pre-execution contents on first touch."""
    mats: dict[int, np.ndarray] = {}

    def get(bid: int) -> np.ndarray:
        mat = mats.get(bid)
        if mat is None:
            mat = np.broadcast_to(init[bid], (b1, init[bid].size)).copy()
            mats[bid] = mat
        return mat

    return mats, get


def _scalar_2d(node, dtype, fvals):
    """A node's scalar operand for the 2D evaluation: a plain wrapped
    scalar, or — when it is a future produced earlier in the plan — a
    ``[b1, 1]`` column of per-row values that broadcasts per row."""
    if isinstance(node.scalar, ScalarFuture):
        return fvals[node.scalar].astype(dtype)[:, None]
    return _wrap(resolve_scalar(node.scalar), dtype)


def _node_2d(plan: Plan, node, mats, get, fvals, m=None, pack_sws=None) -> None:
    """One eager (non-fused) node on a [b, n] matrix.

    ``fvals`` maps each :class:`ScalarFuture` produced by the plan
    (enumerate counts, reductions, pack kept counts) to its per-row
    int64 vector. ``m`` (the machine) and ``pack_sws`` (a list
    collecting each pack node's per-row strips-with-survivors vector
    for the charge correction) are only needed on the ragged path."""
    kind = node.kind
    if kind is Kind.EW_VX:
        view = get(node.dst)
        _UFUNC_VX[node.op](view, _scalar_2d(node, view.dtype, fvals), out=view)
    elif kind is Kind.EW_VV:
        view = get(node.dst)
        _UFUNC_VX[node.op](view, get(node.operand), out=view)
    elif kind is Kind.CMP_VX:
        src = get(node.src)
        out_dtype = plan.buffers[node.dst].dtype
        mats[node.dst] = _NP_CMP[node.op](
            src, _scalar_2d(node, src.dtype, fvals)
        ).astype(out_dtype)
    elif kind is Kind.CMP_VV:
        out_dtype = plan.buffers[node.dst].dtype
        mats[node.dst] = _NP_CMP[node.op](
            get(node.src), get(node.operand)
        ).astype(out_dtype)
    elif kind is Kind.GET_FLAGS:
        src = get(node.src)
        bit = src.dtype.type(resolve_scalar(node.scalar))
        out_dtype = plan.buffers[node.dst].dtype
        mats[node.dst] = ((src >> bit) & src.dtype.type(1)).astype(out_dtype)
    elif kind is Kind.SCAN:
        view = get(node.dst)
        op = get_operator(node.op)
        if node.inclusive:
            op.ufunc.accumulate(view, axis=1, out=view)
        else:
            incl = op.ufunc.accumulate(view, axis=1)
            view[:, 1:] = incl[:, :-1]
            view[:, 0] = _wrap(op.identity(view.dtype), view.dtype)
    elif kind is Kind.SELECT:
        view = get(node.dst)
        np.copyto(view, get(node.src), where=get(node.operand).astype(bool))
    elif kind is Kind.SEG_SCAN:
        # flatten trick: forcing a segment head at every row start makes
        # one 1D segmented pass over the flattened matrix exact — no
        # carry crosses a row boundary (mirror of fast_seg_scan[_exclusive])
        view = get(node.dst)
        op = get_operator(node.op)
        flags = get(node.operand).copy()
        flags[:, 0] = 1
        flat = view.reshape(-1)
        flags_flat = flags.reshape(-1)
        if op.name == "plus":
            incl = segmented_cumsum(flat, flags_flat)
        else:
            incl = segmented_reduce_numpy(flat, flags_flat, op.ufunc)
        if node.inclusive:
            flat[:] = incl
        else:
            heads = flags_flat.astype(bool)
            flat[1:] = incl[:-1]
            flat[heads] = _wrap(op.identity(view.dtype), view.dtype)
    elif kind is Kind.ENUMERATE:
        flags = get(node.src)
        match = flags == flags.dtype.type(1 if node.scalar else 0)
        excl = np.zeros(match.shape, dtype=np.int64)
        if match.shape[1] > 1:
            np.cumsum(match[:, :-1], axis=1, out=excl[:, 1:])
        mats[node.dst] = excl.astype(plan.buffers[node.dst].dtype)
        fvals[node.future] = match.sum(axis=1, dtype=np.int64)
    elif kind is Kind.REDUCE:
        view = get(node.src)
        op = get_operator(node.op)
        init = _wrap(op.identity(view.dtype), view.dtype)
        fvals[node.future] = op.ufunc.reduce(
            view, axis=1, initial=init, dtype=view.dtype
        ).astype(np.int64)
    elif kind is Kind.PERMUTE:
        np.put_along_axis(get(node.dst), get(node.operand).astype(np.int64),
                          get(node.src), axis=1)
    elif kind is Kind.BACK_PERMUTE:
        view = get(node.dst)
        view[:] = np.take_along_axis(
            get(node.src), get(node.operand).astype(np.int64), axis=1
        )
    elif kind is Kind.SHIFT1UP:
        src = get(node.src)
        view = get(node.dst)
        tail = src[:, :-1].copy()  # src and dst may share a matrix
        view[:, 1:] = tail
        view[:, 0] = _wrap(resolve_scalar(node.scalar), view.dtype)
    elif kind is Kind.COPY:
        view = get(node.dst)
        view[:] = get(node.src)
    elif kind is Kind.INDEX:
        view = get(node.dst)
        view[:] = np.arange(view.shape[1], dtype=np.uint64).astype(view.dtype)
    elif kind is Kind.PACK:
        src = get(node.src)
        keep = get(node.operand) != 0
        fvals[node.future] = pack2d(src, keep, get(node.dst))
        vlmax = m.vlmax(sew=sew_for_dtype(src.dtype), lmul=node.lmul)
        pack_sws.append(pack_strip_survivors(keep, vlmax))
    elif kind is Kind.FREE:
        mats.pop(node.dst, None)
    else:  # pragma: no cover - exhaustive over Kind
        raise EngineError(f"cannot batch node kind {kind}")


def _run_bucket_2d(svm, plan: Plan, fused, data, out, rows,
                   ragged: bool = False, out_tag=None):
    """Fast path for one bucket: single-input semantics for row 0 (the
    counter oracle), one 2D NumPy evaluation for the rest.

    Closed-form plans (``ragged=False``) evaluate rows 1+ only and
    charge counters as row 0's delta scaled by the remaining rows. A
    ragged plan (contains pack) evaluates the matrix over *all* rows —
    the masked pack kernel then yields every row's kept count and
    strips-with-survivors in the same pass — and charges rows 1+ as
    the closed-form part of the delta scaled, plus each row's own
    data-dependent pack items, in one ``Counters.add_many`` call.
    Returns ``(outputs, lengths)`` with lengths None for fully-defined
    outputs."""
    m = svm.machine
    b = len(rows)
    b1 = b - 1

    input_bid = _bid_of(plan, data)
    out_bid = _bid_of(plan, out)
    # pre-execution contents of every buffer: temporaries replay from
    # these in rows 1+, exactly as fresh allocations would per loop
    # iteration (captured before row 0 mutates anything)
    init = {
        bid: buf.array.to_numpy()
        for bid, buf in plan.buffers.items()
        if bid != input_bid
    }

    # row 0: the ordinary engine — its counter delta is the per-row
    # closed-form profile of this plan (plus, for ragged plans, row
    # 0's own data-dependent pack items, subtracted again below)
    backend = svm.engine.backend
    before = m.counters.snapshot()
    execute(svm, plan, fused, backend=backend)
    delta = m.counters.snapshot() - before
    outputs = [out.to_numpy()]
    lengths = None

    if b1:
        # native backends fall back to the codegen 2D kernels per unit
        # when the whole plan does not lower; ragged plans always take
        # them, since pack has no 2D C kernel (pack2d is not lowered)
        native = (native_state(svm, plan, fused)
                  if backend in NATIVE_BACKENDS and not ragged else None)
        b_mat = b if ragged else b1
        mats, get = _mat_getter(plan, init, b_mat)
        # rows share (length, dtype): one concatenate is the stack,
        # at a third of np.stack's per-row cost
        mats[input_bid] = np.concatenate(
            rows if ragged else rows[1:]).reshape(b_mat, data.n)
        fvals: dict = {}  # ScalarFuture -> per-row int64 values
        pack_sws: list[np.ndarray] = []  # per pack node: [b] survivor strips
        if native is not None:
            # whole-bucket compiled call: the C kernel loops rows over
            # the same [b, n] matrices the per-unit path would build
            native.run2d(svm, plan, mats, get, fvals, b_mat)
        else:
            for unit in fused.units:
                if isinstance(unit, GroupSpec):
                    fused.compiled.groups[unit].fn2d(
                        plan.nodes, plan.buffers, mats, get)
                else:
                    _node_2d(plan, plan.nodes[unit], mats, get, fvals,
                             m=m, pack_sws=pack_sws)
        out_mat = get(out_bid)
        # ragged matrices carry all b rows (row 0 feeds the charge
        # correction); closed-form matrices carry only rows 1+
        outputs.extend(out_mat[1:] if ragged else out_mat)
        if not ragged:
            for cat, count in delta.by_category.items():
                if count:
                    m.count(cat, count * b1)
        else:
            # exact per-row charge: rows 1+ each owe row 0's delta
            # minus row 0's data-dependent pack items plus their own
            row0_var: dict = {}
            rest_var: dict = {}
            for sws in pack_sws:
                for cat, count in pack_variable_items(sws[0]):
                    row0_var[cat] = row0_var.get(cat, 0) + count
                for cat, count in pack_variable_items(np.sum(sws[1:])):
                    rest_var[cat] = rest_var.get(cat, 0) + count
            items = []
            for cat, count in delta.by_category.items():
                base = count - row0_var.get(cat, 0)
                if base:
                    items.append((cat, base * b1))
            for cat, count in rest_var.items():
                if count:
                    items.append((cat, count))
            m.counters.add_many(items)
            if out_tag is not None:
                kept = fvals[out_tag]
                lengths = [int(out_tag.value)] + [int(v) for v in kept[1:]]
    elif ragged and out_tag is not None:  # pragma: no cover - rows > 1
        lengths = [int(out_tag.value)]

    _release(svm, plan, data.ptr.addr)
    return outputs, lengths


def _run_bucket_loop(svm, pipe, rows, want_lengths: bool = False):
    """Fallback: literally the loop of single-input calls (the
    definitional semantics) — used for strict mode, single rows,
    sub-threshold lengths, and ragged flows no 2D evaluation can
    track. When ``want_lengths``, each row's defined-prefix length is
    read off its plan's resolved ``pack.kept`` future."""
    outputs = []
    lengths: list | None = [] if want_lengths else None
    for row in rows:
        plan, data, out = _capture(svm, pipe, row)
        svm.engine.run(plan)
        outputs.append(out.to_numpy())
        if want_lengths:
            tag = _out_lengths_future(plan, _bid_of(plan, out))
            lengths.append(int(tag.value) if tag is not None else None)
        _release(svm, plan, data.ptr.addr)
    if want_lengths and all(k is None for k in lengths):
        lengths = None
    return outputs, lengths


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _dispatch_bucket(svm, pipe, rows):
    """Run one pre-grouped bucket (all rows share (length, dtype));
    returns (outputs in row order, per-row lengths or None, dispatch
    path). The shared body of :func:`run_batch` and
    :func:`run_bucket`.

    Path choice: plans without pack take ``"2d"``; plans with pack
    take ``"ragged"`` when the registry declares the recipe
    (``get_spec("pack").ragged2d``) and every packed buffer stays in
    prefix-local flow; everything else — strict mode, single rows,
    sub-threshold lengths, future operands :func:`_batchable` rejects,
    untrackable ragged flow — takes ``"loop"``."""
    n = rows[0].size
    plan, data, out = _capture(svm, pipe, rows[0])
    fused = svm.engine.fused_for(plan)
    out_bid = _bid_of(plan, out)
    has_pack = any(node.kind is Kind.PACK for node in plan.nodes)
    ragged_ok = False
    out_tag = None
    if has_pack:
        ok, tags = _ragged_tags(plan)
        ragged_ok = ok and get_spec("pack").ragged2d
        out_tag = tags.get(out_bid) if ok else None
    use_mat = (len(rows) > 1 and svm._fast(n) and _batchable(plan, fused)
               and (not has_pack or ragged_ok))
    path = ("ragged" if has_pack else "2d") if use_mat else "loop"
    col = getattr(svm.machine, "collector", None)
    ctx = col.span("batch_bucket", rows=len(rows), n=int(n), path=path) \
        if col is not None else nullcontext()
    with ctx:
        if col is not None:
            col.batch_event(len(rows), int(n), path)
        if use_mat:
            outputs, lengths = _run_bucket_2d(
                svm, plan, fused, data, out, rows,
                ragged=has_pack, out_tag=out_tag,
            )
        else:
            # release the probe capture's buffers and replay the
            # definitional loop from scratch for every row
            _release(svm, plan, data.ptr.addr, executed=False)
            outputs, lengths = _run_bucket_loop(
                svm, pipe, rows, want_lengths=has_pack)
    return outputs, lengths, path


def run_bucket(svm, pipe, rows, *, dtype=np.uint32) -> BatchResult:
    """Run ``pipe`` over rows that are *already grouped*: every row
    must share one (length, dtype) pair, so no bucketing pass runs.

    This is the serving daemon's entry point: its coalescer groups
    concurrent requests by (pipeline, n, dtype) up front, so each
    flush maps to exactly one bucket dispatch. Semantics are those of
    :func:`run_batch` restricted to a single bucket — results and
    per-category counters identical to looping single calls.
    """
    arrays = [
        x if isinstance(x, np.ndarray) else np.asarray(x, dtype=dtype)
        for x in rows
    ]
    result = BatchResult()
    if not arrays:
        return result
    n, dt = arrays[0].size, arrays[0].dtype
    for arr in arrays:
        if arr.ndim != 1:
            raise EngineError(f"batch inputs are 1-D, got shape {arr.shape}")
        if arr.size != n or arr.dtype != dt:
            raise EngineError(
                "run_bucket rows must share one (length, dtype): "
                f"expected ({n}, {dt}), got ({arr.size}, {arr.dtype})"
            )
    outputs, lengths, path = _dispatch_bucket(svm, pipe, arrays)
    result.outputs = outputs
    result.lengths = list(lengths) if lengths is not None \
        else [None] * len(outputs)
    result.buckets.append(
        BatchBucket(int(n), np.dtype(dt).name, len(arrays), path,
                    tuple(range(len(arrays))),
                    tuple(lengths) if lengths is not None else None)
    )
    return result


def run_batch(svm, pipe, inputs, *, dtype=np.uint32) -> BatchResult:
    """Run ``pipe`` over every input through one cached plan per
    length bucket.

    ``pipe(lz, data)`` receives a capture proxy and the input
    :class:`~repro.svm.context.SVMArray` and must return its output
    array (returning ``data`` for in-place pipelines is fine). Inputs
    are bucketed by ``(length, dtype)`` — the vl strip sequence, and
    with it the whole instruction profile, depends only on those — and
    each bucket runs the 2D fast path when the captured plan is fully
    closed-form and the fast path applies at its length, else the
    per-row loop. Results and per-category counters are identical to
    looping single calls either way.
    """
    arrays = [
        x if isinstance(x, np.ndarray) else np.asarray(x, dtype=dtype)
        for x in inputs
    ]
    result = BatchResult(outputs=[None] * len(arrays),
                         lengths=[None] * len(arrays))
    if not arrays:
        return result

    buckets: dict[tuple[int, object], list[int]] = {}
    for i, arr in enumerate(arrays):
        if arr.ndim != 1:
            raise EngineError(f"batch inputs are 1-D, got shape {arr.shape}")
        buckets.setdefault((arr.size, arr.dtype), []).append(i)

    for (n, dt), indices in buckets.items():
        rows = [arrays[i] for i in indices]
        outputs, lengths, path = _dispatch_bucket(svm, pipe, rows)
        for j, (i, arr_out) in enumerate(zip(indices, outputs)):
            result.outputs[i] = arr_out
            if lengths is not None:
                result.lengths[i] = lengths[j]
        result.buckets.append(
            BatchBucket(int(n), np.dtype(dt).name, len(rows), path,
                        tuple(indices),
                        tuple(lengths) if lengths is not None else None)
        )
    return result
