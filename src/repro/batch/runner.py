"""Batched plan execution: one fused plan, many independent inputs.

The paper's primitives are data-oblivious in their instruction counts
(§3, Tables 2-4): the vl strip sequence — and therefore every closed-
form charge — depends only on (n, VLEN, SEW, LMUL), never on element
values. That is what makes batching sound: a cached
:class:`~repro.engine.fuse.FusedPlan` evaluated over B same-length
inputs performs B identical instruction streams, so the batch can

* capture and resolve row 0 as the probe, then execute the *data* of
  all B rows through the engine's one unit loop
  (:func:`repro.engine.executor.run_units`, the loop an all-fast
  single call runs on memory views) — or the plan's compiled C kernel
  on the native backend — on ``[B, n]`` matrices (batch axis ×
  element axis), and
* charge the *counters* as B times the plan's static closed-form
  profile (``FusedPlan.charge_items``, computed when the plan
  compiles) — exact, because integer scaling of an identical per-row
  profile is exact.

The result is bit- and counter-identical to looping the single-input
path, which stays the definitional semantics. This module keeps only
what is batch-specific:

* bucketing: variable-length batches are split into length buckets
  first (the vl sequence depends only on n, so only same-(n, dtype)
  rows may share a plan);
* seeding the matrices (:class:`Rows`): the input matrix, every other
  buffer's pre-execution contents, and
  :class:`~repro.engine.ir.ScalarFuture` values produced inside the
  plan (enumerate counts, reductions, pack's kept count) threaded
  through as per-row vectors;
* the screens: plans containing ``pack`` — the one op whose charge and
  output length are data-dependent — take the ``"ragged"`` path when
  every packed buffer stays in prefix-local flow (:func:`_ragged_tags`):
  still one 2D evaluation, with pack's body compacting every row, a
  per-row-lengths column on the result
  (:class:`~repro.batch.ragged.RaggedBatch`), and each row's own
  data-dependent pack items charged on top of the profile; strict
  mode, sub-threshold lengths, plans :func:`_batchable` rejects (a
  future feeding a consumer the 2D path cannot broadcast, a write to
  an array the pipeline did not allocate) and untrackable ragged flow
  fall back to literally looping the single-input path.

See ``docs/batching.md`` for the API, the bucketing rule, and the
ragged representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from ..engine.capture import PlanBuilder
from ..engine.executor import (
    all_fast,
    charge_runs,
    execute,
    native_for,
    run_units,
)
from ..engine.fuse import GroupSpec
from ..engine.ir import EngineError, Kind, Plan, ScalarFuture, resolve_scalar
from ..obs.spans import NULL_SPAN
from ..svm.fastpath import _wrap
from ..svm.opspec import SIGNATURES
from .ragged import RaggedBatch

__all__ = ["BatchBucket", "BatchResult", "Rows", "run_batch"]

#: A batch row's bucket key.
_SHAPE_DTYPE = attrgetter("shape", "dtype")
#: dtype -> ``dtype.name``, a Python-level property NumPy recomputes
#: on every read.
_DTYPE_NAME: dict[np.dtype, str] = {}


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

        Requires all outputs to share one length (one bucket, as in a
        serve flush). Rows without a lengths entry are fully
        defined."""
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


def _release(svm, lz: PlanBuilder, data) -> None:
    """Free what one single-input run would not leave behind: every
    temporary the capture ``lz`` allocated and the input we allocated,
    each if still live (its plan's FREE nodes may have released it).
    External (non-temp) arrays are left alone."""
    lz.free_temps()
    if svm.machine.heap.is_live(data.ptr.addr):
        svm.free(data)


def _capture(svm, pipe, row: np.ndarray):
    """Capture ``pipe`` over a fresh input array and resolve its plan
    through the plan cache; returns (the recorder, whose plan is
    ``lz.plan``, the input SVMArray, the output SVMArray, the fused
    plan)."""
    data = svm.array(row, dtype=row.dtype)
    lz = PlanBuilder(svm)
    try:
        out = pipe(lz, data)
        if out is None:
            raise EngineError(
                "batch pipelines must return their output SVMArray"
            )
        lz.build()
        fused = svm.engine.fused_for(lz.plan)
    except BaseException:
        # like a raising lazy block: free what the capture allocated
        _release(svm, lz, data)
        raise
    return lz, data, out, fused


def _writes_outside(plan: Plan, input_bid: int) -> bool:
    """Whether a node writes (or frees) an array the pipeline did not
    allocate: neither the input nor a capture temporary. The matrices
    write copies, so such a write, which a loop of single calls repeats
    per row, would be lost; these plans take the loop."""
    return any(node.dst not in (None, input_bid)
               and not plan.buffers[node.dst].temp for node in plan.nodes)


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
    (whose ufuncs, ``_srl``/``_sll``, take the shift amount through
    ``int(x)``) fall back to the loop."""
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

#: Kinds that overwrite every lane of ``dst``, the ``"w"`` entries of
#: the registry's signature table (from non-ragged inputs they produce
#: a fully-defined buffer, clearing any stale tag).
_FULL_WRITERS = frozenset(Kind(kind) for kind, sig in SIGNATURES.items()
                          if sig.dst == "w")


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
        read_tags = {tags[b] for b in node.buffers_read() if b in tags}
        if read_tags:
            if kind not in _PREFIX_LOCAL or len(read_tags) > 1:
                return False, {}
            tags[node.dst] = next(iter(read_tags))
        elif kind is Kind.PACK:
            tags[node.dst] = node.future
        elif kind in _FULL_WRITERS:
            tags.pop(node.dst, None)
    return True, tags


# ---------------------------------------------------------------------------
# the matrices of a bucket's B rows
# ---------------------------------------------------------------------------

class Rows(dict):
    """Buffer id -> ``[b, n]`` matrix of a bucket's B rows: the unit
    loop's arrays (:func:`repro.engine.executor.run_units`) and the
    native kernel's (:meth:`~repro.engine.native.NativePlan.run2d`)
    for a batch. The caller seeds the input matrix; every other buffer
    materializes on first touch from its pre-execution contents
    ``init``, or uninitialized for a node that overwrites every lane
    (``fresh``). A future a node produces becomes a per-row int64
    vector in ``fvals`` and reads back as a ``[b, 1]`` column that
    broadcasts per row."""

    __slots__ = ("buffers", "init", "b", "fvals", "sws")

    def __init__(self, buffers: dict, init: dict, b: int) -> None:
        super().__init__()
        self.buffers = buffers
        self.init = init
        self.b = b
        self.fvals: dict = {}
        #: Pack strips that held a survivor, summed over the rows.
        self.sws = 0

    def __missing__(self, bid: int) -> np.ndarray:
        init = self.init[bid]
        mat = self[bid] = np.broadcast_to(init, (self.b, init.size)).copy()
        return mat

    def fresh(self, bid: int) -> np.ndarray:
        buf = self.buffers[bid]
        mat = self[bid] = np.empty((self.b, buf.n), buf.dtype)
        return mat

    store = dict.__setitem__

    def free(self, bid: int) -> None:
        self.pop(bid, None)

    def scalar(self, node, dtype):
        if isinstance(node.scalar, ScalarFuture):
            return self.fvals[node.scalar].astype(dtype)[:, None]
        return _wrap(resolve_scalar(node.scalar), dtype)

    def produce(self, node, value) -> None:
        self.fvals[node.future] = np.asarray(value).astype(np.int64)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _dispatch_bucket(svm, pipe, rows):
    """Run one bucket (all rows share (length, dtype)); returns
    (outputs in row order, per-row lengths or None, dispatch path).

    Row 0 is the probe on every path: captured once and resolved
    through the plan cache once. Plans without pack then take ``"2d"``
    and plans with pack take ``"ragged"`` — one evaluation of all B
    rows as ``[B, n]`` matrices (the plan's C kernel on the native
    backend), charged the plan's static profile (``fused.charge_items``)
    per row plus pack's own survivor-strip items — when every packed
    buffer stays in prefix-local flow. Everything else — strict mode,
    single rows, sub-threshold lengths, plans :func:`_batchable`
    rejects, untrackable ragged flow, writes :func:`_writes_outside`
    finds, a plan that holds no buffer for the input or the output —
    takes ``"loop"``: one single-input call per row, row 0 on its
    probe."""
    n = rows[0].size
    lz, data, out, fused = _capture(svm, pipe, rows[0])
    plan = lz.plan
    # heap address -> the first buffer id backed by it
    bid_at = {buf.array.ptr.addr: bid
              for bid, buf in reversed(plan.buffers.items())}
    input_bid = bid_at.get(data.ptr.addr)
    out_bid = bid_at.get(out.ptr.addr)
    has_pack = any(node.kind is Kind.PACK for node in plan.nodes)
    ragged_ok = True
    out_tag = None
    if has_pack:
        ragged_ok, tags = _ragged_tags(plan)
        out_tag = tags.get(out_bid)
    use_mat = (len(rows) > 1 and input_bid is not None and out_bid is not None
               and all_fast(svm, fused) and _batchable(plan, fused)
               and ragged_ok and not _writes_outside(plan, input_bid))
    path = ("ragged" if has_pack else "2d") if use_mat else "loop"
    backend = svm.engine.backend
    col = getattr(svm.machine, "collector", None)
    ctx = col.span("batch_bucket", rows=len(rows), n=int(n), path=path) \
        if col is not None else NULL_SPAN
    with ctx:
        if col is not None:
            col.batch_event(len(rows), int(n), path)
        if use_mat:
            # pre-execution contents of every buffer: each row's
            # matrix replays from these, exactly as fresh allocations
            # would per loop iteration; then the probe's arrays go
            init = {bid: buf.array.to_numpy()
                    for bid, buf in plan.buffers.items() if bid != input_bid}
            _release(svm, lz, data)
            # rows share (length, dtype): one concatenate is the stack,
            # at a third of np.stack's per-row cost
            mats = Rows(plan.buffers, init, len(rows))
            mats[input_bid] = np.concatenate(rows).reshape(len(rows), n)
            native = native_for(svm, plan, fused, backend)
            if native is not None:
                native.run2d(svm, plan, mats)
            else:
                run_units(plan, fused, mats, svm.machine)
            charge_runs(svm.machine, fused, len(rows), mats.sws)
            outputs = list(mats[out_bid])
            lengths = None if out_tag is None else mats.fvals[out_tag].tolist()
        else:
            tag_node = None if out_tag is None else next(
                i for i, node in enumerate(plan.nodes)
                if node.future is out_tag)
            outputs = []
            lengths = None if tag_node is None else []
            for i, row in enumerate(rows):
                if i:
                    lz, data, out, fused = _capture(svm, pipe, row)
                try:
                    execute(svm, lz.plan, fused, backend=backend)
                    outputs.append(out.to_numpy())
                    if tag_node is not None:
                        lengths.append(int(lz.plan.nodes[tag_node].future.value))
                finally:
                    _release(svm, lz, data)
    return outputs, lengths, path


def run_batch(svm, pipe, inputs, *, dtype=np.uint32) -> BatchResult:
    """Run ``pipe`` over every input through one cached plan per
    length bucket.

    ``pipe(lz, data)`` receives a capture proxy and the input
    :class:`~repro.svm.context.SVMArray` and must return its output
    array (returning ``data`` for in-place pipelines is fine). Inputs
    are bucketed by ``(length, dtype)`` — the vl strip sequence, and
    with it the whole instruction profile, depends only on those — and
    each bucket runs the 2D fast path when the captured plan batches and
    the fast path applies at its length, else the per-row loop (see
    :func:`_dispatch_bucket`). Results and per-category counters are
    identical to looping single calls either way. The serving daemon's
    flushes arrive pre-grouped, so each is exactly one bucket.
    """
    arrays = [
        x if isinstance(x, np.ndarray) else np.asarray(x, dtype=dtype)
        for x in inputs
    ]
    result = BatchResult(outputs=[None] * len(arrays),
                         lengths=[None] * len(arrays))
    if not arrays:
        return result

    # one pass over the rows: a row's key is its (shape, dtype), and
    # its shape carries both its rank and its length
    buckets: dict[tuple, list[int]] = {}
    for i, key in enumerate(map(_SHAPE_DTYPE, arrays)):
        indices = buckets.get(key)
        if indices is None:
            buckets[key] = [i]
        else:
            indices.append(i)
    for shape, _ in buckets:
        if len(shape) != 1:
            raise EngineError(f"batch inputs are 1-D, got shape {shape}")

    outs, lens = result.outputs, result.lengths
    for ((n,), dt), indices in buckets.items():
        rows = list(map(arrays.__getitem__, indices))
        outputs, lengths, path = _dispatch_bucket(svm, pipe, rows)
        for i, arr_out in zip(indices, outputs):
            outs[i] = arr_out
        if lengths is not None:
            for i, k in zip(indices, lengths):
                lens[i] = k
        name = _DTYPE_NAME.get(dt)
        if name is None:
            name = _DTYPE_NAME[dt] = dt.name
        result.buckets.append(
            BatchBucket(n, name, len(rows), path, tuple(indices),
                        tuple(lengths) if lengths is not None else None)
        )
    return result
