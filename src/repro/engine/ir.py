"""Operation-graph IR for the lazy execution engine.

A :class:`Plan` is a straight-line list of :class:`OpNode` records over
a table of :class:`Buffer` handles. Buffers wrap live
:class:`~repro.svm.context.SVMArray` objects — the engine defers
*execution*, not allocation, so capture is cheap and plans always bind
to concrete simulated memory.

Node kinds split into three classes:

* **fusable** kinds (:data:`Kind.EW_VX`, :data:`Kind.EW_VV`,
  :data:`Kind.CMP_VX`, :data:`Kind.CMP_VV`, :data:`Kind.GET_FLAGS`,
  :data:`Kind.SCAN`) carry enough structure for
  :mod:`repro.engine.fuse` to merge them into single strip loops;
* **structured replay** kinds (:data:`Kind.SELECT`,
  :data:`Kind.PERMUTE`, :data:`Kind.BACK_PERMUTE`, :data:`Kind.PACK`,
  :data:`Kind.ENUMERATE`, :data:`Kind.SEG_SCAN`, :data:`Kind.REDUCE`,
  :data:`Kind.SHIFT1UP`, :data:`Kind.COPY`, :data:`Kind.INDEX`) are
  never merged into a strip loop, but their operands are typed buffer
  slots, so dataflow analysis, whole-plan codegen and the batch
  runner's 2D path all see through them — every primitive in the
  :mod:`repro.svm.opspec` registry captures as one of these;
* :data:`Kind.FREE` releases a buffer's simulated memory.

The set is closed: capture records no call outside the registry (an
unregistered method raises ``AttributeError`` on the recorder), and
``tools/check_opspec.py`` fails when a kind is left that no registered
op records.

Data-dependent scalar results (the count returned by ``enumerate`` or
``pack``, the value of ``reduce``) become :class:`ScalarFuture`
placeholders at capture time and are resolved during execution.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ReproError
from ..rvv.types import LMUL
from ..svm.opspec import SIGNATURES

__all__ = ["Kind", "Buffer", "OpNode", "Plan", "ScalarFuture", "EngineError"]


class EngineError(ReproError):
    """An invalid engine operation (unresolved future, bad capture)."""


class ScalarFuture:
    """A scalar produced by a deferred operation (e.g. the survivor
    count of ``pack``), resolved when the plan executes."""

    __slots__ = ("_value", "_resolved", "label")

    def __init__(self, label: str = "scalar") -> None:
        self._value: int = 0
        self._resolved = False
        self.label = label

    def resolve(self, value: int) -> None:
        self._value = int(value)
        self._resolved = True

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def value(self) -> int:
        """The resolved value; raises until the plan has executed."""
        if not self._resolved:
            raise EngineError(
                f"ScalarFuture {self.label!r} read before the plan executed; "
                "futures resolve when the lazy block exits"
            )
        return self._value

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self._value if self._resolved else "unresolved"
        return f"ScalarFuture({self.label!r}, {state})"


def resolve_scalar(x) -> int:
    """Resolve an int-or-future operand at execution time."""
    if isinstance(x, ScalarFuture):
        return x.value
    return int(x)


class Kind(enum.Enum):
    """Node kinds understood by the fuser and executor."""

    #: In-place vector-scalar elementwise op: ``dst[i] = dst[i] ∘ x``.
    EW_VX = "ew_vx"
    #: In-place vector-vector elementwise op: ``dst[i] = dst[i] ∘ b[i]``.
    EW_VV = "ew_vv"
    #: Flag compare against a scalar: ``dst[i] = (src[i] ⋈ x)``.
    CMP_VX = "cmp_vx"
    #: Flag compare against a vector: ``dst[i] = (src[i] ⋈ b[i])``.
    CMP_VV = "cmp_vv"
    #: Bit extraction: ``dst[i] = (src[i] >> bit) & 1``.
    GET_FLAGS = "get_flags"
    #: In-place inclusive/exclusive ⊕-scan of ``dst``.
    SCAN = "scan"
    #: Flag merge into ``dst``: ``dst[i] = src[i] where operand[i]``.
    SELECT = "select"
    #: Scatter: ``dst[operand[i]] = src[i]``.
    PERMUTE = "permute"
    #: Gather: ``dst[i] = src[operand[i]]``.
    BACK_PERMUTE = "back_permute"
    #: Stream compaction of ``src`` under flags ``operand`` into
    #: ``dst``; resolves ``future`` with the survivor count.
    PACK = "pack"
    #: Rank positions of ``src`` whose flag equals ``scalar``;
    #: resolves ``future`` with the total count.
    ENUMERATE = "enumerate"
    #: In-place segmented ⊕-scan of ``dst`` under head flags
    #: ``operand``.
    SEG_SCAN = "seg_scan"
    #: Full ⊕-reduction of ``src``; resolves ``future``.
    REDUCE = "reduce"
    #: Whole-array shift: ``dst[0] = scalar``, ``dst[i] = src[i-1]``.
    SHIFT1UP = "shift1up"
    #: Vector memcpy ``dst[:] = src``.
    COPY = "copy"
    #: Index vector: ``dst[i] = i``.
    INDEX = "index"
    #: Release a buffer's simulated memory.
    FREE = "free"


#: Kinds whose only effect is writing their dst buffer (no futures, no
#: allocation) — safe to delete when the dst value is provably dead.
PURE_KINDS = frozenset(
    {Kind.EW_VX, Kind.EW_VV, Kind.CMP_VX, Kind.CMP_VV, Kind.GET_FLAGS, Kind.SCAN}
)


#: Kinds that read their dst before writing it: the ``"rw"`` entries
#: of the registry's signature table.
READS_DST = frozenset(Kind(kind) for kind, sig in SIGNATURES.items()
                      if sig.dst == "rw")


@dataclass(slots=True)
class Buffer:
    """One SVM array participating in a plan."""

    bid: int
    n: int
    dtype: np.dtype
    array: Any  # SVMArray (untyped to avoid an import cycle)
    #: Allocated by the recorder inside the lazy block (DCE candidate
    #: once it is also freed inside the plan).
    temp: bool = False


@dataclass(slots=True)
class OpNode:
    """One recorded operation.

    Which of ``dst``, ``src``, ``operand``, ``scalar`` and ``op`` a
    kind uses, in which order its kernels take them, and how it writes
    ``dst`` is its entry in :data:`repro.svm.opspec.SIGNATURES` (the
    :class:`Kind` docs say what each computes). ``op`` names the kernel
    of the kinds several ops share (``p_add``; a compare's relation,
    ``lt``) and the ⊕ operator of the scans and reduce; ``inclusive``
    picks a scan's variant; ``future`` is the scalar a pack, enumerate
    or reduce produces. FREE uses ``dst`` alone.
    """

    kind: Kind
    op: str = ""
    dst: int | None = None
    src: int | None = None
    operand: int | None = None
    scalar: Any = None  # int | ScalarFuture
    lmul: LMUL = LMUL.M1
    inclusive: bool = True
    future: ScalarFuture | None = None

    # -- dataflow ----------------------------------------------------------
    def buffers_read(self) -> set[int]:
        """Buffer ids whose *contents* influence this node's result.

        That includes ``dst`` for the kinds whose signature reads it
        (:data:`READS_DST`): an in-place elementwise node or scan reads
        it, a select keeps the unselected lanes, and a permute's
        scatter leaves the lanes it does not hit. For a fused in-place
        node the dst read is implicit in the accumulator, so dst membership here is what the
        *eager* kernel touches; the fuser applies its own, stricter
        notion (see :mod:`repro.engine.fuse`).
        """
        reads: set[int] = set()
        if self.kind in READS_DST:
            reads.add(self.dst)
        if self.src is not None:
            reads.add(self.src)
        if self.operand is not None:
            reads.add(self.operand)
        return reads

    def buffers_written(self) -> set[int]:
        """Buffer ids this node may write."""
        if self.kind is Kind.FREE:
            return set()
        return {self.dst} if self.dst is not None else set()


class Plan:
    """A captured straight-line operation graph over SVM buffers.

    ``alpha`` is the α-renaming record :class:`~repro.engine.capture.
    PlanBuilder` keeps while it captures (see :meth:`_alpha`; the
    builder hands out buffer ids in slot order, so a captured plan's
    ids are its slots); a plan built by hand passes none and walks its
    nodes once, on the first key request. Whoever mutates a node after that must call
    :meth:`invalidate`.
    """

    def __init__(self, buffers: dict[int, Buffer], nodes: list[OpNode],
                 alpha: tuple | None = None) -> None:
        self.buffers = buffers
        self.nodes = nodes
        self._memo = alpha

    # -- cache key ---------------------------------------------------------
    def _alpha(self) -> tuple[list[Buffer], tuple, tuple]:
        """The α-renaming behind :meth:`signature` and
        :meth:`fingerprint`: buffers get slots in first-use order over
        each node's dst, src and operand. Returns the buffers in slot
        order, one ``(slot, n, dtype str, temp)`` tuple per buffer and
        one tuple per node — ``(kind, op, inclusive, dst, src, operand,
        has_scalar, lmul)`` with slots in place of buffer ids; LMUL is
        last so the fingerprint can drop it. A captured plan returns
        the record its builder kept; otherwise this walks the nodes
        and keeps the result.
        """
        if self._memo is not None:
            return self._memo
        slots: dict[int, int] = {}

        def slot(bid: int | None):
            if bid is None:
                return None
            if bid not in slots:
                slots[bid] = len(slots)
            return slots[bid]

        node_sig = tuple(
            (
                node.kind.value,
                node.op,
                node.inclusive,
                slot(node.dst),
                slot(node.src),
                slot(node.operand),
                node.scalar is not None,
                int(node.lmul),
            )
            for node in self.nodes
        )
        bufs = [self.buffers[bid] for bid in slots]
        buf_sig = tuple(
            (s, b.n, b.dtype.str, b.temp) for s, b in enumerate(bufs)
        )
        self._memo = bufs, buf_sig, node_sig
        return self._memo

    def invalidate(self) -> None:
        """Drop the kept record after a node was mutated (the tuning
        policy's LMUL retag); the next key request walks the nodes."""
        self._memo = None

    def signature(self, vlen: int, codegen: str) -> tuple:
        """A hashable structural key: node shapes with buffers α-renamed
        in first-use order, plus everything planning depends on —
        (per-buffer n and SEW, per-node LMUL, VLEN, codegen preset).
        Scalar *values* are excluded: the same pipeline over different
        constants shares one plan.
        """
        _, buf_sig, node_sig = self._alpha()
        return (int(vlen), str(codegen), buf_sig, node_sig)

    def fingerprint(self) -> str:
        """A stable hex digest identifying the *pipeline*, independent
        of the tuning axes: unlike :meth:`signature` it excludes
        per-node LMUL, per-buffer length, VLEN, and the codegen preset
        — exactly the knobs ``repro tune`` sweeps. Two plans share a
        fingerprint iff they are the same α-renamed node structure over
        buffers of the same dtypes, so one TuningDB entry covers every
        problem size of a pipeline (n enters the policy key as a size
        bucket instead).
        """
        _, buf_sig, node_sig = self._alpha()
        fp_bufs = tuple((s, dt, temp) for s, _, dt, temp in buf_sig)
        blob = repr((fp_bufs, tuple(t[:-1] for t in node_sig))).encode()
        return hashlib.sha256(blob).hexdigest()

    def max_n(self) -> int:
        """The largest buffer length the plan touches — the problem
        size the tuning policy buckets on."""
        return max((b.n for b in self.buffers.values()), default=0)

    # -- inspection --------------------------------------------------------
    def describe(self) -> str:
        """Human-readable node listing (the ``repro fuse`` dump)."""
        lines = [f"plan: {len(self.nodes)} nodes, {len(self.buffers)} buffers"]
        for i, node in enumerate(self.nodes):
            lines.append(f"  [{i:>2}] {_describe_node(self, node)}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.nodes)


def _bname(plan: Plan, bid: int | None) -> str:
    if bid is None:
        return "?"
    b = plan.buffers[bid]
    tag = "t" if b.temp else "b"
    return f"{tag}{bid}[{b.n}]"


def _describe_node(plan: Plan, node: OpNode) -> str:
    lm = f" lmul={int(node.lmul)}"
    if node.kind is Kind.EW_VX:
        return f"{node.op}.vx   {_bname(plan, node.dst)} ∘= {node.scalar!r}{lm}"
    if node.kind is Kind.EW_VV:
        return f"{node.op}.vv   {_bname(plan, node.dst)} ∘= {_bname(plan, node.operand)}{lm}"
    if node.kind is Kind.CMP_VX:
        return (f"p_{node.op}.vx   {_bname(plan, node.dst)} = "
                f"({_bname(plan, node.src)} {node.op} {node.scalar!r}){lm}")
    if node.kind is Kind.CMP_VV:
        return (f"p_{node.op}.vv   {_bname(plan, node.dst)} = "
                f"({_bname(plan, node.src)} {node.op} {_bname(plan, node.operand)}){lm}")
    if node.kind is Kind.GET_FLAGS:
        return (f"get_flags  {_bname(plan, node.dst)} = "
                f"({_bname(plan, node.src)} >> {node.scalar!r}) & 1{lm}")
    if node.kind is Kind.SCAN:
        word = "scan" if node.inclusive else "scan_excl"
        return f"{word}({node.op})  {_bname(plan, node.dst)} in place{lm}"
    if node.kind is Kind.SELECT:
        return (f"p_select   {_bname(plan, node.dst)} = {_bname(plan, node.src)}"
                f" where {_bname(plan, node.operand)}{lm}")
    if node.kind is Kind.PERMUTE:
        return (f"permute    {_bname(plan, node.dst)}[{_bname(plan, node.operand)}]"
                f" = {_bname(plan, node.src)}{lm}")
    if node.kind is Kind.BACK_PERMUTE:
        return (f"back_permute {_bname(plan, node.dst)} = "
                f"{_bname(plan, node.src)}[{_bname(plan, node.operand)}]{lm}")
    if node.kind is Kind.PACK:
        return (f"pack       {_bname(plan, node.dst)}, kept = "
                f"pack({_bname(plan, node.src)}, {_bname(plan, node.operand)}){lm}")
    if node.kind is Kind.ENUMERATE:
        return (f"enumerate  {_bname(plan, node.dst)}, count = "
                f"enumerate({_bname(plan, node.src)}, set={node.scalar!r}){lm}")
    if node.kind is Kind.SEG_SCAN:
        word = "seg_scan" if node.inclusive else "seg_scan_excl"
        return (f"{word}({node.op})  {_bname(plan, node.dst)} by "
                f"{_bname(plan, node.operand)} in place{lm}")
    if node.kind is Kind.REDUCE:
        return f"reduce({node.op})  {_bname(plan, node.src)} → scalar{lm}"
    if node.kind is Kind.SHIFT1UP:
        return (f"shift1up   {_bname(plan, node.dst)} = [{node.scalar!r}] + "
                f"{_bname(plan, node.src)}[:-1]{lm}")
    if node.kind is Kind.COPY:
        return f"copy       {_bname(plan, node.dst)} = {_bname(plan, node.src)}{lm}"
    if node.kind is Kind.INDEX:
        return f"index      {_bname(plan, node.dst)} = [0..n){lm}"
    if node.kind is Kind.FREE:
        return f"free       {_bname(plan, node.dst)}"
    raise EngineError(f"cannot describe node kind {node.kind}")
