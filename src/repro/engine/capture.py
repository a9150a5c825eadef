"""Deferred recording of SVM pipelines into a :class:`Plan`.

:class:`PlanBuilder` mirrors the :class:`~repro.svm.context.SVM`
surface. Every primitive in the :mod:`repro.svm.opspec` registry
records a *structured* node — the fusable kinds (in-place elementwise,
flag compares, ``get_flags``, scans) plus the typed replay kinds
(``permute``, ``pack``, ``enumerate``, ``seg_scan``, ``p_select``,
``reduce``, ``shift1up``, ``copy``, ``index_array``). Structured nodes
expose their operands as buffer slots, so whole-plan codegen and the
batch runner's 2D path see through them. There is no fallback node: a
call outside the registry raises ``AttributeError`` at capture. The
composites ``split`` and ``reverse`` lower to their constituent
primitives at capture time, so a captured radix-sort round is
structured end to end.

Allocation is eager (``empty``/``zeros``/``array`` hand back live
SVMArrays immediately, marked as plan temporaries); only *execution*
is deferred. Data-dependent scalar results (the counts of ``pack`` and
``enumerate``, the value of ``reduce``) come back as
:class:`~repro.engine.ir.ScalarFuture` placeholders, usable as scalar
operands of later recorded ops and resolved when the plan executes.

The usual entry point is ``with svm.lazy() as lz:`` (see
:meth:`repro.svm.context.SVM.lazy`), which builds and executes the
plan on block exit; an explicit PlanBuilder plus
:meth:`PlanBuilder.build` and :meth:`~repro.engine.executor.Engine.run`
gives manual control.
"""

from __future__ import annotations

import numpy as np

from ..rvv.types import LMUL
from ..svm.context import SVMArray
from ..svm.operators import PLUS, BinaryOp, get_operator
from .ir import Buffer, Kind, OpNode, Plan, ScalarFuture

__all__ = ["PlanBuilder"]

#: dtype -> ``dtype.str``: the property builds a new string on every
#: read, and the key needs one per buffer per capture.
_DTYPE_STR: dict[np.dtype, str] = {}


class PlanBuilder:
    """Records SVM calls into a :class:`Plan` instead of executing them."""

    def __init__(self, svm) -> None:
        self.svm = svm
        self._buffers: dict[int, Buffer] = {}
        self._by_addr: dict[int, int] = {}
        self._nodes: list[OpNode] = []
        # the α-renaming record Plan._alpha would otherwise walk for:
        # buffer id -> slot in first-use order, the buffers and their
        # key tuples in slot order, one key tuple per node
        self._slots: dict[int, int] = {}
        self._alpha_bufs: list[Buffer] = []
        self._buf_sig: list[tuple] = []
        self._node_sig: list[tuple] = []
        #: Set by :meth:`build` / :meth:`SVM.lazy` on completion.
        self.plan: Plan | None = None
        self.fused = None

    # ------------------------------------------------------------------
    # buffer registry
    # ------------------------------------------------------------------
    def _bid(self, arr: SVMArray, temp: bool = False) -> int:
        addr = arr.ptr.addr
        bid = self._by_addr.get(addr)
        if bid is None:
            bid = len(self._buffers)
            self._buffers[bid] = Buffer(bid, arr.n, arr.dtype, arr, temp=temp)
            self._by_addr[addr] = bid
        return bid

    def _new_slot(self, bid: int) -> int:
        s = self._slots[bid] = len(self._alpha_bufs)
        buf = self._buffers[bid]
        self._alpha_bufs.append(buf)
        dt = buf.dtype
        dts = _DTYPE_STR.get(dt)
        if dts is None:
            dts = _DTYPE_STR[dt] = dt.str
        self._buf_sig.append((s, buf.n, dts, buf.temp))
        return s

    def _record(self, node: OpNode) -> None:
        """Append ``node`` and its key tuple — the one
        :meth:`Plan._alpha` documents, built here so the plan-cache key
        costs nothing at dispatch. This runs once per recorded call, so
        it inlines the slot lookups and reads ``_value_`` rather than
        the enum ``value`` property, which costs more than the rest of
        the tuple."""
        self._nodes.append(node)
        slots = self._slots
        d, s, o = node.dst, node.src, node.operand
        if d is not None:
            d = slots[d] if d in slots else self._new_slot(d)
        if s is not None:
            s = slots[s] if s in slots else self._new_slot(s)
        if o is not None:
            o = slots[o] if o in slots else self._new_slot(o)
        self._node_sig.append((
            node.kind._value_, node.op, node.inclusive, d, s, o,
            node.scalar is not None, node.lmul._value_,
        ))

    def build(self) -> Plan:
        """Freeze the recording into an executable plan."""
        self.plan = Plan(dict(self._buffers), list(self._nodes),
                         (list(self._alpha_bufs), tuple(self._buf_sig),
                          tuple(self._node_sig)))
        return self.plan

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # allocation (eager — capture defers execution, not memory)
    # ------------------------------------------------------------------
    def array(self, values, dtype=np.uint32) -> SVMArray:
        arr = self.svm.array(values, dtype)
        self._bid(arr, temp=True)
        return arr

    def zeros(self, n: int, dtype=np.uint32) -> SVMArray:
        arr = self.svm.zeros(n, dtype)
        self._bid(arr, temp=True)
        return arr

    def empty(self, n: int, dtype=np.uint32) -> SVMArray:
        arr = self.svm.empty(n, dtype)
        self._bid(arr, temp=True)
        return arr

    def free(self, arr: SVMArray) -> None:
        bid = self._bid(arr)
        self._record(OpNode(Kind.FREE, dst=bid))
        # the address may be recycled by a later allocation
        self._by_addr.pop(arr.ptr.addr, None)

    # ------------------------------------------------------------------
    # fusable elementwise records
    # ------------------------------------------------------------------
    def _ew(self, kernel: str, a: SVMArray, x, lmul) -> None:
        lmul = self.svm._lmul(lmul)
        if isinstance(x, SVMArray):
            self.svm._check_equal_len(a, x)
            self._record(OpNode(Kind.EW_VV, op=kernel, dst=self._bid(a),
                                operand=self._bid(x), lmul=lmul))
        else:
            self._record(OpNode(Kind.EW_VX, op=kernel, dst=self._bid(a),
                                scalar=x, lmul=lmul))

    def p_add(self, a, x, lmul=None):
        self._ew("p_add", a, x, lmul)

    def p_sub(self, a, x, lmul=None):
        self._ew("p_sub", a, x, lmul)

    def p_mul(self, a, x, lmul=None):
        self._ew("p_mul", a, x, lmul)

    def p_and(self, a, x, lmul=None):
        self._ew("p_and", a, x, lmul)

    def p_or(self, a, x, lmul=None):
        self._ew("p_or", a, x, lmul)

    def p_xor(self, a, x, lmul=None):
        self._ew("p_xor", a, x, lmul)

    def p_max(self, a, x, lmul=None):
        self._ew("p_max", a, x, lmul)

    def p_min(self, a, x, lmul=None):
        self._ew("p_min", a, x, lmul)

    def p_srl(self, a, x, lmul=None):
        lmul = self.svm._lmul(lmul)
        self._record(OpNode(Kind.EW_VX, op="p_srl", dst=self._bid(a),
                            scalar=x, lmul=lmul))

    def p_sll(self, a, x, lmul=None):
        lmul = self.svm._lmul(lmul)
        self._record(OpNode(Kind.EW_VX, op="p_sll", dst=self._bid(a),
                            scalar=x, lmul=lmul))

    def p_rsub(self, a, x, lmul=None):
        lmul = self.svm._lmul(lmul)
        self._record(OpNode(Kind.EW_VX, op="p_rsub", dst=self._bid(a),
                            scalar=x, lmul=lmul))

    # ------------------------------------------------------------------
    # flag compares and get_flags
    # ------------------------------------------------------------------
    def _cmp(self, which: str, a: SVMArray, b, out, lmul) -> SVMArray:
        dst = self.empty(a.n, np.uint32) if out is None else out
        lmul = self.svm._lmul(lmul)
        if isinstance(b, SVMArray):
            self.svm._check_equal_len(a, b, dst)
            self._record(OpNode(Kind.CMP_VV, op=which, dst=self._bid(dst),
                                src=self._bid(a), operand=self._bid(b), lmul=lmul))
        else:
            self.svm._check_equal_len(a, dst)
            self._record(OpNode(Kind.CMP_VX, op=which, dst=self._bid(dst),
                                src=self._bid(a), scalar=b, lmul=lmul))
        return dst

    def p_lt(self, a, b, out=None, lmul=None):
        return self._cmp("lt", a, b, out, lmul)

    def p_le(self, a, b, out=None, lmul=None):
        return self._cmp("le", a, b, out, lmul)

    def p_gt(self, a, b, out=None, lmul=None):
        return self._cmp("gt", a, b, out, lmul)

    def p_ge(self, a, b, out=None, lmul=None):
        return self._cmp("ge", a, b, out, lmul)

    def p_eq(self, a, b, out=None, lmul=None):
        return self._cmp("eq", a, b, out, lmul)

    def p_ne(self, a, b, out=None, lmul=None):
        return self._cmp("ne", a, b, out, lmul)

    def get_flags(self, src: SVMArray, bit: int, out=None, lmul=None) -> SVMArray:
        dst = self.empty(src.n, src.dtype) if out is None else out
        self.svm._check_equal_len(src, dst)
        lmul = self.svm._lmul(lmul)
        self._record(OpNode(Kind.GET_FLAGS, dst=self._bid(dst),
                            src=self._bid(src), scalar=bit, lmul=lmul))
        return dst

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def scan(self, a: SVMArray, op: str | BinaryOp = PLUS, *,
             inclusive: bool = True, lmul: LMUL | None = None) -> None:
        self._record(OpNode(
            Kind.SCAN, op=get_operator(op).name, dst=self._bid(a),
            inclusive=inclusive, lmul=self.svm._lmul(lmul),
        ))

    def plus_scan(self, a: SVMArray, lmul: LMUL | None = None) -> None:
        self.scan(a, PLUS, inclusive=True, lmul=lmul)

    def scan_exclusive(self, a: SVMArray, op: str | BinaryOp = PLUS,
                       lmul: LMUL | None = None) -> None:
        self.scan(a, op, inclusive=False, lmul=lmul)

    # ------------------------------------------------------------------
    # structured replay records (typed operands, never strip-fused)
    # ------------------------------------------------------------------
    def p_select(self, flags, a, b, lmul=None) -> None:
        self.svm._check_equal_len(flags, a, b)
        self._record(OpNode(Kind.SELECT, dst=self._bid(b), src=self._bid(a),
                            operand=self._bid(flags),
                            lmul=self.svm._lmul(lmul)))

    def permute(self, src, index, out=None, lmul=None) -> SVMArray:
        dst = self.empty(src.n, src.dtype) if out is None else out
        self.svm._check_equal_len(src, index, dst)
        self._record(OpNode(Kind.PERMUTE, dst=self._bid(dst),
                            src=self._bid(src), operand=self._bid(index),
                            lmul=self.svm._lmul(lmul)))
        return dst

    def back_permute(self, src, index, out=None, lmul=None) -> SVMArray:
        dst = self.empty(src.n, src.dtype) if out is None else out
        self.svm._check_equal_len(src, index, dst)
        self._record(OpNode(Kind.BACK_PERMUTE, dst=self._bid(dst),
                            src=self._bid(src), operand=self._bid(index),
                            lmul=self.svm._lmul(lmul)))
        return dst

    def pack(self, src, flags, out=None, lmul=None) -> tuple[SVMArray, ScalarFuture]:
        dst = self.empty(src.n, src.dtype) if out is None else out
        self.svm._check_equal_len(src, flags, dst)
        kept = ScalarFuture("pack.kept")
        self._record(OpNode(Kind.PACK, dst=self._bid(dst), src=self._bid(src),
                            operand=self._bid(flags), future=kept,
                            lmul=self.svm._lmul(lmul)))
        return dst, kept

    def enumerate(self, flags, set_bit: bool = True, out=None,
                  lmul=None) -> tuple[SVMArray, ScalarFuture]:
        dst = self.empty(flags.n, np.uint32) if out is None else out
        self.svm._check_equal_len(flags, dst)
        count = ScalarFuture("enumerate.count")
        self._record(OpNode(Kind.ENUMERATE, dst=self._bid(dst),
                            src=self._bid(flags), scalar=bool(set_bit),
                            future=count, lmul=self.svm._lmul(lmul)))
        return dst, count

    def reduce(self, a, op: str | BinaryOp = PLUS, lmul=None) -> ScalarFuture:
        result = ScalarFuture("reduce")
        self._record(OpNode(Kind.REDUCE, op=get_operator(op).name,
                            src=self._bid(a), future=result,
                            lmul=self.svm._lmul(lmul)))
        return result

    def seg_scan(self, a, head_flags, op: str | BinaryOp = PLUS, *,
                 inclusive: bool = True, lmul=None) -> None:
        self.svm._check_equal_len(a, head_flags)
        self._record(OpNode(Kind.SEG_SCAN, op=get_operator(op).name,
                            dst=self._bid(a), operand=self._bid(head_flags),
                            inclusive=inclusive, lmul=self.svm._lmul(lmul)))

    def seg_plus_scan(self, a, head_flags, lmul=None) -> None:
        self.seg_scan(a, head_flags, PLUS, inclusive=True, lmul=lmul)

    def shift1up(self, src, fill: int, out=None, lmul=None) -> SVMArray:
        dst = self.empty(src.n, src.dtype) if out is None else out
        self.svm._check_equal_len(src, dst)
        self._record(OpNode(Kind.SHIFT1UP, dst=self._bid(dst),
                            src=self._bid(src), scalar=fill,
                            lmul=self.svm._lmul(lmul)))
        return dst

    def copy(self, src, out=None, lmul=None) -> SVMArray:
        dst = self.empty(src.n, src.dtype) if out is None else out
        self.svm._check_equal_len(src, dst)
        self._record(OpNode(Kind.COPY, dst=self._bid(dst),
                            src=self._bid(src), lmul=self.svm._lmul(lmul)))
        return dst

    def index_array(self, n: int, out=None, lmul=None) -> SVMArray:
        dst = self.empty(int(n), np.uint32) if out is None else out
        self._record(OpNode(Kind.INDEX, dst=self._bid(dst),
                            lmul=self.svm._lmul(lmul)))
        return dst

    # ------------------------------------------------------------------
    # composites: lowered to registered primitives at capture time
    # ------------------------------------------------------------------
    def reverse(self, src, out=None, lmul=None) -> SVMArray:
        """Reverse via index_array + p_rsub + back_permute — same
        lowering as the eager :meth:`~repro.svm.context.SVM.reverse`."""
        idx = self.index_array(src.n, lmul=lmul)
        self.p_rsub(idx, src.n - 1, lmul=lmul)
        result = self.back_permute(src, idx, out=out, lmul=lmul)
        self.free(idx)
        return result

    def split(self, src, flags, out=None, lmul=None) -> tuple[SVMArray, ScalarFuture]:
        """Split (Listing 7) lowered to registered primitives, so the
        whole radix-sort inner loop captures as structured nodes.

        The scratch index vectors are plan temporaries (uncharged, like
        every capture-time allocation) rather than the charged
        ``malloc``s of the eager kernel, so a captured split's counters
        match the batch runner's 2D replay exactly; the eager path is
        unchanged.
        """
        dst = self.empty(src.n, src.dtype) if out is None else out
        self.svm._check_equal_len(src, flags, dst)
        i_up = self.empty(src.n, np.uint32)
        i_down = self.empty(src.n, np.uint32)
        _, count = self.enumerate(flags, set_bit=False, out=i_up, lmul=lmul)
        self.enumerate(flags, set_bit=True, out=i_down, lmul=lmul)
        self.p_add(i_down, count, lmul=lmul)
        self.p_select(flags, i_down, i_up, lmul=lmul)
        self.permute(src, i_up, out=dst, lmul=lmul)
        self.free(i_up)
        self.free(i_down)
        return dst, count
