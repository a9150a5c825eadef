"""Recording SVM pipelines into a :class:`Plan` — and running them at
once.

:class:`PlanBuilder` is the primitives' one front end: it checks the
operands (lengths before any allocation), allocates the outputs and
records one node per call. Its subclass :class:`EagerRecorder` runs
each node the moment it is recorded, and the
:class:`~repro.svm.context.SVM` primitive methods are generated from
it. Every primitive in the :mod:`repro.svm.opspec` registry
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
SVMArrays immediately, registered as plan temporaries); only
*execution* is deferred. A buffer gets its id at its first use by a
node, so a captured plan's ids are its α-slots (the numbering its
cache key uses), and a temporary no node uses gets no buffer but is
still freed by :meth:`PlanBuilder.free_temps`. Data-dependent scalar results (the counts of ``pack`` and
``enumerate``, the value of ``reduce``) come back as
:class:`~repro.engine.ir.ScalarFuture` placeholders, usable as scalar
operands of later recorded ops and resolved when the plan executes.

The usual entry point is ``with svm.lazy() as lz:`` (see
:meth:`repro.svm.context.SVM.lazy`), which builds and executes the
plan on block exit and frees the recorder's live temporaries
(:meth:`PlanBuilder.free_temps`) when the block or the plan raises; an
explicit PlanBuilder plus :meth:`PlanBuilder.build` and
:meth:`~repro.engine.executor.Engine.run` gives manual control.
"""

from __future__ import annotations

import numpy as np

from ..rvv.types import LMUL
from ..svm.context import SVMArray
from ..svm.operators import PLUS, BinaryOp, get_operator
from ..svm.opspec import iter_specs, node_op
from .executor import Views, run_node
from .ir import Buffer, Kind, OpNode, Plan, ScalarFuture

__all__ = ["EagerRecorder", "PlanBuilder"]

#: dtype -> ``dtype.str``: the property builds a new string on every
#: read, and the key needs one per buffer per capture.
_DTYPE_STR: dict[np.dtype, str] = {}


class PlanBuilder:
    """Records SVM calls into a :class:`Plan` instead of executing them."""

    def __init__(self, svm) -> None:
        self.svm = svm
        #: Buffer id -> :class:`Buffer`, ids in first-use order.
        self._buffers: dict[int, Buffer] = {}
        self._by_addr: dict[int, int] = {}
        #: Address -> every temporary this recorder allocated, used by
        #: a node or not (what :meth:`free_temps` frees).
        self._temps: dict[int, SVMArray] = {}
        self._nodes: list[OpNode] = []
        # the α-renaming record Plan._alpha would otherwise walk for:
        # one key tuple per buffer in id (= slot) order, one per node
        self._buf_sig: list[tuple] = []
        self._node_sig: list[tuple] = []
        #: Set by :meth:`build` / :meth:`SVM.lazy` on completion.
        self.plan: Plan | None = None
        self.fused = None

    # ------------------------------------------------------------------
    # buffer registry
    # ------------------------------------------------------------------
    def _bid(self, arr: SVMArray) -> int:
        """``arr``'s buffer id, handed out at its first use. Recorders
        ask for a node's ids in dst, src, operand order after every
        check that can raise, right before recording it, so ids count
        up exactly as :meth:`Plan._alpha` numbers slots: a captured
        plan's ids are its α-slots, and the buffer's key tuple is
        appended here."""
        addr = arr.ptr.addr
        bid = self._by_addr.get(addr)
        if bid is None:
            bid = self._by_addr[addr] = len(self._buffers)
            temp = addr in self._temps
            dt = arr.ptr.dtype
            self._buffers[bid] = Buffer(bid, arr.n, dt, arr, temp)
            sig = self._buf_sig
            if sig is not None:
                dts = _DTYPE_STR.get(dt)
                if dts is None:
                    dts = _DTYPE_STR[dt] = dt.str
                sig.append((bid, arr.n, dts, temp))
        return bid

    def _record(self, node: OpNode) -> None:
        """Append ``node`` and its key tuple — the one
        :meth:`Plan._alpha` documents, built here so the plan-cache key
        costs nothing at dispatch. This runs once per recorded call, so
        it reads ``_value_`` rather than the enum ``value`` property,
        which costs more than the rest of the tuple."""
        self._nodes.append(node)
        self._node_sig.append((
            node.kind._value_, node.op, node.inclusive, node.dst, node.src,
            node.operand, node.scalar is not None, node.lmul._value_,
        ))

    def build(self) -> Plan:
        """Freeze the recording into an executable plan."""
        self.plan = Plan(dict(self._buffers), list(self._nodes),
                         (list(self._buffers.values()), tuple(self._buf_sig),
                          tuple(self._node_sig)))
        return self.plan

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # allocation (eager — capture defers execution, not memory); a
    # temporary is registered now and gets its buffer at first use
    # ------------------------------------------------------------------
    def array(self, values, dtype=np.uint32) -> SVMArray:
        arr = self.svm.array(values, dtype)
        self._temps[arr.ptr.addr] = arr
        return arr

    def zeros(self, n: int, dtype=np.uint32) -> SVMArray:
        arr = self.svm.zeros(n, dtype)
        self._temps[arr.ptr.addr] = arr
        return arr

    def empty(self, n: int, dtype=np.uint32) -> SVMArray:
        arr = self.svm.empty(n, dtype)
        self._temps[arr.ptr.addr] = arr
        return arr

    def free(self, arr: SVMArray) -> None:
        bid = self._bid(arr)
        self._record(OpNode(Kind.FREE, dst=bid))
        # the address may be recycled by a later allocation
        self._by_addr.pop(arr.ptr.addr, None)

    def free_temps(self) -> None:
        """Free every temporary this recorder allocated that is still
        live: what a call or block that raised leaves behind."""
        heap = self.svm.machine.heap
        for addr, arr in self._temps.items():
            if heap.is_live(addr):
                self.svm.free(arr)

    def _dst(self, out, n: int, dtype) -> SVMArray:
        """``out``, or a new plan temporary of ``n`` ``dtype`` elements
        (asked for after the length checks, so a call that fails them
        allocates nothing)."""
        return self.empty(n, dtype) if out is None else out

    # ------------------------------------------------------------------
    # fusable elementwise records and flag compares (p_add ... p_ne are
    # generated from the registry below the class body) and get_flags
    # ------------------------------------------------------------------
    def _ew(self, kernel: str, a: SVMArray, x, lmul, vv: bool) -> None:
        lmul = self.svm._lmul(lmul)
        if vv and isinstance(x, SVMArray):
            self.svm._check_equal_len(a, x)
            self._record(OpNode(Kind.EW_VV, op=kernel, dst=self._bid(a),
                                operand=self._bid(x), lmul=lmul))
        else:
            self._record(OpNode(Kind.EW_VX, op=kernel, dst=self._bid(a),
                                scalar=x, lmul=lmul))

    def _cmp(self, which: str, a: SVMArray, b, out, lmul) -> SVMArray:
        vv = isinstance(b, SVMArray)
        self.svm._check_equal_len(a, b if vv else None, out)
        dst = self._dst(out, a.n, np.uint32)
        lmul = self.svm._lmul(lmul)
        if vv:
            self._record(OpNode(Kind.CMP_VV, op=which, dst=self._bid(dst),
                                src=self._bid(a), operand=self._bid(b), lmul=lmul))
        else:
            self._record(OpNode(Kind.CMP_VX, op=which, dst=self._bid(dst),
                                src=self._bid(a), scalar=b, lmul=lmul))
        return dst

    def get_flags(self, src: SVMArray, bit: int, out=None, lmul=None) -> SVMArray:
        self.svm._check_equal_len(src, out)
        dst = self._dst(out, src.n, src.dtype)
        self._record(OpNode(Kind.GET_FLAGS, lmul=self.svm._lmul(lmul),
                            dst=self._bid(dst), src=self._bid(src), scalar=bit))
        return dst

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def scan(self, a: SVMArray, op: str | BinaryOp = PLUS, *,
             inclusive: bool = True, lmul: LMUL | None = None) -> None:
        self._record(OpNode(
            Kind.SCAN, op=get_operator(op).name, lmul=self.svm._lmul(lmul),
            dst=self._bid(a), inclusive=bool(inclusive),
        ))

    def plus_scan(self, a: SVMArray, lmul: LMUL | None = None) -> None:
        """The paper's plus-scan (Listing 6): inclusive prefix sums."""
        self.scan(a, PLUS, inclusive=True, lmul=lmul)

    def scan_exclusive(self, a: SVMArray, op: str | BinaryOp = PLUS,
                       lmul: LMUL | None = None) -> None:
        """Exclusive ⊕-scan (Blelloch's original definition)."""
        self.scan(a, op, inclusive=False, lmul=lmul)

    def seg_scan(self, a, head_flags, op: str | BinaryOp = PLUS, *,
                 inclusive: bool = True, lmul=None) -> None:
        self.svm._check_equal_len(a, head_flags)
        self._record(OpNode(Kind.SEG_SCAN, op=get_operator(op).name,
                            lmul=self.svm._lmul(lmul), dst=self._bid(a),
                            operand=self._bid(head_flags),
                            inclusive=bool(inclusive)))

    def seg_plus_scan(self, a, head_flags, lmul=None) -> None:
        """The paper's segmented plus-scan (Listing 10)."""
        self.seg_scan(a, head_flags, PLUS, inclusive=True, lmul=lmul)

    def reduce(self, a, op: str | BinaryOp = PLUS, lmul=None) -> ScalarFuture:
        result = ScalarFuture("reduce")
        self._record(OpNode(Kind.REDUCE, op=get_operator(op).name,
                            lmul=self.svm._lmul(lmul), src=self._bid(a),
                            future=result))
        return result

    # ------------------------------------------------------------------
    # structured replay records (typed operands, never strip-fused)
    # ------------------------------------------------------------------
    def p_select(self, flags, a, b, lmul=None) -> None:
        self.svm._check_equal_len(flags, a, b)
        self._record(OpNode(Kind.SELECT, lmul=self.svm._lmul(lmul),
                            dst=self._bid(b), src=self._bid(a),
                            operand=self._bid(flags)))

    def _into(self, kind: Kind, src, operand, out, lmul, dtype=None,
              scalar=None, future=None) -> SVMArray:
        """Record a ``kind`` node from ``src`` (and the vector
        ``operand``, or the ``scalar``) into ``out`` or a new temporary
        of ``src``'s length and ``dtype`` (default ``src``'s)."""
        self.svm._check_equal_len(src, operand, out)
        dst = self._dst(out, src.n, src.dtype if dtype is None else dtype)
        self._record(OpNode(
            kind, lmul=self.svm._lmul(lmul), dst=self._bid(dst),
            src=self._bid(src),
            operand=None if operand is None else self._bid(operand),
            scalar=scalar, future=future))
        return dst

    def permute(self, src, index, out=None, lmul=None) -> SVMArray:
        return self._into(Kind.PERMUTE, src, index, out, lmul)

    def back_permute(self, src, index, out=None, lmul=None) -> SVMArray:
        return self._into(Kind.BACK_PERMUTE, src, index, out, lmul)

    def pack(self, src, flags, out=None, lmul=None) -> tuple[SVMArray, ScalarFuture]:
        kept = ScalarFuture("pack.kept")
        return self._into(Kind.PACK, src, flags, out, lmul, future=kept), kept

    def enumerate(self, flags, set_bit: bool = True, out=None,
                  lmul=None) -> tuple[SVMArray, ScalarFuture]:
        count = ScalarFuture("enumerate.count")
        return self._into(Kind.ENUMERATE, flags, None, out, lmul, np.uint32,
                          scalar=bool(set_bit), future=count), count

    def shift1up(self, src, fill: int, out=None, lmul=None) -> SVMArray:
        return self._into(Kind.SHIFT1UP, src, None, out, lmul, scalar=fill)

    def copy(self, src, out=None, lmul=None) -> SVMArray:
        return self._into(Kind.COPY, src, None, out, lmul)

    def index_array(self, n: int, out=None, lmul=None) -> SVMArray:
        dst = self._dst(out, int(n), np.uint32)
        self._record(OpNode(Kind.INDEX, lmul=self.svm._lmul(lmul),
                            dst=self._bid(dst)))
        return dst

    # ------------------------------------------------------------------
    # composites: lowered to registered primitives at capture time
    # ------------------------------------------------------------------
    def reverse(self, src, out=None, lmul=None) -> SVMArray:
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
        ``malloc``s of the eager :meth:`~repro.svm.context.SVM.split`,
        so a captured split's counters match the batch runner's 2D
        replay exactly.
        """
        self.svm._check_equal_len(src, flags, out)
        dst = self._dst(out, src.n, src.dtype)
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


# ----------------------------------------------------------------------
# registry-generated records
# ----------------------------------------------------------------------
# The in-place elementwise family and the flag compares share two
# method shapes; the registry fills them in.

def _elementwise(name: str, vv: bool):
    def record(self, a: SVMArray, x, lmul: LMUL | None = None) -> None:
        self._ew(name, a, x, lmul, vv)
    return record


def _compare(which: str):
    def record(self, a: SVMArray, b, out: SVMArray | None = None,
               lmul: LMUL | None = None) -> SVMArray:
        return self._cmp(which, a, b, out, lmul)
    return record


for _spec in iter_specs():
    _kinds = _spec.node_kinds.values()
    if "cmp_vx" in _kinds:
        _method = _compare(node_op(_spec))
    elif "ew_vx" in _kinds:
        _method = _elementwise(_spec.name, "ew_vv" in _kinds)
    else:
        continue
    _method.__name__ = _spec.name
    _method.__qualname__ = f"PlanBuilder.{_spec.name}"
    _method.__doc__ = _spec.doc
    setattr(PlanBuilder, _spec.name, _method)
del _spec, _kinds, _method


class EagerRecorder(PlanBuilder):
    """The recorder behind the eager :class:`~repro.svm.context.SVM`
    primitives: each node runs the moment it is recorded, through the
    unit loop's node step (:func:`~repro.engine.executor.run_node`) on
    the views of its buffers, on the tier ``svm._fast`` picks at its
    length, inside its span. Futures resolve at once; no plan is built
    and no cache key is kept. One recorder serves one call."""

    #: No key tuples: nothing is cached.
    _buf_sig = None

    def __init__(self, svm) -> None:
        self.svm = svm
        #: Buffer id -> :class:`Buffer`: the "plan" :func:`run_node` reads.
        self.buffers = self._buffers = {}
        self._by_addr = {}
        self._temps = {}

    def _record(self, node: OpNode) -> None:
        run_node(self.svm, self, node, Views(self.svm, self._buffers))
