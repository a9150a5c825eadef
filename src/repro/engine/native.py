"""Native backend tier: whole fused plans lowered to one compiled C
kernel.

The codegen tier (:mod:`repro.engine.codegen`) already collapses a
fused plan into one generated Python function, but that function still
pays a NumPy ufunc dispatch per lane per unit — at small ``n`` the
dispatch dominates the arithmetic by an order of magnitude. This
module closes the gap the way the RVV hardware papers do: lower the
*entire* plan to one C translation unit built from a small macro
vector library, compile it once with the system toolchain
(``cc`` with :data:`CFLAGS`), and replay it as a single ``ctypes`` call
into the simulated machine's flat memory.

The element loops carry no branch on lane data, so the compiler can
vectorize them: ``p_select`` is the paper's masked merge (Listing 7's
``vmsne`` + ``vmerge``, then an unconditional store), compares and
counts are 0/1 arithmetic, and the segmented scans pick through lane
masks. The one ``if`` left inside an element loop is scatter/gather's
bounds guard, which keeps an out-of-range index off host memory.

Selected through the backend seam (``SVM(backend="native")`` /
``REPRO_BACKEND=native``), the tier is bit- **and counter-identical**
to the codegen tier. Each C call, the first included, charges the
plan's static counter profile (``FusedPlan.charge_items``, summed from
the registry's pure charge functions when the plan compiles — the same
profile the 2D batch runner charges rows 1+ with) via
:meth:`~repro.rvv.counters.Counters.add_many`. This is sound because
the primitives' counts are closed-form in the plan shape. The one
data-dependent term, ``pack``'s
:data:`~repro.svm.fastpath.PACK_VARIABLE` per strip holding a
survivor, is left out of the profile and charged per run from the
survivor-strip count the kernel itself reports.

Lowering is **structural**: :func:`lower_plan` consumes only unit
kinds, lane recipes from the OpSpec registry and buffer dtypes, so the
generated source — and therefore its digest and ``.so`` — is one per
pipeline *structure*, shared by every length, VLEN and α-renaming of
it. A :class:`NativePlan` binds to any α-equivalent plan through
small argument tables. Each thread builds them once per
:class:`NativePlan` — one per plan-cache entry — with everything the
cache key fixes: the α-slot behind each buffer slot, buffer lengths and
``pack`` strip lengths (VLMAX). A call then writes only buffer
addresses and runtime scalars (including :class:`ScalarFuture`
operands); scalar futures *produced by the plan itself* (reduce /
enumerate / pack) are threaded through the kernel's ``outs`` table so
split pipelines compile whole.

The one C entry point is ``plan_run2d(bufs, scalars, sel, outs, lens,
rows)``; a single call passes ``rows=1``. ``lens`` holds one length per
buffer slot followed by one strip length per ``pack`` node; ``outs``
holds one value per produced future, then one survivor-strip count per
``pack`` node, then — when the plan scatters or gathers — the
out-of-range index flag.

Artifacts are content-addressed: ``<digest>.c`` / ``<digest>.so``
pairs, the digest a hash of the generated source, :data:`CFLAGS` and
:data:`NATIVE_VERSION`. With a cache directory configured
(``SVM(cache_dir=...)`` / ``REPRO_CACHE_DIR``) they live under
:func:`artifact_dir`, so a fresh process binds an existing ``.so``
without running ``cc``; otherwise they go to a per-process temporary
directory. This module alone knows that layout — the engine, ``repro
cache`` and the serving stats all ask it. Builds compile a per-pid
temporary source into a per-pid temporary object and rename both into
place, so concurrent builders of one digest never see a partial file,
and an existing artifact that fails to load is rebuilt over, never
trusted.

Toolchain absence is never an error: :meth:`NativePlan.ensure`
memoizes the failure and the executor falls back to the codegen tier
(see ``docs/native.md``). ``REPRO_NATIVE_DISABLE=1`` forces that path;
``REPRO_NATIVE_CC`` overrides compiler discovery.

Structural limits (fall back to codegen, also per plan): dtypes must
be unsigned (the wrap-around arithmetic contract C shares with the
fast path), and scatter/gather must be genuinely out-of-place.
Scatter and gather keep their bounds-guarded store, so an out-of-range
index never touches host memory, and raise :class:`IndexError` after
the call when any index was out of range — the exception type the
codegen tier raises. The state left behind differs: codegen stops at
the failing node, native has run the whole plan (in-range lanes and
later nodes wrote their buffers) and resolves no future, so buffer
contents after the error are unspecified.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from ..config import native_toolchain_env
from ..rvv.types import sew_for_dtype
from ..svm.operators import get_operator
from ..svm.opspec import LANE_RECIPES
from .fuse import FusedPlan, GroupSpec
from .ir import Kind, Plan, ScalarFuture, resolve_scalar

__all__ = [
    "NATIVE_VERSION",
    "CFLAGS",
    "NATIVE_KINDS",
    "NativePlan",
    "find_compiler",
    "native_available",
    "lower_plan",
    "native_state",
    "artifact_dir",
    "artifact_stats",
    "artifacts",
]

#: Bumped on any change to the generated C or the meta layout; part of
#: the artifact digest, so stale ``.so`` files are never rebound.
NATIVE_VERSION = 5

#: The compiler flags every artifact builds with; part of the artifact
#: digest, so a flag change never rebinds a ``.so`` built under the old
#: flags. ``-O3`` vectorizes the runtime-trip-count element loops.
CFLAGS = ("-O3", "-shared", "-fPIC")

#: Node kinds the lowering can emit C for: every kind.
#: ``tools/check_opspec`` gates that every registered op is either
#: covered here or carries an explicit ``native=False`` escape hatch.
NATIVE_KINDS = frozenset(Kind)

_U64 = (1 << 64) - 1

_OOB_MESSAGE = "scatter/gather index out of range"

_CTYPE = {1: "uint8_t", 2: "uint16_t", 4: "uint32_t", 8: "uint64_t"}

#: Elementwise kernel name → macro from the header below. The macros
#: do add/sub/mul through uint64_t so uint16/uint8 operands never hit
#: C's signed-int promotion; shifts mask the amount exactly like
#: :func:`repro.svm.fastpath._srl`.
_EW_MACRO = {
    "p_add": "R_ADD", "p_sub": "R_SUB", "p_mul": "R_MUL",
    "p_and": "R_AND", "p_or": "R_OR", "p_xor": "R_XOR",
    "p_max": "R_MAX", "p_min": "R_MIN",
    "p_srl": "R_SRL", "p_sll": "R_SLL", "p_rsub": "R_RSUB",
}

_CMP_C = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}

#: Scan operator name → macro (same semantics as the ufunc fold).
_SCANOP_MACRO = {
    "plus": "R_ADD", "max": "R_MAX", "min": "R_MIN",
    "or": "R_OR", "and": "R_AND", "xor": "R_XOR",
}

_HEADER = """\
#include <stdint.h>

/* Wrap-around vector macro library. Arithmetic goes through uint64_t
 * so sub-int unsigned types never touch C's signed promotion; shift
 * amounts are masked by the element width, matching the fast path. */
#define R_ADD(T, a, b)  ((T)((uint64_t)(a) + (uint64_t)(b)))
#define R_SUB(T, a, b)  ((T)((uint64_t)(a) - (uint64_t)(b)))
#define R_MUL(T, a, b)  ((T)((uint64_t)(a) * (uint64_t)(b)))
#define R_AND(T, a, b)  ((T)((a) & (b)))
#define R_OR(T, a, b)   ((T)((a) | (b)))
#define R_XOR(T, a, b)  ((T)((a) ^ (b)))
#define R_MAX(T, a, b)  (((a) > (b)) ? (T)(a) : (T)(b))
#define R_MIN(T, a, b)  (((a) < (b)) ? (T)(a) : (T)(b))
#define R_SRL(T, a, b)  ((T)((a) >> ((unsigned)(b) & (8u * (unsigned)sizeof(T) - 1u))))
#define R_SLL(T, a, b)  ((T)((uint64_t)(a) << ((unsigned)(b) & (8u * (unsigned)sizeof(T) - 1u))))
#define R_RSUB(T, a, b) ((T)((uint64_t)(b) - (uint64_t)(a)))

/* Branchless select: a where the lane mask m is all ones, else b.
 * p_select (Listing 7's vmsne + vmerge) and the segmented scans use
 * it, so no compiler turns a random flag test into a mispredicted
 * branch and every such loop can vectorize. */
#define R_MASK(T, c)       ((T)((T)0 - (T)((c) != 0)))
#define R_PICK(T, m, a, b) ((T)(((a) & (m)) | ((b) & (T)~(m))))

/* Runtime scalar k: a literal (sel[k] < 0) or a scalar future produced
 * earlier in this very plan, read back from the outs table. */
#define SCALAR(k) ((sel)[(k)] < 0 ? (scalars)[(k)] : (outs)[(sel)[(k)]])
"""


class _Ineligible(Exception):
    """Plan cannot be lowered (structural); caller falls back."""


# ---------------------------------------------------------------------------
# toolchain discovery
# ---------------------------------------------------------------------------

_TOOLCHAIN: list = []  # memoized [path-or-None]


def find_compiler() -> str | None:
    """The C compiler to use, or None (memoized). Honors
    ``REPRO_NATIVE_CC`` (explicit compiler) and
    ``REPRO_NATIVE_DISABLE=1`` (force the no-toolchain fallback), both
    read through :func:`repro.config.native_toolchain_env`."""
    if _TOOLCHAIN:
        return _TOOLCHAIN[0]
    cc = None
    override, disabled = native_toolchain_env()
    if not disabled:
        if override:
            cc = override if os.path.exists(override) else shutil.which(override)
        else:
            for cand in ("cc", "gcc", "clang"):
                cc = shutil.which(cand)
                if cc:
                    break
    _TOOLCHAIN.append(cc)
    return cc


def native_available() -> bool:
    """Whether a toolchain is present (cheap after the first call)."""
    return find_compiler() is not None


def reset_native_caches() -> None:
    """Forget the memoized toolchain and compiled-library cache — for
    tests that flip ``REPRO_NATIVE_DISABLE`` within one process."""
    _TOOLCHAIN.clear()
    _SO_CACHE.clear()


# ---------------------------------------------------------------------------
# build + bind cache
# ---------------------------------------------------------------------------

#: (artifact dir, source digest) → the ``plan_run2d`` ctypes
#: function, or None when the build failed / no toolchain (memoized
#: per process; dir None is the per-process temporary directory).
_SO_CACHE: dict[tuple, object] = {}
#: Serializes the check-build-memoize step: serve workers share one
#: fused plan, and two threads building one digest would race on its
#: temporary artifact path (one build fails and memoizes None).
_SO_LOCK = threading.Lock()

_TMP_DIR: list = []  # fallback artifact dir when no cache dir is set


def artifact_dir(cache_dir) -> Path | None:
    """Where compiled artifacts persist for ``cache_dir``
    (``<cache_dir>/native``), or None when no cache directory is
    configured."""
    return Path(cache_dir) / "native" if cache_dir else None


def artifacts(cache_dir, *, temps: bool = False) -> list[Path]:
    """The resident ``<digest>.{c,so}`` artifacts under ``cache_dir``
    (empty when it is unset or missing). ``temps=True`` lists the
    ``*.tmp*`` files of builds instead — abandoned ones when no build
    is in flight."""
    root = artifact_dir(cache_dir)
    if root is None or not root.is_dir():
        return []
    if temps:
        return sorted(root.glob("*.tmp*"))
    return sorted(p for p in root.iterdir()
                  if p.suffix in (".c", ".so") and ".tmp" not in p.name)


def artifact_stats(cache_dir) -> dict:
    """Count and total size of the resident :func:`artifacts`."""
    arts = artifacts(cache_dir)
    return {"artifacts": len(arts),
            "bytes": sum(p.stat().st_size for p in arts)}


def _default_artifact_dir() -> Path:
    if not _TMP_DIR:
        _TMP_DIR.append(Path(tempfile.mkdtemp(prefix="repro-native-")))
    return _TMP_DIR[0]


def _bind(so: Path):
    run2d = ctypes.CDLL(str(so)).plan_run2d
    run2d.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_longlong]
    run2d.restype = None
    return run2d


def _build(source: str, digest: str, art_dir) -> tuple[object, bool]:
    """Bind ``<art_dir>/<digest>.so``, compiling ``source`` into it
    first unless a loadable artifact is already there. Returns the
    entry point — None on any failure, which the caller treats as
    "tier unavailable" — and whether ``cc`` ran.

    An existing artifact that fails to load (truncated, corrupt) is a
    miss: it is rebuilt and replaced. The build compiles a per-pid
    temporary source into a per-pid temporary object and renames both
    into place, so a concurrent builder of the same digest never reads
    a partial ``.c`` or binds a partial ``.so``."""
    cc = find_compiler()
    if cc is None:
        return None, False
    root = Path(art_dir) if art_dir is not None else _default_artifact_dir()
    so = root / f"{digest}.so"
    if so.exists():
        try:
            return _bind(so), False
        except Exception:
            pass  # unloadable artifact: rebuild over it
    tag = f"{digest}.tmp{os.getpid()}"
    csrc, tmp = root / f"{tag}.c", root / f"{tag}.so"
    try:
        root.mkdir(parents=True, exist_ok=True)
        csrc.write_text(source)
        subprocess.run(
            [cc, *CFLAGS, "-o", str(tmp), str(csrc)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(csrc, root / f"{digest}.c")
        os.replace(tmp, so)
        return _bind(so), True
    except Exception:
        return None, True
    finally:
        for path in (csrc, tmp):
            try:
                path.unlink()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# lowering: FusedPlan -> C source + binding metadata
# ---------------------------------------------------------------------------

class _Gen:
    """Accumulates the C body plus the call-time binding tables.

    Buffer/scalar slots are recorded as ``(node_index, field)`` /
    ``node_index`` references — never buffer ids, lengths or scalar
    values — so the result rebinds to any α-equivalent plan of any
    length (exactly the :class:`GroupSpec` convention)."""

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.buf_slots: list[tuple[int, str]] = []
        self._slot_of: dict[int, int] = {}
        self.scalar_slots: list[int] = []
        self.future_nodes: list[int] = []
        self.free_nodes: list[int] = []
        self.pack_nodes: list[int] = []
        #: Whether a scatter/gather reports out-of-range indices
        #: through the ``oob`` flag at the tail of ``outs``.
        self.checks_index = False
        self.blocks: list[list[str]] = []

    def slot(self, ni: int, fld: str, want=None) -> int:
        bid = getattr(self.plan.nodes[ni], fld)
        buf = self.plan.buffers[bid]
        if buf.dtype.kind != "u":
            raise _Ineligible(f"non-unsigned buffer dtype {buf.dtype}")
        if want is not None and buf.dtype != want:
            raise _Ineligible("mixed-dtype vector operand")
        s = self._slot_of.get(bid)
        if s is None:
            s = len(self.buf_slots)
            self._slot_of[bid] = s
            self.buf_slots.append((ni, fld))
        return s

    def buf(self, ni: int, fld: str, want=None) -> tuple[str, str, str]:
        """(C name, C type, C length expression) for a node's buffer
        reference; the length is read from the per-call ``lens`` table."""
        s = self.slot(ni, fld, want)
        b = self.plan.buffers[getattr(self.plan.nodes[ni], fld)]
        return f"b{s}", _CTYPE[b.dtype.itemsize], f"n{s}"

    def scalar(self, ni: int, pre: list[str]) -> str:
        """Hoist runtime scalar ``node.scalar`` into a uint64 local."""
        k = len(self.scalar_slots)
        self.scalar_slots.append(ni)
        pre.append(f"uint64_t x{k} = SCALAR({k});")
        return f"x{k}"

    def out(self, ni: int) -> int:
        j = len(self.future_nodes)
        self.future_nodes.append(ni)
        return j

    def pack(self, ni: int) -> int:
        """Index k of a pack node: its strip length is ``vlmax[k]``,
        its survivor-strip count goes to ``strips[k]``."""
        k = len(self.pack_nodes)
        self.pack_nodes.append(ni)
        return k


def _ident(op, dtype) -> str:
    return f"{get_operator(op).identity(dtype)}ULL"


def _emit_group(g: _Gen, spec: GroupSpec) -> None:
    plan = g.plan
    nodes = plan.nodes
    idxs = spec.node_indices
    body = idxs[:-1] if spec.scan else idxs
    head = nodes[body[0]]
    dname, T, n = g.buf(body[0], "dst")
    dtype = plan.buffers[head.dst].dtype
    if head.src is not None:
        hname, _, _ = g.buf(body[0], "src", want=dtype)
    else:
        hname = dname
    pre: list[str] = []
    ops: list[str] = []
    for ni in body:
        node = nodes[ni]
        for lane_kind, op_override, const in LANE_RECIPES[node.kind.value]:
            op = op_override if op_override is not None else node.op
            if lane_kind == "vx":
                if const is not None:
                    x = f"({T}){int(const)}u"
                else:
                    x = f"({T}){g.scalar(ni, pre)}"
                ops.append(f"acc = {_EW_MACRO[op]}({T}, acc, {x});")
            elif lane_kind == "vv":
                oname, _, _ = g.buf(ni, "operand", want=dtype)
                ops.append(f"acc = {_EW_MACRO[op]}({T}, acc, {oname}[i]);")
            elif lane_kind == "cmp_vx":
                x = f"({T}){g.scalar(ni, pre)}"
                ops.append(f"acc = ({T})(acc {_CMP_C[op]} {x});")
            elif lane_kind == "cmp_vv":
                oname, _, _ = g.buf(ni, "operand", want=dtype)
                ops.append(f"acc = ({T})(acc {_CMP_C[op]} {oname}[i]);")
            else:  # pragma: no cover - registry and this table move together
                raise _Ineligible(f"unknown lane kind {lane_kind!r}")
    out = [f"{{ /* fused group: nodes {list(idxs)} */"]
    out += [f"    {l}" for l in pre]
    if spec.scan:
        scan_op = get_operator(nodes[idxs[-1]].op)
        if scan_op.name not in _SCANOP_MACRO:
            raise _Ineligible(f"scan operator {scan_op.name!r}")
        out.append(f"    {T} carry = ({T}){_ident(scan_op.name, dtype)};")
    out.append(f"    for (int64_t i = 0; i < {n}; ++i) {{")
    out.append(f"        {T} acc = {hname}[i];")
    out += [f"        {l}" for l in ops]
    if spec.scan:
        m = _SCANOP_MACRO[scan_op.name]
        out.append(f"        carry = {m}({T}, carry, acc);")
        out.append("        acc = carry;")
    out.append(f"        {dname}[i] = acc;")
    out.append("    }")
    out.append("}")
    g.blocks.append(out)


def _emit_node(g: _Gen, ni: int) -> None:
    plan = g.plan
    node = plan.nodes[ni]
    kind = node.kind
    if kind not in NATIVE_KINDS:
        raise _Ineligible(f"kind {kind.value} has no native emitter")

    if kind is Kind.FREE:
        g.free_nodes.append(ni)
        return

    pre: list[str] = []
    out: list[str] = [f"{{ /* {kind.value}: node {ni} */"]

    def loop(n: str, *lines: str) -> None:
        out.append(f"    for (int64_t i = 0; i < {n}; ++i) {{")
        out.extend(f"        {l}" for l in lines)
        out.append("    }")

    if kind is Kind.EW_VX:
        d, T, n = g.buf(ni, "dst")
        x = g.scalar(ni, pre)
        loop(n, f"{d}[i] = {_EW_MACRO[node.op]}({T}, {d}[i], ({T}){x});")
    elif kind is Kind.EW_VV:
        d, T, n = g.buf(ni, "dst")
        o, _, _ = g.buf(ni, "operand", want=plan.buffers[node.dst].dtype)
        loop(n, f"{d}[i] = {_EW_MACRO[node.op]}({T}, {d}[i], {o}[i]);")
    elif kind is Kind.CMP_VX:
        d, TD, n = g.buf(ni, "dst")
        s, TS, _ = g.buf(ni, "src")
        x = g.scalar(ni, pre)
        loop(n, f"{d}[i] = ({TD})({s}[i] {_CMP_C[node.op]} ({TS}){x});")
    elif kind is Kind.CMP_VV:
        d, TD, n = g.buf(ni, "dst")
        s, TS, _ = g.buf(ni, "src")
        o, _, _ = g.buf(ni, "operand", want=plan.buffers[node.src].dtype)
        loop(n, f"{d}[i] = ({TD})({s}[i] {_CMP_C[node.op]} {o}[i]);")
    elif kind is Kind.GET_FLAGS:
        d, TD, n = g.buf(ni, "dst")
        s, TS, _ = g.buf(ni, "src")
        x = g.scalar(ni, pre)
        loop(n, f"{d}[i] = ({TD})(R_SRL({TS}, {s}[i], {x}) & ({TS})1);")
    elif kind is Kind.SCAN:
        d, T, n = g.buf(ni, "dst")
        if node.op not in _SCANOP_MACRO:
            raise _Ineligible(f"scan operator {node.op!r}")
        m = _SCANOP_MACRO[node.op]
        dt = plan.buffers[node.dst].dtype
        pre.append(f"{T} acc = ({T}){_ident(node.op, dt)};")
        if node.inclusive:
            loop(n, f"acc = {m}({T}, acc, {d}[i]);", f"{d}[i] = acc;")
        else:
            loop(n, f"{T} t = {d}[i];", f"{d}[i] = acc;",
                 f"acc = {m}({T}, acc, t);")
    elif kind is Kind.SEG_SCAN:
        d, T, n = g.buf(ni, "dst")
        f, _, _ = g.buf(ni, "operand")
        if node.op not in _SCANOP_MACRO:
            raise _Ineligible(f"scan operator {node.op!r}")
        m = _SCANOP_MACRO[node.op]
        ident = f"({T}){_ident(node.op, plan.buffers[node.dst].dtype)}"
        # the carry starts at the identity, so lane 0 needs no head
        # test: folding it into the identity yields the lane itself
        if node.inclusive:
            pre.append(f"{T} acc = {ident};")
            loop(n, f"{T} v = {d}[i];",
                 f"{T} h = R_MASK({T}, {f}[i]);",
                 f"acc = R_PICK({T}, h, v, {m}({T}, acc, v));",
                 f"{d}[i] = acc;")
        else:
            pre.append(f"{T} run = {ident};")
            loop(n, f"{T} v = {d}[i];",
                 f"{T} h = R_MASK({T}, {f}[i]);",
                 f"{d}[i] = R_PICK({T}, h, {ident}, run);",
                 f"run = R_PICK({T}, h, v, {m}({T}, run, v));")
    elif kind is Kind.SELECT:
        d, TD, n = g.buf(ni, "dst")
        s, _, _ = g.buf(ni, "src")
        f, _, _ = g.buf(ni, "operand")
        # Listing 7's masked merge: the mask comes from the flag in
        # its own type (a wider flag never truncates to zero), and the
        # store is unconditional
        loop(n, f"{d}[i] = R_PICK({TD}, R_MASK({TD}, {f}[i]),"
                f" ({TD}){s}[i], {d}[i]);")
    elif kind is Kind.PERMUTE:
        if node.dst in (node.src, node.operand):
            raise _Ineligible("in-place scatter")
        d, TD, nd = g.buf(ni, "dst")
        s, _, ns = g.buf(ni, "src")
        x, _, _ = g.buf(ni, "operand")
        # the guard keeps an out-of-range index off host memory; the
        # flag makes the call raise IndexError like the codegen tier
        g.checks_index = True
        pre.append("uint64_t bad = 0;")
        loop(ns, f"uint64_t t = (uint64_t){x}[i];",
             f"bad |= t >= (uint64_t){nd};",
             f"if (t < (uint64_t){nd}) {d}[t] = ({TD}){s}[i];")
        out.append("    *oob |= bad;")
    elif kind is Kind.BACK_PERMUTE:
        if node.dst in (node.src, node.operand):
            raise _Ineligible("in-place gather")
        d, TD, nd = g.buf(ni, "dst")
        s, _, ns = g.buf(ni, "src")
        x, _, _ = g.buf(ni, "operand")
        g.checks_index = True
        pre.append("uint64_t bad = 0;")
        loop(nd, f"uint64_t t = (uint64_t){x}[i];",
             f"bad |= t >= (uint64_t){ns};",
             f"if (t < (uint64_t){ns}) {d}[i] = ({TD}){s}[t];")
        out.append("    *oob |= bad;")
    elif kind is Kind.PACK:
        d, TD, n = g.buf(ni, "dst")
        s, _, _ = g.buf(ni, "src")
        f, TF, _ = g.buf(ni, "operand")
        j = g.out(ni)
        k = g.pack(ni)
        # Strip-mined like the vcompress kernel; each strip holding a
        # survivor counts toward the variable charge. The store is
        # branchless: every lane writes dst[cnt] (cnt never passes i,
        # so in-place packs are safe) and only survivors advance cnt.
        # The one lane past the survivors that this clobbers is saved
        # up front and restored, so dst matches the codegen tier.
        pre.append(f"int64_t vl = vlmax[{k}];")
        pre.append("uint64_t cnt = 0, sws = 0, kept = 0;")
        loop(n, f"kept += {f}[i] != 0;")
        out.append(f"    {TD} spare = kept < (uint64_t){n} ? {d}[kept] : 0;")
        out.append(f"    for (int64_t i0 = 0; i0 < {n}; i0 += vl) {{")
        out.append(f"        int64_t e = i0 + vl < {n} ? i0 + vl : {n};")
        out.append("        uint64_t c0 = cnt;")
        out.append("        for (int64_t i = i0; i < e; ++i) {")
        out.append(f"            {TF} fv = {f}[i];")
        out.append(f"            {d}[cnt] = ({TD}){s}[i];")
        out.append("            cnt += fv != 0;")
        out.append("        }")
        out.append("        sws += cnt != c0;")
        out.append("    }")
        out.append(f"    if (kept < (uint64_t){n}) {d}[kept] = spare;")
        out.append(f"    outs[{j}] = cnt;")
        out.append(f"    strips[{k}] = sws;")
    elif kind is Kind.ENUMERATE:
        d, TD, n = g.buf(ni, "dst")
        f, TF, _ = g.buf(ni, "src")
        x = g.scalar(ni, pre)
        j = g.out(ni)
        pre.append(f"{TF} want = ({TF})({x} ? 1u : 0u);")
        pre.append("uint64_t cnt = 0;")
        # read the flag before writing the rank: enumerate may run
        # in place over its own flag vector
        loop(n, f"{TF} fv = {f}[i];", f"{d}[i] = ({TD})cnt;",
             "cnt += fv == want;")
        out.append(f"    outs[{j}] = cnt;")
    elif kind is Kind.REDUCE:
        s, TS, n = g.buf(ni, "src")
        if node.op not in _SCANOP_MACRO:
            raise _Ineligible(f"reduce operator {node.op!r}")
        m = _SCANOP_MACRO[node.op]
        dt = plan.buffers[node.src].dtype
        j = g.out(ni)
        pre.append(f"{TS} acc = ({TS}){_ident(node.op, dt)};")
        loop(n, f"acc = {m}({TS}, acc, {s}[i]);")
        out.append(f"    outs[{j}] = (uint64_t)acc;")
    elif kind is Kind.SHIFT1UP:
        d, TD, n = g.buf(ni, "dst")
        s, _, _ = g.buf(ni, "src")
        x = g.scalar(ni, pre)
        # backward: alias-safe when shifting a buffer onto itself
        out.append(f"    for (int64_t i = {n} - 1; i >= 1; --i) "
                   f"{d}[i] = ({TD}){s}[i - 1];")
        out.append(f"    if ({n} > 0) {d}[0] = ({TD}){x};")
    elif kind is Kind.COPY:
        d, TD, n = g.buf(ni, "dst")
        s, _, _ = g.buf(ni, "src")
        loop(n, f"{d}[i] = ({TD}){s}[i];")
    elif kind is Kind.INDEX:
        d, TD, n = g.buf(ni, "dst")
        loop(n, f"{d}[i] = ({TD})(uint64_t)i;")
    else:  # pragma: no cover - NATIVE_KINDS check above is exhaustive
        raise _Ineligible(f"kind {kind.value}")

    out[1:1] = [f"    {l}" for l in pre]
    out.append("}")
    g.blocks.append(out)


def _pack_vlmax(machine, plan: Plan, node) -> int:
    """A pack node's strip length: VLMAX for its source's SEW at its
    LMUL, exactly what the vcompress kernel strips by."""
    return machine.vlmax(sew_for_dtype(plan.buffers[node.src].dtype),
                         node.lmul)


def lower_plan(plan: Plan, fused: FusedPlan) -> "NativePlan | None":
    """Lower a fused plan to C source + binding metadata, or None when
    the plan is structurally ineligible. Pure: consumes only
    signature-stable plan facts, touches no toolchain. The source
    depends on the plan's structure alone — never on buffer lengths —
    so every length of one pipeline shares one digest and one ``.so``."""
    if not fused.units:
        return None
    g = _Gen(plan)
    try:
        for unit in fused.units:
            if isinstance(unit, GroupSpec):
                _emit_group(g, unit)
            else:
                _emit_node(g, unit)
    except _Ineligible:
        return None
    if not g.buf_slots:
        return None

    nb = len(g.buf_slots)
    nout = len(g.future_nodes) + len(g.pack_nodes)
    oob = nout if g.checks_index else None
    nout += g.checks_index
    decls = []
    sizes = []
    for s, (ni, fld) in enumerate(g.buf_slots):
        size = plan.buffers[getattr(plan.nodes[ni], fld)].dtype.itemsize
        T = _CTYPE[size]
        decls.append(f"    {T} *b{s} = ({T} *)bufs[{s}];")
        # (void): a slot read only as an operand leaves its length
        # unused, and the source must compile -Wall -Wextra clean
        decls.append(f"    const int64_t n{s} = lens[{s}]; (void)n{s};")
        sizes.append(size)
    # the tables' tails: pack strip lengths follow the buffer lengths,
    # survivor-strip counts follow the produced futures
    decls.append(f"    const int64_t *vlmax = lens + {nb};")
    decls.append(f"    uint64_t *strips = outs + {len(g.future_nodes)};")
    if oob is not None:
        decls.append(f"    uint64_t *oob = outs + {oob};")
        decls.append("    *oob = 0;")

    src = [f"/* generated by repro.engine.native v{NATIVE_VERSION}"
           " -- do not edit */", _HEADER]
    src.append("static void plan_body(uint8_t **bufs,"
               " const uint64_t *scalars,")
    src.append("                      const int64_t *sel, uint64_t *outs,")
    src.append("                      const int64_t *lens)")
    src.append("{")
    src += decls
    src.append("    (void)scalars; (void)sel; (void)vlmax; (void)strips;")
    for block in g.blocks:
        src += [f"    {l}" for l in block]
    src.append("}")
    src.append("")
    src.append("void plan_run2d(uint8_t **bufs, const uint64_t *scalars,")
    src.append("                const int64_t *sel, uint64_t *outs,"
               " const int64_t *lens, int64_t b)")
    src.append("{")
    src.append(f"    static const int64_t size[{nb}] = "
               f"{{{', '.join(str(z) for z in sizes)}}};")
    src.append(f"    uint8_t *row[{nb}];")
    src.append("    for (int64_t r = 0; r < b; ++r) {")
    src.append(f"        for (int s = 0; s < {nb}; ++s)"
               " row[s] = bufs[s] + r * size[s] * lens[s];")
    src.append(f"        plan_body(row, scalars, sel, outs + r * {nout}, lens);")
    src.append("    }")
    src.append("}")

    meta = {
        "buf_slots": g.buf_slots,
        "scalar_slots": g.scalar_slots,
        "future_nodes": g.future_nodes,
        "free_nodes": g.free_nodes,
        "pack_nodes": g.pack_nodes,
        "oob": oob,
        "nout": nout,
    }
    return NativePlan("\n".join(src) + "\n", meta)


# ---------------------------------------------------------------------------
# the compiled-plan handle
# ---------------------------------------------------------------------------

class NativePlan:
    """One plan-cache entry's native artifact: the generated C source
    plus the call-time binding tables. The ``.so`` binding is
    per-process; the argument tables (:meth:`_layout`) are per
    thread."""

    def __init__(self, source: str, meta: dict) -> None:
        self.source = source
        self.meta = meta
        self.digest = hashlib.sha256(
            f"v{NATIVE_VERSION}\n{' '.join(CFLAGS)}\n{source}".encode()
        ).hexdigest()[:16]
        self._fn = None
        #: Whether :meth:`ensure` ran ``cc`` for this plan (False when
        #: it bound an artifact already on disk or in this process).
        self.built = False
        self._local = threading.local()

    # -- binding -----------------------------------------------------------

    def ensure(self, art_dir=None) -> bool:
        """Bind the compiled entry point, building the artifact in
        ``art_dir`` (a per-process temporary directory when None) on
        first use. False (never an exception) when no toolchain is
        available or the build fails."""
        if self._fn is not None:
            return True
        key = (art_dir, self.digest)
        with _SO_LOCK:
            if key not in _SO_CACHE:
                _SO_CACHE[key], self.built = _build(
                    self.source, self.digest, art_dir)
            self._fn = _SO_CACHE[key]
        return self._fn is not None

    def _layout(self, machine, plan: Plan) -> tuple:
        """This thread's argument tables, built on its first call.
        Everything in them is fixed by the plan-cache key, and a
        NativePlan serves one cache entry: the α-slot each buffer slot
        binds (see :meth:`~repro.engine.ir.Plan._alpha`), the α-slots
        the plan frees, the ``lens`` table (buffer n, VLEN, SEW and
        LMUL are all in the key) and the argument addresses. Per
        thread because the tables are the call's scratch memory."""
        meta = self.meta
        nodes = plan.nodes
        alpha_bufs = plan._alpha()[0]
        slot_of = {buf.bid: a for a, buf in enumerate(alpha_bufs)}
        alpha_of = tuple(slot_of[getattr(nodes[ni], fld)]
                         for ni, fld in meta["buf_slots"])
        free_alpha = tuple(slot_of[nodes[ni].dst]
                           for ni in meta["free_nodes"])
        nb = len(alpha_of)
        npk = len(meta["pack_nodes"])
        ns = max(len(meta["scalar_slots"]), 1)
        bufs = (ctypes.c_uint64 * nb)()
        scalars = (ctypes.c_uint64 * ns)()
        sel = (ctypes.c_int64 * ns)()
        outs = (ctypes.c_uint64 * max(meta["nout"], 1))()
        lens = (ctypes.c_int64 * (nb + npk))()
        for j, a in enumerate(alpha_of):
            lens[j] = alpha_bufs[a].n
        for k, ni in enumerate(meta["pack_nodes"]):
            lens[nb + k] = _pack_vlmax(machine, plan, nodes[ni])
        nf = len(meta["future_nodes"])
        args = (ctypes.addressof(bufs), ctypes.addressof(scalars),
                ctypes.addressof(sel), ctypes.addressof(outs),
                ctypes.addressof(lens), 1)
        # [memory, host address of its byte 0] of the last buffer
        # bound: Memory never reallocates its bytes
        base = [None, 0]
        layout = (bufs, scalars, sel, outs, lens, alpha_of, free_alpha,
                  slice(nf, nf + npk), base, args)
        # the plan whose pointers and scalars the tables hold
        self._local.last = None
        self._local.layout = layout
        return layout

    def _fill_scalars(self, nodes, scalars, sel) -> list:
        """Resolve each runtime scalar: a future produced by this very
        plan routes through the kernel's outs table (``sel``) — checked
        *before* ``resolved``, because a replayed plan's futures still
        hold last run's values; anything else resolves to a literal.
        Returns ``(slot, future)`` for each future produced outside the
        plan, whose value a replay of this plan must read again."""
        future_nodes = self.meta["future_nodes"]
        outside = []
        for k, ni in enumerate(self.meta["scalar_slots"]):
            sc = nodes[ni].scalar
            idx = -1
            if isinstance(sc, ScalarFuture):
                for j, fni in enumerate(future_nodes):
                    if nodes[fni].future is sc:
                        idx = j
                        break
                else:
                    outside.append((k, sc))
            sel[k] = idx
            scalars[k] = 0 if idx >= 0 else resolve_scalar(sc) & _U64
        return outside

    # -- execution ---------------------------------------------------------

    def run(self, svm, plan: Plan) -> int:
        """Execute the whole plan as one compiled call (``plan_run2d``
        over one row) against the machine's flat memory (zero-copy:
        buffer pointers are computed from the simulated heap
        addresses). Returns the total count of pack strips that held a
        survivor (0 for pack-free plans) — the multiplier of the run's
        data-dependent charge."""
        loc = self._local
        layout = (getattr(loc, "layout", None)
                  or self._layout(svm.machine, plan))
        (bufs, scalars, sel, outs, _, alpha_of, free_alpha, strip_outs,
         base, args) = layout
        alpha_bufs = plan._alpha()[0]
        nodes = plan.nodes
        if loc.last is not plan:
            for j, a in enumerate(alpha_of):
                ptr = alpha_bufs[a].array.ptr
                if ptr.mem is not base[0]:
                    base[0] = ptr.mem
                    base[1] = ptr.mem._bytes.ctypes.data
                bufs[j] = base[1] + ptr.addr
            loc.outside = self._fill_scalars(nodes, scalars, sel)
            loc.last = plan
        else:
            # this thread's last call ran this very plan (a replay
            # loop): its pointers and literals are already in place
            for k, sc in loc.outside:
                scalars[k] = sc.value & _U64
        self._fn(*args)
        meta = self.meta
        oob = meta["oob"]
        if oob is not None and outs[oob]:
            raise IndexError(_OOB_MESSAGE)
        for j, ni in enumerate(meta["future_nodes"]):
            nodes[ni].future.resolve(int(outs[j]))
        # frees run after the kernel: plans never allocate mid-flight,
        # so deferring them cannot change any address the kernel used
        # (after a raise, the executor frees them)
        for a in free_alpha:
            svm.free(alpha_bufs[a].array)
        return sum(outs[strip_outs])

    def run2d(self, svm, plan: Plan, mats) -> None:
        """Batched execution for the 2D bucket runner: every buffer is
        materialized as a C-contiguous ``[b, n]`` matrix of ``mats``
        (a :class:`~repro.batch.runner.Rows`) and the kernel loops rows
        natively; produced futures land in ``mats.fvals`` as per-row
        int64 vectors."""
        layout = (getattr(self._local, "layout", None)
                  or self._layout(svm.machine, plan))
        bufs, scalars, sel, _, lens, alpha_of = layout[:6]
        self._local.last = None  # the tables get matrix pointers
        alpha_bufs = plan._alpha()[0]
        for j, a in enumerate(alpha_of):
            bid = alpha_bufs[a].bid
            mat = mats[bid]
            if not mat.flags["C_CONTIGUOUS"]:
                mat = mats[bid] = np.ascontiguousarray(mat)
            bufs[j] = mat.ctypes.data
        meta = self.meta
        b = mats.b
        outs_mat = np.zeros((b, max(meta["nout"], 1)), dtype=np.uint64)
        nodes = plan.nodes
        self._fill_scalars(nodes, scalars, sel)
        self._fn(ctypes.addressof(bufs), ctypes.addressof(scalars),
                 ctypes.addressof(sel), outs_mat.ctypes.data,
                 ctypes.addressof(lens), b)
        oob = meta["oob"]
        if oob is not None and outs_mat[:, oob].any():
            raise IndexError(_OOB_MESSAGE)
        for j, ni in enumerate(meta["future_nodes"]):
            mats.fvals[nodes[ni].future] = outs_mat[:, j].astype(np.int64)


# ---------------------------------------------------------------------------
# dispatch helper (shared by the executor and the batch runner)
# ---------------------------------------------------------------------------

def native_state(svm, plan: Plan, fused: FusedPlan) -> NativePlan | None:
    """The bound-and-ready NativePlan for this fused plan, or None
    (structurally ineligible, no toolchain, or build failure — the
    caller falls back to the codegen tier). Lowers lazily on first use
    and memoizes the outcome on ``fused.native``."""
    state = fused.native
    if state is None:
        state = lower_plan(plan, fused)
        fused.native = state if state is not None else "unavailable"
        state = fused.native
    if not isinstance(state, NativePlan):
        return None
    if state._fn is not None:  # hot path: already bound
        return state
    if not state.ensure(artifact_dir(svm.cache_dir)):
        return None
    return state
