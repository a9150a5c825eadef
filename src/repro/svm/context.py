"""The scan vector model context — the library's main public API.

:class:`SVM` binds a machine to the primitive set of Blelloch's scan
vector model as supported by the paper: elementwise instructions,
permutation instructions, scan instructions (unsegmented and
segmented), and the derived operations ``enumerate`` and ``split``.
Algorithms written against this interface never touch RVV details —
the paper's stated goal ("parallel algorithms can be developed upon
those primitives without knowing the details of RVV").

Every primitive method is a thin dispatch through the unified
:mod:`repro.svm.opspec` registry: the :class:`~repro.svm.opspec.OpSpec`
declared once per primitive names both the strict per-strip kernel and
the closed-form NumPy fast path, and :meth:`SVM._fast` picks between
them per call. This module therefore imports **no kernel modules** —
``tools/check_opspec.py`` enforces that in CI.

Example
-------
>>> import numpy as np
>>> from repro import SVM
>>> svm = SVM(vlen=256)
>>> a = svm.array([3, 1, 7, 0, 4, 1, 6, 3])
>>> svm.plus_scan(a)
>>> a.to_numpy().tolist()
[3, 4, 11, 11, 15, 16, 22, 25]
>>> svm.instructions > 0
True

Execution modes
---------------
``mode="strict"`` drives the simulated machine intrinsic-by-intrinsic;
``mode="fast"`` uses the NumPy fast path with identical closed-form
counts; ``mode="auto"`` (default) picks per call by array size. The two
modes are bit-identical in results *and* counters (cross-validated in
the integration tests), so the choice only affects host-Python speed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..config import ExecConfig
from ..errors import ConfigurationError, VectorLengthError
from ..rvv.codegen import CodegenModel
from ..rvv.machine import RVVMachine
from ..rvv.memory import Pointer
from ..rvv.types import LMUL
from . import opspec
from .operators import PLUS, BinaryOp

__all__ = ["SVM", "SVMArray"]

#: Below this element count the strict path is cheap enough that auto
#: mode prefers it (keeps tiny calls on the fully-simulated path).
AUTO_FAST_THRESHOLD = 2048


@dataclass
class SVMArray:
    """A typed array living in simulated machine memory.

    Produced by :meth:`SVM.array` / :meth:`SVM.zeros`; primitives
    accept and return these. ``view()`` exposes the live memory as a
    writable NumPy view; ``to_numpy()`` copies.
    """

    ptr: Pointer
    n: int

    @property
    def dtype(self) -> np.dtype:
        return self.ptr.dtype

    def view(self) -> np.ndarray:
        """Writable NumPy view of the underlying simulated memory."""
        return self.ptr.view(self.n)

    def to_numpy(self) -> np.ndarray:
        """A copy of the array contents."""
        return self.ptr.read(self.n)

    def __len__(self) -> int:
        return self.n


class SVM:
    """Scan-vector-model primitives over one RVV machine."""

    def __init__(
        self,
        machine: RVVMachine | None = None,
        *,
        vlen: int | None = None,
        codegen: str | CodegenModel = "ideal",
        mode: str = "auto",
        fast_threshold: int = AUTO_FAST_THRESHOLD,
        lmul: LMUL | None = None,
        malloc_model=None,
        profile: bool | str = False,
        backend: str | None = None,
        cache_dir: str | None = None,
        plan_cache=None,
        config: ExecConfig | None = None,
        digit_bits: int | None = None,
        tune=None,
    ) -> None:
        # One layered resolution for every execution axis: built-in
        # defaults <- REPRO_* environment <- an explicit base `config`
        # <- the individual keyword arguments (None means "not given").
        base = config if config is not None else ExecConfig.from_env()
        cfg = base.override(vlen=vlen, lmul=lmul, backend=backend,
                            cache_dir=cache_dir, digit_bits=digit_bits)
        if machine is None:
            machine = RVVMachine(vlen=cfg.vlen, codegen=codegen,
                                 malloc_model=malloc_model)
        elif machine.vlen != cfg.vlen:
            # an explicit machine is authoritative for VLEN
            cfg = cfg.override(vlen=machine.vlen)
        self.machine = machine
        if mode not in ("strict", "fast", "auto"):
            raise ConfigurationError(
                f"mode must be 'strict', 'fast' or 'auto', got {mode!r}"
            )
        self.mode = mode
        self.fast_threshold = int(fast_threshold)
        #: The resolved :class:`~repro.config.ExecConfig` of this
        #: context. ``lmul``/``backend``/``cache_dir`` below are plain
        #: attribute views of it, kept for the established surface.
        self.config = cfg
        self.lmul = cfg.lmul
        #: Fast-path backend for the lazy engine: "codegen" (default)
        #: runs generated kernels, "native" compiled whole-plan C
        #: kernels with counters kept identical, "native-speed" the
        #: same kernels with counters compiled out; None defers to
        #: REPRO_BACKEND / the engine
        #: default. Native tiers fall back to codegen when the plan is
        #: ineligible or no C toolchain is present.
        self.backend = cfg.backend
        #: Persistent cache directory (REPRO_CACHE_DIR when not given):
        #: the TuningDB and the native tier's compiled C artifacts
        #: (see engine.native.artifact_dir); None persists nothing.
        self.cache_dir = cfg.cache_dir
        #: Optional externally-owned :class:`~repro.engine.cache.PlanCache`
        #: shared with other contexts (the serving daemon's worker pool
        #: hands every worker the same warm cache); None gives the
        #: engine a private cache.
        self.plan_cache = plan_cache
        #: Shape-aware dispatch tuning: None (off), "auto" (consult the
        #: persistent TuningDB under ``cache_dir`` /
        #: ``default_cache_dir()``), or an explicit
        #: :class:`~repro.tune.TunePolicy`. The policy is consulted
        #: once per (plan fingerprint, n-bucket) at plan-dispatch time
        #: (see :meth:`repro.engine.Engine.fused_for`) and only ever
        #: *selects* a config — execution stays bit- and
        #: counter-identical to an SVM pinned to that config.
        self.tune = tune
        if tune is not None and not (tune == "auto" or hasattr(tune, "apply")):
            raise ConfigurationError(
                f"tune must be None, 'auto' or a TunePolicy, got {tune!r}"
            )
        self._tune_policy = None  # lazily-resolved TunePolicy
        self._engine = None  # lazily-created repro.engine.Engine
        if profile not in (False, True, "strips"):
            raise ConfigurationError(
                f"profile must be False, True or 'strips', got {profile!r}"
            )
        if profile:
            from ..obs import ProfileCollector  # local: obs is optional here

            machine.collector = ProfileCollector(
                machine, strips=(profile == "strips")
            )

    # ------------------------------------------------------------------
    # array management
    # ------------------------------------------------------------------
    def array(self, values, dtype=np.uint32) -> SVMArray:
        """Allocate an array in machine memory initialized from
        ``values`` (no instructions charged — test fixtures and
        workload setup are outside the measured kernels)."""
        values = np.asarray(values, dtype=dtype)
        if values.ndim != 1:
            raise VectorLengthError(f"SVM arrays are 1-D, got shape {values.shape}")
        ptr = self.machine.heap.alloc_array(max(values.size, 1), values.dtype)
        if values.size:
            ptr.write(values)
        return SVMArray(ptr, values.size)

    def zeros(self, n: int, dtype=np.uint32) -> SVMArray:
        """Allocate a zero-filled array (uncharged, like :meth:`array`)."""
        return self.array(np.zeros(int(n), dtype=dtype))

    def empty(self, n: int, dtype=np.uint32) -> SVMArray:
        """Allocate an uninitialized array (uncharged)."""
        n = int(n)
        ptr = self.machine.heap.alloc_array(max(n, 1), np.dtype(dtype))
        return SVMArray(ptr, n)

    def free(self, arr: SVMArray) -> None:
        """Release an array's memory (uncharged; the charged path is
        the machine's ``malloc``/``free`` used inside kernels)."""
        self.machine.heap.free(arr.ptr.addr)

    # ------------------------------------------------------------------
    # lazy execution engine (plan capture + strip fusion)
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The lazy execution engine bound to this context (created on
        first use; owns the plan cache)."""
        if self._engine is None:
            from ..engine import Engine  # local import: engine depends on svm

            self._engine = Engine(self, self.plan_cache, backend=self.backend)
        return self._engine

    def _tuner(self):
        """The resolved :class:`~repro.tune.TunePolicy` of this context,
        or None when tuning is off (resolved lazily on first dispatch;
        ``tune="auto"`` loads the TuningDB under ``cache_dir`` falling
        back to :func:`repro.config.default_cache_dir`)."""
        if self.tune is None:
            return None
        if self._tune_policy is None:
            from ..config import default_cache_dir  # local: avoid eager dep
            from ..tune.policy import TunePolicy  # local: tune depends on engine

            if self.tune == "auto":
                root = self.cache_dir or default_cache_dir()
                self._tune_policy = TunePolicy.load(root)
            else:
                self._tune_policy = self.tune
        return self._tune_policy

    @contextmanager
    def lazy(self, *, fuse: bool = True):
        """Record SVM calls instead of executing them; run the captured
        plan — fused by default — when the block exits.

        >>> svm = SVM(vlen=256)
        >>> a = svm.array([1, 2, 3, 4])
        >>> with svm.lazy() as lz:
        ...     lz.p_add(a, 10)
        ...     lz.p_mul(a, 2)
        ...     lz.plus_scan(a)
        >>> a.to_numpy().tolist()
        [22, 46, 72, 100]

        The recorder (a :class:`~repro.engine.capture.PlanBuilder`)
        mirrors the SVM method surface; ops the fuser cannot merge
        replay verbatim. Results and counters never degrade versus
        eager execution: with ``fuse=False`` they are *identical*, with
        fusion the results are bit-identical and no per-category count
        increases. Data-dependent scalars (``pack``/``enumerate``
        counts, ``reduce``) come back as futures; read ``.value`` after
        the block. After exit ``lz.plan`` and ``lz.fused`` hold the
        captured and fused plans for inspection.
        """
        from ..engine.capture import PlanBuilder  # local import as above

        lz = PlanBuilder(self)
        yield lz
        plan = lz.build()
        lz.fused = self.engine.run(plan, fuse=fuse)

    def batch(self, pipe, inputs, *, dtype=np.uint32):
        """Run one pipeline over many inputs through a single cached
        plan per length bucket.

        >>> svm = SVM(vlen=256)
        >>> def pipe(lz, data):
        ...     lz.p_add(data, 10)
        ...     lz.plus_scan(data)
        ...     return data
        >>> res = svm.batch(pipe, [[1, 2], [3, 4, 5]])
        >>> [o.tolist() for o in res]
        [[11, 23], [13, 27, 42]]

        ``pipe(lz, data)`` must return its output array. Results and
        per-category counters are identical to looping single calls;
        see :func:`repro.batch.run_batch` and ``docs/batching.md``.
        """
        from ..batch import run_batch  # local import: batch depends on svm

        return run_batch(self, pipe, inputs, dtype=dtype)

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> int:
        """Total dynamic instruction count so far (the paper's metric)."""
        return self.machine.counters.total

    @property
    def counters(self):
        return self.machine.counters

    @property
    def profiler(self):
        """The installed :class:`~repro.obs.spans.ProfileCollector`
        (None unless constructed with ``profile=...`` or one was
        installed via :func:`repro.obs.profile`)."""
        return self.machine.collector

    def reset(self) -> None:
        """Zero the instruction counters."""
        self.machine.reset_counters()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _fast(self, n: int) -> bool:
        if self.mode == "strict":
            return False
        if self.mode == "fast":
            return True
        return n >= self.fast_threshold

    def _lmul(self, lmul: LMUL | None) -> LMUL:
        return self.lmul if lmul is None else LMUL(lmul)

    def _impl(self, name: str, variant: str, n: int):
        """The registry kernel for ``name``'s ``variant`` on the tier
        :meth:`_fast` selects for a length-``n`` call."""
        spec = opspec.OPSPECS[name]
        return (spec.fast if self._fast(n) else spec.strict)[variant]

    @staticmethod
    def _check_equal_len(*arrays: SVMArray | None) -> int:
        """The common length of ``arrays``, skipping a None (an ``out``
        not given): checked before the output is allocated."""
        n = arrays[0].n
        for a in arrays[1:]:
            if a is not None and a.n != n:
                raise VectorLengthError(f"operand lengths differ: {n} != {a.n}")
        return n

    # ------------------------------------------------------------------
    # elementwise primitives (§4.1) — p_add ... p_sll, p_rsub and the
    # flag compares are generated from the registry below the class
    # body: one OpSpec drives both the method and its capture node.
    # ------------------------------------------------------------------
    def p_select(self, flags: SVMArray, a: SVMArray, b: SVMArray,
                 lmul: LMUL | None = None) -> None:
        """p-select: ``b[i] = a[i] where flags[i] else b[i]``."""
        n = self._check_equal_len(flags, a, b)
        self._impl("p_select", "", n)(
            self.machine, n, flags.ptr, a.ptr, b.ptr, self._lmul(lmul))

    def get_flags(self, src: SVMArray, bit: int, out: SVMArray | None = None,
                  lmul: LMUL | None = None) -> SVMArray:
        """Extract bit ``bit`` of each element into a 0/1 flag vector."""
        self._check_equal_len(src, out)
        flags = self.empty(src.n, src.dtype) if out is None else out
        self._impl("get_flags", "", src.n)(
            self.machine, src.n, src.ptr, flags.ptr, bit, self._lmul(lmul))
        return flags

    # ------------------------------------------------------------------
    # scan primitives (§4.3, §5)
    # ------------------------------------------------------------------
    def scan(self, a: SVMArray, op: str | BinaryOp = PLUS, *,
             inclusive: bool = True, lmul: LMUL | None = None) -> None:
        """⊕-scan of ``a`` in place (inclusive by default)."""
        fn = self._impl("scan", "incl" if inclusive else "excl", a.n)
        fn(self.machine, a.n, a.ptr, op, self._lmul(lmul))

    def plus_scan(self, a: SVMArray, lmul: LMUL | None = None) -> None:
        """The paper's plus-scan (Listing 6): inclusive prefix sums."""
        self.scan(a, PLUS, inclusive=True, lmul=lmul)

    def scan_exclusive(self, a: SVMArray, op: str | BinaryOp = PLUS,
                       lmul: LMUL | None = None) -> None:
        """Exclusive ⊕-scan (Blelloch's original definition)."""
        self.scan(a, op, inclusive=False, lmul=lmul)

    def seg_scan(self, a: SVMArray, head_flags: SVMArray,
                 op: str | BinaryOp = PLUS, *, inclusive: bool = True,
                 lmul: LMUL | None = None) -> None:
        """Segmented ⊕-scan of ``a`` under ``head_flags``, in place."""
        n = self._check_equal_len(a, head_flags)
        fn = self._impl("seg_scan", "incl" if inclusive else "excl", n)
        fn(self.machine, n, a.ptr, head_flags.ptr, op, self._lmul(lmul))

    def seg_plus_scan(self, a: SVMArray, head_flags: SVMArray,
                      lmul: LMUL | None = None) -> None:
        """The paper's segmented plus-scan (Listing 10)."""
        self.seg_scan(a, head_flags, PLUS, inclusive=True, lmul=lmul)

    # ------------------------------------------------------------------
    # permutation primitives (§4.2) and derived ops (§4.4)
    # ------------------------------------------------------------------
    def permute(self, src: SVMArray, index: SVMArray, out: SVMArray | None = None,
                lmul: LMUL | None = None) -> SVMArray:
        """Out-of-place permute: ``out[index[i]] = src[i]`` (Listing 5)."""
        return self._permute("permute", src, index, out, lmul)

    def back_permute(self, src: SVMArray, index: SVMArray,
                     out: SVMArray | None = None, lmul: LMUL | None = None) -> SVMArray:
        """Gather: ``out[i] = src[index[i]]``."""
        return self._permute("back_permute", src, index, out, lmul)

    def _permute(self, name: str, src: SVMArray, index: SVMArray,
                 out: SVMArray | None, lmul: LMUL | None) -> SVMArray:
        """Run ``name``, freeing the output it allocated on an error."""
        n = self._check_equal_len(src, index, out)
        dst = self.empty(n, src.dtype) if out is None else out
        try:
            self._impl(name, "", n)(
                self.machine, n, src.ptr, dst.ptr, index.ptr, self._lmul(lmul))
        except BaseException:
            if out is None:
                self.free(dst)
            raise
        return dst

    def pack(self, src: SVMArray, flags: SVMArray, out: SVMArray | None = None,
             lmul: LMUL | None = None) -> tuple[SVMArray, int]:
        """Stream compaction: keep flagged elements, preserving order.
        Returns (destination array, number kept)."""
        n = self._check_equal_len(src, flags, out)
        dst = self.empty(n, src.dtype) if out is None else out
        kept = self._impl("pack", "", n)(
            self.machine, n, src.ptr, dst.ptr, flags.ptr, self._lmul(lmul))
        return dst, kept

    def enumerate(self, flags: SVMArray, set_bit: bool = True,
                  out: SVMArray | None = None, lmul: LMUL | None = None
                  ) -> tuple[SVMArray, int]:
        """Enumerate (Listing 8): rank each position among those whose
        flag equals ``set_bit``. Returns (ranks array, total count)."""
        n = self._check_equal_len(flags, out)
        dst = self.empty(n, np.uint32) if out is None else out
        count = self._impl("enumerate", "", n)(
            self.machine, n, flags.ptr, dst.ptr, set_bit, self._lmul(lmul))
        return dst, count

    # ------------------------------------------------------------------
    # extended primitives (Blelloch's full elementwise class)
    # ------------------------------------------------------------------
    def index_array(self, n: int, out: SVMArray | None = None,
                    lmul: LMUL | None = None) -> SVMArray:
        """Blelloch's index primitive: the vector ``[0, 1, ..., n-1]``."""
        dst = self.empty(int(n), np.uint32) if out is None else out
        self._impl("index_array", "", dst.n)(
            self.machine, dst.n, dst.ptr, self._lmul(lmul))
        return dst

    def reduce(self, a: SVMArray, op: str | BinaryOp = PLUS,
               lmul: LMUL | None = None) -> int:
        """Full ⊕-reduction of ``a`` to a scalar."""
        return self._impl("reduce", "", a.n)(
            self.machine, a.n, a.ptr, op, self._lmul(lmul))

    def shift1up(self, src: SVMArray, fill: int, out: SVMArray | None = None,
                 lmul: LMUL | None = None) -> SVMArray:
        """Whole-array shift by one lane: ``out[0] = fill``,
        ``out[i] = src[i-1]`` (in place when ``out is src``)."""
        n = self._check_equal_len(src, out)
        dst = self.empty(n, src.dtype) if out is None else out
        self._impl("shift1up", "", n)(
            self.machine, n, src.ptr, dst.ptr, fill, self._lmul(lmul))
        return dst

    def copy(self, src: SVMArray, out: SVMArray | None = None,
             lmul: LMUL | None = None) -> SVMArray:
        """Vector memcpy: a strip-mined vle/vse loop (charged like a
        two-array elementwise pass without the compute op)."""
        n = self._check_equal_len(src, out)
        dst = self.empty(n, src.dtype) if out is None else out
        self._impl("copy", "", n)(
            self.machine, n, src.ptr, dst.ptr, self._lmul(lmul))
        return dst

    def reverse(self, src: SVMArray, out: SVMArray | None = None,
                lmul: LMUL | None = None) -> SVMArray:
        """Reverse ``src`` — a derived permutation: build the reversal
        index vector with ``p_index`` + ``p_rsub`` and gather through
        ``back_permute`` (no dedicated hardware reverse exists in RVV)."""
        idx = self.index_array(src.n, lmul=lmul)
        self.p_rsub(idx, src.n - 1, lmul=lmul)
        result = self.back_permute(src, idx, out=out, lmul=lmul)
        self.free(idx)
        return result

    def split(self, src: SVMArray, flags: SVMArray, out: SVMArray | None = None,
              lmul: LMUL | None = None) -> tuple[SVMArray, int]:
        """Split (Listing 7): stable partition of ``src`` by ``flags``
        (0-flag elements first). Returns (destination, #zeros)."""
        from .split_op import split as _split  # local import: split composes SVM methods

        self._check_equal_len(src, flags, out)
        dst = self.empty(src.n, src.dtype) if out is None else out
        count = _split(self, src, dst, flags, lmul=self._lmul(lmul))
        return dst, count


# ----------------------------------------------------------------------
# registry-generated primitive methods
# ----------------------------------------------------------------------
# The in-place elementwise family and the flag compares share two
# method shapes; the registry fills them in. Each generated method is
# indistinguishable from a hand-written one (name, docstring, spans).

def _make_elementwise(spec: opspec.OpSpec):
    name = spec.name
    if "vv" in spec.node_kinds:
        def method(self, a: SVMArray, x, lmul: LMUL | None = None) -> None:
            if isinstance(x, SVMArray):
                self._check_equal_len(a, x)
                self._impl(name, "vv", a.n)(
                    self.machine, a.n, a.ptr, x.ptr, self._lmul(lmul))
            else:
                self._impl(name, "vx", a.n)(
                    self.machine, a.n, a.ptr, x, self._lmul(lmul))
    else:  # scalar-operand only (shifts, reverse subtract)
        def method(self, a: SVMArray, x: int, lmul: LMUL | None = None) -> None:
            self._impl(name, "vx", a.n)(
                self.machine, a.n, a.ptr, x, self._lmul(lmul))
    method.__name__ = name
    method.__qualname__ = f"SVM.{name}"
    method.__doc__ = spec.doc
    return method


def _make_compare(spec: opspec.OpSpec):
    name = spec.name

    def method(self, a: SVMArray, b, out: SVMArray | None = None,
               lmul: LMUL | None = None) -> SVMArray:
        vv = isinstance(b, SVMArray)
        self._check_equal_len(a, b if vv else None, out)
        dst = self.empty(a.n, np.uint32) if out is None else out
        self._impl(name, "vv" if vv else "vx", a.n)(
            self.machine, a.n, a.ptr, b.ptr if vv else b, dst.ptr,
            self._lmul(lmul))
        return dst

    method.__name__ = name
    method.__qualname__ = f"SVM.{name}"
    method.__doc__ = spec.doc
    return method


for _spec in opspec.iter_specs():
    if "cmp_vx" in _spec.node_kinds.values():
        setattr(SVM, _spec.name, _make_compare(_spec))
    elif "ew_vx" in _spec.node_kinds.values():
        setattr(SVM, _spec.name, _make_elementwise(_spec))
del _spec


# ----------------------------------------------------------------------
# profiling instrumentation
# ----------------------------------------------------------------------
# Each primitive is wrapped so that, when a collector is installed on
# the machine, the call opens a span named after the primitive with
# {n, path} metadata. With no collector the wrapper is a single
# attribute check on top of the original method. Convenience aliases
# that delegate to an instrumented method (plus_scan/scan_exclusive →
# scan, seg_plus_scan → seg_scan, split → split_op.split, reverse →
# index/rsub/back_permute) are left unwrapped so each call produces
# exactly one primitive span. The profiled set is the registry's: every
# non-composite spec gets exactly one span name.
from ..obs.spans import instrument_method as _instrument  # noqa: E402

_PROFILED = tuple(s.name for s in opspec.iter_specs() if s.profiled)
for _name in _PROFILED:
    setattr(SVM, _name, _instrument(getattr(SVM, _name)))
del _name
