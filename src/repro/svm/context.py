"""The scan vector model context — the library's main public API.

:class:`SVM` binds a machine to the primitive set of Blelloch's scan
vector model as supported by the paper: elementwise instructions,
permutation instructions, scan instructions (unsegmented and
segmented), and the derived operations ``enumerate`` and ``split``.
Algorithms written against this interface never touch RVV details —
the paper's stated goal ("parallel algorithms can be developed upon
those primitives without knowing the details of RVV").

The primitives have one front end, the lazy engine's recorder
(:class:`~repro.engine.capture.PlanBuilder`): every primitive method
but :meth:`SVM.split` is generated from its eager subclass, which runs
each recorded node at once through the engine's node step — the
strict per-strip kernel the :mod:`repro.svm.opspec` registry names, or
its node kind's NumPy body, as :meth:`SVM._fast` picks per call, in a
span named after the primitive. Such a method returns its futures as
ints and frees what it allocated when it raises. This module imports
**no kernel modules** — ``tools/check_opspec.py`` enforces that in CI.

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

import inspect
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


def _fitting_cast(src: np.ndarray, dtype) -> np.ndarray:
    """``src`` cast to ``dtype``, or :class:`ValueError` when the cast
    would change a value: an integer out of the target's range (a
    same-width sign flip included, which a round trip would hide), or
    anything that does not survive the cast back (a fraction, NaN)."""
    with np.errstate(invalid="ignore"):
        cast = src.astype(dtype)
    if not src.size:
        return cast
    if src.dtype.kind in "iu" and cast.dtype.kind in "iu":
        info = np.iinfo(cast.dtype)
        lossy = int(src.min()) < info.min or int(src.max()) > info.max
    else:
        lossy = not np.array_equal(cast.astype(src.dtype), src)
    if lossy:
        raise ValueError(f"values of dtype {src.dtype} do not fit {cast.dtype}: "
                         "the cast would change them")
    return cast


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
        #: kernels with counters kept identical; None defers to
        #: REPRO_BACKEND / the engine default. The native tier falls
        #: back to codegen when the plan is ineligible or no C
        #: toolchain is present.
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
        workload setup are outside the measured kernels).

        A NumPy array of another dtype must fit ``dtype``: a cast that
        would change a value (out of range, a fraction, NaN) raises
        :class:`ValueError` instead of wrapping. Arrays already of
        ``dtype``, or of a dtype that casts safely, pay no check."""
        if (isinstance(values, np.ndarray) and values.dtype != dtype
                and not np.can_cast(values.dtype, dtype)):
            values = _fitting_cast(values, dtype)
        else:
            values = np.asarray(values, dtype=dtype)
        if values.ndim != 1:
            raise VectorLengthError(f"SVM arrays are 1-D, got shape {values.shape}")
        arr = self.empty(values.size, values.dtype)
        if values.size:
            arr.ptr.view_unchecked(arr.n)[...] = values
        return arr

    def zeros(self, n: int, dtype=np.uint32) -> SVMArray:
        """Allocate a zero-filled array (uncharged, like :meth:`array`)."""
        arr = self.empty(n, dtype)
        arr.ptr.view_unchecked(arr.n)[...] = 0
        return arr

    def empty(self, n: int, dtype=np.uint32) -> SVMArray:
        """Allocate an uninitialized array (uncharged). The one
        allocation path: a negative ``n`` raises
        :class:`~repro.errors.VectorLengthError` before anything is
        allocated, and a length-0 array still holds one element."""
        n = int(n)
        if n < 0:
            raise VectorLengthError(f"array length must be non-negative, got {n}")
        if not isinstance(dtype, np.dtype):
            dtype = np.dtype(dtype)
        m = self.machine
        return SVMArray(Pointer(m.memory, m.heap.malloc((n or 1) * dtype.itemsize),
                                dtype), n)

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
        has the SVM primitive surface — the SVM primitives are its
        records run at once — and ops the fuser cannot merge run as
        their own units. Results and counters never degrade versus eager
        execution: with ``fuse=False`` they are *identical*, with
        fusion the results are bit-identical and no per-category count
        increases. Data-dependent scalars (``pack``/``enumerate``
        counts, ``reduce``) come back as futures; read ``.value`` after
        the block. After exit ``lz.plan`` and ``lz.fused`` hold the
        captured and fused plans for inspection. A block or plan that
        raises frees the temporaries the recorder allocated.
        """
        lz = PlanBuilder(self)
        try:
            yield lz
            lz.fused = self.engine.run(lz.build(), fuse=fuse)
        except BaseException:
            lz.free_temps()
            raise

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
    # primitives: every one but split is generated below the class body
    # ------------------------------------------------------------------
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
# Every registered primitive and alias but split is the eager recorder's
# method run at once: the recorder checks the operands, allocates the
# output and runs the node through the engine's unit loop, in the
# primitive's span. The engine imports SVMArray from this module, so it
# is imported once that class exists.
from ..engine.capture import EagerRecorder, PlanBuilder  # noqa: E402
from ..engine.ir import ScalarFuture  # noqa: E402


def _primitive(name: str):
    """The SVM method ``name``: :class:`EagerRecorder`'s, with its
    futures returned as ints and what it allocated freed when it
    raises."""
    record = getattr(EagerRecorder, name)
    futures = opspec.get_spec(name).future is not None

    def method(self, *args, **kwargs):
        rec = EagerRecorder(self)
        try:
            result = record(rec, *args, **kwargs)
        except BaseException:
            rec.free_temps()
            raise
        if not futures:
            return result
        if isinstance(result, ScalarFuture):
            return result.value
        return result[0], result[1].value

    method.__name__ = name
    method.__qualname__ = f"SVM.{name}"
    method.__doc__ = opspec.OPSPECS[name].doc if name in opspec.OPSPECS \
        else record.__doc__
    method.__wrapped__ = record
    method.__signature__ = inspect.signature(record).replace(
        return_annotation=inspect.Signature.empty)
    return method


for _name in (*opspec.OPSPECS, *opspec.ALIASES):
    if _name != "split":  # its eager form charges Listing 7's mallocs
        setattr(SVM, _name, _primitive(_name))
del _name
