"""The simulated RVV machine: configuration state, memory, counters.

:class:`RVVMachine` is the substrate every kernel in this library runs
on. It stands in for the paper's evaluation platform — the Spike
functional ISA simulator configured with VLEN in {128, 256, 512, 1024}
(§6.1) — and provides:

* the VLA configuration interface (``vsetvl`` / ``vsetvlmax``), which is
  what makes strip-mined kernels portable across VLEN (§3.1);
* simulated memory with a malloc/free heap (Listings 7/9 allocate
  scratch buffers);
* dynamic-instruction counters (the paper's metric, §6.1);
* a pluggable codegen cost model (:mod:`repro.rvv.codegen`).

The intrinsic layer (:mod:`repro.rvv.intrinsics`) takes the machine as
its first argument, mirroring how the C intrinsics implicitly target
"the" vector unit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from ..errors import ConfigurationError, VectorLengthError
from .codegen import CodegenModel, get_preset
from .counters import Cat, Counters, CounterSnapshot
from .memory import Allocator, Memory, Pointer, DEFAULT_SIZE
from .regfile import RegisterFile
from .types import LMUL, SEW, VType, vlmax_for

__all__ = ["RVVMachine", "strips"]


class _ZeroMallocModel:
    """Cost model charging nothing for allocation (microbenchmarks)."""

    def malloc_cost(self, nbytes: int) -> int:
        return 0

    def free_cost(self, nbytes: int) -> int:
        return 0


class RVVMachine:
    """A VLEN-parameterized functional model of an RVV implementation.

    Parameters
    ----------
    vlen:
        Vector register width in bits. The paper evaluates 128-1024;
        any power of two >= 64 is accepted.
    codegen:
        Cost preset: ``"ideal"`` (default) or ``"paper"``, or a
        :class:`~repro.rvv.codegen.CodegenModel` instance.
    mem_size:
        Simulated memory size in bytes.
    malloc_model:
        Object with ``malloc_cost(nbytes)`` / ``free_cost(nbytes)``
        charging dynamic instructions for heap traffic (see
        :class:`repro.scalar.malloc_model.GlibcMallocModel`). Defaults
        to a zero-cost model.
    """

    def __init__(
        self,
        vlen: int = 1024,
        codegen: str | CodegenModel = "ideal",
        mem_size: int = DEFAULT_SIZE,
        malloc_model=None,
    ) -> None:
        if vlen < 64 or vlen & (vlen - 1):
            raise ConfigurationError(
                f"VLEN must be a power of two >= 64, got {vlen}"
            )
        self.vlen = vlen
        self.codegen = get_preset(codegen)
        self.counters = Counters()
        self.memory = Memory(mem_size)
        self.heap = Allocator(self.memory)
        self.regfile = RegisterFile(vlen)
        self.malloc_model = malloc_model if malloc_model is not None else _ZeroMallocModel()
        #: Installed :class:`~repro.obs.spans.ProfileCollector` (None =
        #: profiling off; the only cost is this attribute's None check).
        self.collector = None
        #: Current vl CSR (set by vsetvl; None until first configuration).
        self.vl: int | None = None
        #: Current vtype CSR.
        self.vtype: VType | None = None

    # ------------------------------------------------------------------
    # configuration-setting instructions (§3.1)
    # ------------------------------------------------------------------
    def vlmax(self, sew: SEW = SEW.E32, lmul: LMUL = LMUL.M1) -> int:
        """Query vlmax without executing an instruction (compile-time
        constant in VLS code; free here for planning purposes)."""
        return vlmax_for(self.vlen, sew, lmul)

    def vsetvl(self, avl: int, sew: SEW = SEW.E32, lmul: LMUL = LMUL.M1) -> int:
        """Execute ``vsetvli``: request ``avl`` elements, receive
        ``min(avl, vlmax)`` and update the vl/vtype CSRs.

        This is the instruction that makes remainder handling free on
        RVV (§3.1): the final strip simply receives a shorter vl.
        """
        if avl < 0:
            raise VectorLengthError(f"AVL must be non-negative, got {avl}")
        vl = min(int(avl), self.vlmax(sew, lmul))
        if self.collector is not None:
            # strip boundary: notify *before* counting so this vsetvl
            # is attributed to the strip it opens
            self.collector.on_vsetvl(vl)
        self.counters.add(Cat.VCONFIG)
        self.vl = vl
        self.vtype = VType(sew, lmul)
        return vl

    def vsetvlmax(self, sew: SEW = SEW.E32, lmul: LMUL = LMUL.M1) -> int:
        """Execute ``vsetvli rd, x0, ...``: configure for vlmax."""
        self.counters.add(Cat.VCONFIG)
        vl = self.vlmax(sew, lmul)
        self.vl = vl
        self.vtype = VType(sew, lmul)
        return vl

    # ------------------------------------------------------------------
    # counting hooks
    # ------------------------------------------------------------------
    def count(self, category: Cat, n: int = 1) -> None:
        """Record ``n`` dynamic instructions of ``category``."""
        self.counters.add(category, n)

    def op(
        self,
        category: Cat,
        dest_undisturbed: bool = False,
        masked: bool = False,
    ) -> None:
        """Record one intrinsic, expanded per the active codegen model."""
        self.counters.add(
            category, self.codegen.op_cost(dest_undisturbed, masked)
        )

    def scalar(self, n: int = 1) -> None:
        """Record ``n`` modeled scalar instructions."""
        self.counters.add(Cat.SCALAR, n)

    def strip_overhead(self, kernel: str, n_arrays: int = 1) -> None:
        """Charge the per-strip scalar bookkeeping for ``kernel``."""
        self.counters.add(Cat.SCALAR, self.codegen.strip_overhead(kernel, n_arrays))

    def inner_overhead(self, kernel: str) -> None:
        """Charge the per-inner-iteration scalar bookkeeping."""
        self.counters.add(Cat.SCALAR, self.codegen.inner_overhead(kernel))

    def prologue(self, kernel: str) -> None:
        """Charge the one-time per-call overhead for ``kernel``."""
        self.counters.add(Cat.SCALAR, self.codegen.prologue(kernel))

    @contextmanager
    def region(self) -> Iterator[CounterSnapshot]:
        """Measure a code region: yields a snapshot object whose contents
        are *replaced* with the delta when the block exits.

        >>> m = RVVMachine()
        >>> with m.region() as r:
        ...     m.vsetvl(10)
        10
        >>> r.total
        1
        """
        before = self.counters.snapshot()
        holder = CounterSnapshot({})
        yield holder
        delta = self.counters.snapshot() - before
        holder.by_category.update(delta.by_category)

    # ------------------------------------------------------------------
    # heap (Listings 7/9 allocate scratch with malloc)
    # ------------------------------------------------------------------
    def malloc(self, nbytes: int) -> int:
        """Allocate heap memory, charging the malloc cost model once the
        heap call succeeds (a failed one charges nothing)."""
        addr = self.heap.malloc(nbytes)
        self.counters.add(Cat.ALLOC, self.malloc_model.malloc_cost(nbytes))
        return addr

    def free(self, addr: int) -> None:
        """Release heap memory, charging the free cost model once the
        heap call succeeds (a double free charges nothing)."""
        size = self.heap._live.get(addr, 0)
        self.heap.free(addr)
        self.counters.add(Cat.ALLOC, self.malloc_model.free_cost(size))

    def alloc_array(self, count: int, dtype: np.dtype = np.uint32) -> Pointer:
        """malloc a typed array and return a pointer to it."""
        dtype = np.dtype(dtype)
        addr = self.malloc(count * dtype.itemsize)
        return Pointer(self.memory, addr, dtype)

    def array(self, values, dtype: np.dtype = np.uint32) -> Pointer:
        """Allocate an array and initialize it from ``values``."""
        values = np.asarray(values, dtype=dtype)
        ptr = self.alloc_array(values.size, values.dtype)
        ptr.write(values)
        return ptr

    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Zero the dynamic-instruction counters."""
        self.counters.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RVVMachine(vlen={self.vlen}, codegen={self.codegen.name!r},"
            f" instructions={self.counters.total})"
        )


def strips(n: int, vlmax: int) -> Iterator[int]:
    """The sequence of vl values a strip-mined loop over ``n`` elements
    receives from ``vsetvl`` with the given vlmax.

    Shared by the strict kernels and the closed-form fast-path counters
    so both walk the identical vl sequence.
    """
    if n < 0:
        raise VectorLengthError(f"element count must be non-negative, got {n}")
    if vlmax < 1:
        raise ConfigurationError(f"vlmax must be >= 1, got {vlmax}")
    remaining = int(n)
    while remaining > 0:
        vl = min(remaining, vlmax)
        yield vl
        remaining -= vl
