"""Simulated flat memory with a bump/free-list allocator.

The paper's kernels operate on C arrays reached through raw pointers
(``unsigned int *src``) and allocate scratch space with ``malloc``
(Listings 7 and 9). This module supplies the equivalent substrate:

* :class:`Memory` — a flat little-endian byte array with typed
  load/store helpers. Vector load/store intrinsics read and write
  typed *views* of this array, so unit-stride accesses stay NumPy-fast
  (no per-element Python work), per the HPC guides.
* :class:`Pointer` — a (memory, byte address, dtype) triple supporting
  C-style pointer arithmetic (``p + k`` advances ``k`` *elements*).
* :class:`Allocator` — ``malloc``/``free`` over a region of the memory,
  with an instruction-cost model attached (see
  :mod:`repro.scalar.malloc_model`): Table 1's per-element cost jump
  between N=10^4 and N=10^5 traces to glibc switching to ``mmap`` for
  large blocks, whose page faults execute counted proxy-kernel code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MemoryError_

__all__ = ["Memory", "Pointer", "Allocator"]

#: Default simulated memory size: 64 MiB, enough for the paper's largest
#: workload (10^6 u32 elements plus radix-sort scratch) with headroom.
DEFAULT_SIZE = 64 * 1024 * 1024


class Memory:
    """Flat byte-addressable memory backed by a NumPy uint8 array."""

    __slots__ = ("size", "_bytes")

    def __init__(self, size: int = DEFAULT_SIZE) -> None:
        if size <= 0:
            raise MemoryError_(f"memory size must be positive, got {size}")
        self.size = int(size)
        self._bytes = np.zeros(self.size, dtype=np.uint8)

    # -- bounds ----------------------------------------------------------
    def check(self, addr: int, nbytes: int) -> None:
        """Raise :class:`MemoryError_` unless [addr, addr+nbytes) is valid."""
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size:
            raise MemoryError_(
                f"access [{addr}, {addr + nbytes}) outside memory of size {self.size}"
            )

    # -- typed views ------------------------------------------------------
    def view(self, addr: int, count: int, dtype: np.dtype) -> np.ndarray:
        """A writable typed view of ``count`` elements at byte ``addr``.

        The address must be aligned to the element size, matching RVV's
        effective-element-size alignment requirement for unit-stride
        accesses.
        """
        dtype = np.dtype(dtype)
        nbytes = count * dtype.itemsize
        self.check(addr, nbytes)
        if addr % dtype.itemsize:
            raise MemoryError_(
                f"misaligned access: address {addr} for element size {dtype.itemsize}"
            )
        return self._bytes[addr : addr + nbytes].view(dtype)

    def load(self, addr: int, count: int, dtype: np.dtype) -> np.ndarray:
        """Copy ``count`` elements out of memory."""
        return self.view(addr, count, dtype).copy()

    def store(self, addr: int, values: np.ndarray) -> None:
        """Write a typed array into memory at byte ``addr``."""
        values = np.asarray(values)
        self.view(addr, values.size, values.dtype)[:] = values

    # -- scattered (indexed) access ---------------------------------------
    def gather(self, base: int, byte_offsets: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Indexed load: element i comes from ``base + byte_offsets[i]``."""
        dtype = np.dtype(dtype)
        if byte_offsets.size == 0:
            return np.empty(0, dtype=dtype)
        addrs = base + byte_offsets.astype(np.int64)
        lo, hi = int(addrs.min()), int(addrs.max())
        self.check(lo, (hi - lo) + dtype.itemsize)
        if np.any(addrs % dtype.itemsize):
            raise MemoryError_("misaligned indexed load")
        flat = self._bytes.view(dtype)
        return flat[addrs // dtype.itemsize].copy()

    def scatter(self, base: int, byte_offsets: np.ndarray, values: np.ndarray) -> None:
        """Indexed store: element i goes to ``base + byte_offsets[i]``.

        This is the semantics of RVV's ``vsuxei`` used by the paper's
        ``permute`` primitive (Listing 5). Overlapping destinations are
        written in element order (last writer wins), matching the
        unordered-store instruction's permitted behaviour for the
        permutation use case where indices are unique.
        """
        values = np.asarray(values)
        if values.size == 0:
            return
        addrs = base + byte_offsets.astype(np.int64)
        lo, hi = int(addrs.min()), int(addrs.max())
        self.check(lo, (hi - lo) + values.dtype.itemsize)
        if np.any(addrs % values.dtype.itemsize):
            raise MemoryError_("misaligned indexed store")
        flat = self._bytes.view(values.dtype)
        flat[addrs // values.dtype.itemsize] = values


@dataclass(frozen=True)
class Pointer:
    """A typed C-style pointer into simulated :class:`Memory`.

    ``ptr + k`` advances by ``k`` elements (not bytes), so the paper's
    ``src += vl`` strip-mining idiom translates directly.
    """

    mem: Memory
    addr: int
    dtype: np.dtype

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))

    def __add__(self, elements: int) -> "Pointer":
        return Pointer(self.mem, self.addr + int(elements) * self.dtype.itemsize, self.dtype)

    def view(self, count: int) -> np.ndarray:
        """Writable view of ``count`` elements starting here."""
        return self.mem.view(self.addr, count, self.dtype)

    def read(self, count: int) -> np.ndarray:
        """Copy of ``count`` elements starting here."""
        return self.mem.load(self.addr, count, self.dtype)

    def write(self, values: np.ndarray) -> None:
        """Store elements starting here."""
        self.mem.store(self.addr, np.asarray(values, dtype=self.dtype))

    def cast(self, dtype: np.dtype) -> "Pointer":
        """Reinterpret the pointee type (like a C cast)."""
        return Pointer(self.mem, self.addr, np.dtype(dtype))

    def __getitem__(self, i: int) -> int:
        """Scalar element load, ``ptr[i]`` — e.g. the carry read
        ``carry = src[vl - 1]`` in Listing 6."""
        return self.mem.view(self.addr + i * self.dtype.itemsize, 1, self.dtype)[0].item()

    def __setitem__(self, i: int, value: int) -> None:
        self.mem.view(self.addr + i * self.dtype.itemsize, 1, self.dtype)[0] = value


class Allocator:
    """First-fit free-list allocator over a :class:`Memory` region.

    Mirrors the lifetime behaviour of the paper's listings (scratch
    buffers malloc'd and freed per ``split`` call). The *instruction
    cost* of allocation is modeled separately by
    :class:`repro.scalar.malloc_model.MallocModel` so that machines can
    opt in (Table 1 reproduction) or out (primitive microbenchmarks,
    which allocate nothing).
    """

    #: Allocation granularity (glibc-style 16-byte alignment).
    ALIGN = 16

    def __init__(self, mem: Memory, base: int = 0, limit: int | None = None) -> None:
        self.mem = mem
        self.base = base
        self.limit = mem.size if limit is None else limit
        if not (0 <= base < self.limit <= mem.size):
            raise MemoryError_(f"bad allocator region [{base}, {limit})")
        # free list of (addr, size), address-ordered
        self._free: list[tuple[int, int]] = [(base, self.limit - base)]
        self._live: dict[int, int] = {}

    @staticmethod
    def _round(n: int) -> int:
        return (n + Allocator.ALIGN - 1) // Allocator.ALIGN * Allocator.ALIGN

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` and return the byte address."""
        if nbytes < 0:
            raise MemoryError_(f"malloc of negative size {nbytes}")
        size = max(self._round(nbytes), self.ALIGN)
        for i, (addr, avail) in enumerate(self._free):
            if avail >= size:
                if avail == size:
                    del self._free[i]
                else:
                    self._free[i] = (addr + size, avail - size)
                self._live[addr] = size
                return addr
        raise MemoryError_(f"out of simulated memory allocating {nbytes} bytes")

    def free(self, addr: int) -> None:
        """Release a block previously returned by :meth:`malloc`."""
        try:
            size = self._live.pop(addr)
        except KeyError:
            raise MemoryError_(f"free of unallocated address {addr}") from None
        self._free.append((addr, size))
        self._free.sort()
        # coalesce neighbours
        merged: list[tuple[int, int]] = []
        for a, s in self._free:
            if merged and merged[-1][0] + merged[-1][1] == a:
                merged[-1] = (merged[-1][0], merged[-1][1] + s)
            else:
                merged.append((a, s))
        self._free = merged

    def alloc_array(self, count: int, dtype: np.dtype) -> Pointer:
        """malloc ``count`` elements and return a typed pointer."""
        dtype = np.dtype(dtype)
        addr = self.malloc(count * dtype.itemsize)
        return Pointer(self.mem, addr, dtype)

    def is_live(self, addr: int) -> bool:
        """Whether ``addr`` is an allocated block."""
        return addr in self._live

    @property
    def live_bytes(self) -> int:
        """Total bytes currently allocated (leak checking in tests)."""
        return sum(self._live.values())
