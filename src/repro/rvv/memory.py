"""Simulated flat memory with an exact-size-reuse free-list allocator.

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

Reuse policy: a freed block goes onto a LIFO list keyed by its rounded
size, and ``malloc`` of that size pops the block freed last — O(1), so
a warm call that allocates and frees the same shapes every time gets
the same blocks back. Only a miss runs first-fit over the
address-ordered free list; when that fails, every listed block returns
to the free list, neighbours coalesce and first-fit runs once more, so
:class:`~repro.errors.MemoryError_` means no coalesced run fits.
``live_bytes`` still counts only allocated blocks (a listed block is
free), blocks stay 16-byte aligned, and freeing a block twice raises.
"""

from __future__ import annotations

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


class Pointer:
    """A typed C-style pointer into simulated :class:`Memory`.

    ``ptr + k`` advances by ``k`` elements (not bytes), so the paper's
    ``src += vl`` strip-mining idiom translates directly. Immutable;
    two pointers are equal when they name the same memory, address
    and dtype.
    """

    __slots__ = ("mem", "addr", "dtype")

    def __init__(self, mem: Memory, addr: int, dtype: np.dtype) -> None:
        _set_mem(self, mem)
        _set_addr(self, addr)
        _set_dtype(self, dtype if isinstance(dtype, np.dtype) else np.dtype(dtype))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: Pointer is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not Pointer:
            return NotImplemented
        return (self.mem, self.addr, self.dtype) == (other.mem, other.addr, other.dtype)

    def __hash__(self) -> int:
        return hash((self.mem, self.addr, self.dtype))

    def __repr__(self) -> str:
        return f"Pointer(mem={self.mem!r}, addr={self.addr!r}, dtype={self.dtype!r})"

    def __reduce__(self):
        return Pointer, (self.mem, self.addr, self.dtype)

    def __add__(self, elements: int) -> "Pointer":
        return Pointer(self.mem, self.addr + int(elements) * self.dtype.itemsize, self.dtype)

    def view(self, count: int) -> np.ndarray:
        """Writable view of ``count`` elements starting here."""
        return self.mem.view(self.addr, count, self.dtype)

    def view_unchecked(self, count: int) -> np.ndarray:
        """:meth:`view` without :meth:`Memory.view`'s bounds and
        alignment checks, for a block the heap handed out: in bounds
        and aligned by construction."""
        return self.mem._bytes[
            self.addr:self.addr + count * self.dtype.itemsize].view(self.dtype)

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


#: The slots' own setters: Pointer disables ``__setattr__``, and these
#: cost less per call than ``object.__setattr__``.
_set_mem = Pointer.mem.__set__
_set_addr = Pointer.addr.__set__
_set_dtype = Pointer.dtype.__set__


class Allocator:
    """Free-list allocator with exact-size reuse over a :class:`Memory`
    region (the policy is in the module docstring).

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
        # free list of (addr, size), address-ordered and coalesced; it
        # excludes the freed blocks waiting in the size lists
        self._free: list[tuple[int, int]] = [(base, self.limit - base)]
        # rounded size -> addresses of freed blocks, last freed on top
        self._sized: dict[int, list[int]] = {}
        self._live: dict[int, int] = {}

    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` and return the byte address."""
        if nbytes < 0:
            raise MemoryError_(f"malloc of negative size {nbytes}")
        align = self.ALIGN
        size = -(-nbytes // align) * align or align
        stack = self._sized.get(size)
        if stack:
            addr = stack.pop()
        else:
            addr = self._first_fit(size)
            if addr is None and self._sized:
                self._coalesce()
                addr = self._first_fit(size)
            if addr is None:
                raise MemoryError_(
                    f"out of simulated memory allocating {nbytes} bytes")
        self._live[addr] = size
        return addr

    def _first_fit(self, size: int) -> int | None:
        free = self._free
        for i, (addr, avail) in enumerate(free):
            if avail >= size:
                if avail == size:
                    del free[i]
                else:
                    free[i] = (addr + size, avail - size)
                return addr
        return None

    def _coalesce(self) -> None:
        """Return every size-listed block to the free list and merge
        address neighbours."""
        blocks = self._free + [(addr, size) for size, stack in self._sized.items()
                               for addr in stack]
        self._sized.clear()
        blocks.sort()
        merged: list[tuple[int, int]] = []
        for a, s in blocks:
            if merged and merged[-1][0] + merged[-1][1] == a:
                merged[-1] = (merged[-1][0], merged[-1][1] + s)
            else:
                merged.append((a, s))
        self._free = merged

    def free(self, addr: int) -> None:
        """Release a block previously returned by :meth:`malloc`."""
        try:
            size = self._live.pop(addr)
        except KeyError:
            raise MemoryError_(f"free of unallocated address {addr}") from None
        stack = self._sized.get(size)
        if stack is None:
            self._sized[size] = [addr]
        else:
            stack.append(addr)

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
