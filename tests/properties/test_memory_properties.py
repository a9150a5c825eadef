"""Property-based tests for the memory substrate: the allocator
against a reference model, and scatter/gather inverses."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import MemoryError_
from repro.rvv.memory import Allocator, Memory


@st.composite
def malloc_free_script(draw):
    """A random interleaving of malloc(size) and free(handle) actions."""
    n_ops = draw(st.integers(1, 40))
    ops = []
    live = 0
    for _ in range(n_ops):
        if live and draw(st.booleans()):
            ops.append(("free", draw(st.integers(0, live - 1))))
            live -= 1
        else:
            ops.append(("malloc", draw(st.integers(0, 2000))))
            live += 1
    return ops


@given(script=malloc_free_script())
@settings(max_examples=80, deadline=None)
def test_allocator_blocks_never_overlap(script):
    """Live blocks are disjoint, aligned, inside the region, and
    live_bytes matches a reference tally — for any malloc/free order."""
    heap = Allocator(Memory(1 << 16))
    live: list[tuple[int, int]] = []  # (addr, requested size)
    expected_live_bytes = 0
    for op, arg in script:
        if op == "malloc":
            try:
                addr = heap.malloc(arg)
            except MemoryError_:
                continue  # genuine OOM under this script
            rounded = max((arg + 15) // 16 * 16, 16)
            assert addr % 16 == 0
            assert 0 <= addr and addr + rounded <= 1 << 16
            for other_addr, other_size in live:
                other_rounded = max((other_size + 15) // 16 * 16, 16)
                assert addr + rounded <= other_addr or other_addr + other_rounded <= addr
            live.append((addr, arg))
            expected_live_bytes += rounded
        else:
            addr, size = live.pop(arg % max(len(live), 1))
            heap.free(addr)
            expected_live_bytes -= max((size + 15) // 16 * 16, 16)
    assert heap.live_bytes == expected_live_bytes


@given(script=malloc_free_script())
@settings(max_examples=40, deadline=None)
def test_allocator_full_release_restores_capacity(script):
    heap = Allocator(Memory(1 << 16))
    addrs = []
    for op, arg in script:
        if op == "malloc":
            try:
                addrs.append(heap.malloc(arg))
            except MemoryError_:
                pass
        elif addrs:
            heap.free(addrs.pop(arg % len(addrs)))
    for addr in addrs:
        heap.free(addr)
    # after freeing everything, one maximal block must fit again
    assert heap.malloc((1 << 16) - 16) is not None


HEAP = 4096


def _rounded(nbytes: int) -> int:
    return max((nbytes + 15) // 16 * 16, 16)


def _runs(taken: dict[int, int]) -> list[tuple[int, int]]:
    """The maximal (addr, size) runs of [0, HEAP) outside ``taken``."""
    runs, at = [], 0
    for addr, size in sorted(taken.items()):
        if addr > at:
            runs.append((at, addr - at))
        at = addr + size
    if at < HEAP:
        runs.append((at, HEAP - at))
    return runs


class AllocatorModel(RuleBasedStateMachine):
    """The allocator against a reference model of its policy: a freed
    block waits on its size's LIFO list; a miss takes the first run of
    space that is neither live nor listed; when none fits, the listed
    blocks rejoin the free space and first-fit runs again, and only
    then is the heap out of memory."""

    def __init__(self) -> None:
        super().__init__()
        self.heap = Allocator(Memory(HEAP))
        self.live: dict[int, int] = {}  # addr -> rounded size
        self.listed: dict[int, list[int]] = {}  # size -> freed addrs

    def _expect(self, size: int) -> int | None:
        """The address the policy hands out for ``size``, or None."""
        if self.listed.get(size):
            return self.listed[size].pop()  # the last freed of its size
        taken = dict(self.live)
        taken.update((a, s) for s, addrs in self.listed.items() for a in addrs)
        fit = next((a for a, avail in _runs(taken) if avail >= size), None)
        if fit is None:
            self.listed.clear()  # the listed blocks rejoin the free space
            fit = next((a for a, avail in _runs(self.live) if avail >= size), None)
        return fit

    @rule(nbytes=st.integers(0, 1200))
    def malloc(self, nbytes):
        size = _rounded(nbytes)
        expected = self._expect(size)
        if expected is None:
            # no run of free space fits, however it is merged
            assert all(avail < size for _, avail in _runs(self.live))
            with pytest.raises(MemoryError_):
                self.heap.malloc(nbytes)
            return
        assert self.heap.malloc(nbytes) == expected
        self.live[expected] = size

    @precondition(lambda self: self.live)
    @rule(pick=st.integers(0, 10**6))
    def free(self, pick):
        addr = sorted(self.live)[pick % len(self.live)]
        self.heap.free(addr)
        self.listed.setdefault(self.live.pop(addr), []).append(addr)
        with pytest.raises(MemoryError_):
            self.heap.free(addr)

    @invariant()
    def blocks_aligned_disjoint_and_counted(self):
        blocks = sorted(self.live.items())
        for (a, s), (b, _) in zip(blocks, blocks[1:]):
            assert a + s <= b
        assert all(a % 16 == 0 and a + s <= HEAP for a, s in blocks)
        assert self.heap.live_bytes == sum(self.live.values())


TestAllocatorModel = AllocatorModel.TestCase
TestAllocatorModel.settings = settings(max_examples=60, stateful_step_count=60,
                                       deadline=None)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_scatter_gather_inverse(data):
    """gather(scatter(x)) == x for unique aligned offsets."""
    n = data.draw(st.integers(1, 50))
    values = np.array(
        data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)),
        dtype=np.uint32,
    )
    slots = data.draw(st.permutations(range(n)))
    offsets = np.array(slots, dtype=np.uint32) * 4
    mem = Memory(4096)
    mem.scatter(0, offsets, values)
    back = mem.gather(0, offsets, np.uint32)
    assert np.array_equal(back, values)
