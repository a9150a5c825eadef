"""Profiling a lazy call explains the path that runs, without changing it.

One pipeline that records every structured node kind runs profiled in
three ways: strict, fast, and auto with one array on either side of
``fast_threshold``. The engine's one unit loop runs each unit on the
tier its length picks and charges the unit inside its span, so the
three profiles have the same spans with the same counter deltas — only
the recorded ``path`` differs — and a fast node runs its NumPy body,
never an eager SVM primitive or a ``fastpath.fast_*`` kernel.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import SVM
from repro.engine.ir import Kind
from repro.svm.context import SVM as _SVM
from repro.svm.opspec import iter_specs

THRESHOLD = 100
LENGTHS = (300, 40)


def _pipe(lz, a):
    flags = lz.get_flags(a, 0)                       # GET_FLAGS
    lz.p_add(a, 7)                                   # EW_VX ...
    lz.p_mul(a, 3)
    lz.plus_scan(a)                                  # ... SCAN: a group
    shifted = lz.shift1up(a, 3)                      # SHIFT1UP
    lz.p_xor(shifted, a)                             # EW_VV
    heads = lz.p_le(a, shifted)                      # CMP_VV
    lz.seg_scan(a, heads, "max")                     # SEG_SCAN
    keep = lz.p_lt(a, 2**31)                         # CMP_VX
    idx = lz.index_array(a.n)                        # INDEX
    lz.p_rsub(idx, a.n - 1)
    rev = lz.back_permute(a, idx)                    # BACK_PERMUTE
    scattered = lz.permute(a, idx)                   # PERMUTE
    lz.p_select(flags, rev, scattered)               # SELECT
    ranks, count = lz.enumerate(flags)               # ENUMERATE
    packed, kept = lz.pack(scattered, keep)          # PACK
    total = lz.reduce(scattered, "min")              # REDUCE
    copied = lz.copy(scattered)                      # COPY
    for buf in (flags, shifted, heads, keep, idx, rev, packed):
        lz.free(buf)                                 # FREE
    return [a, scattered, ranks, copied], [count, kept, total]


def _profile(mode):
    """The span tree, the results and the (fused plan, plan) of one
    profiled lazy call over both arrays."""
    svm = SVM(vlen=128, mode=mode, fast_threshold=THRESHOLD, profile=True)
    rng = np.random.default_rng(7)
    arrays = [svm.array(rng.integers(0, 2**16, n, dtype=np.uint32))
              for n in LENGTHS]
    with svm.lazy() as lz:
        outs = [_pipe(lz, a) for a in arrays]
    kinds = {node.kind for node in lz.plan.nodes}
    assert kinds == set(Kind)
    results = [([o.to_numpy() for o in bufs], [f.value for f in futs])
               for bufs, futs in outs]
    return svm.profiler.finish(), results, (lz.fused, lz.plan)


def _counts(snapshot) -> Counter:
    return Counter({c: k for c, k in snapshot.by_category.items() if k})


def _summary(root):
    """Preorder (name, metadata but path and backend, counter deltas)
    of every span. ``backend`` names the fast tier's backend, so it
    goes with ``path``."""
    return [(s.name, {k: v for k, v in s.meta.items()
                      if k not in ("path", "backend")}, _counts(s.delta))
            for s in root.walk()]


@pytest.fixture
def no_eager_fast(monkeypatch):
    """Records every eager SVM primitive call and every call of a
    registered ``fastpath.fast_*`` kernel."""
    calls = []
    impl = _SVM._impl
    monkeypatch.setattr(_SVM, "_impl", lambda self, name, *a: (
        calls.append(name), impl(self, name, *a))[1])
    for spec in iter_specs():
        for variant, fn in spec.fast.items():
            monkeypatch.setitem(spec.fast, variant, lambda *a, _f=fn, **k: (
                calls.append(_f.__name__), _f(*a, **k))[1])
    return calls


def test_profiling_keeps_spans_and_deltas_across_tiers(no_eager_fast):
    runs = {}
    for mode in ("strict", "fast", "auto"):
        no_eager_fast.clear()
        runs[mode] = _profile(mode)
        if mode == "fast":
            assert no_eager_fast == []
    strict, fast, auto = (_summary(runs[m][0]) for m in
                          ("strict", "fast", "auto"))
    assert strict == fast == auto
    # every unit but FREE got a span, and the paths are the tiers that ran
    paths = {m: [s.meta["path"] for s in runs[m][0].children
                 if "path" in s.meta] for m in runs}
    fused, plan = runs["auto"][2]
    assert len(paths["auto"]) == sum(
        not isinstance(u, int) or plan.nodes[u].kind is not Kind.FREE
        for u in fused.units)
    assert set(paths["strict"]) == {"strict"}
    assert set(paths["fast"]) == {"fast"}
    assert set(paths["auto"]) == {"fast", "strict"}
    for span in runs["auto"][0].children:
        if "path" in span.meta:
            assert span.meta["path"] == (
                "fast" if span.meta["n"] >= THRESHOLD else "strict")
    # the results agree too (pack's output, whose lanes past the kept
    # count are undefined, is freed)
    for mode in ("fast", "auto"):
        for (want, wf), (got, gf) in zip(runs["strict"][1], runs[mode][1]):
            assert wf == gf
            for w, g in zip(want, got):
                assert np.array_equal(w, g)


@pytest.mark.parametrize("mode", ["strict", "fast", "auto"])
def test_children_sum_exactly_to_parent(mode):
    """Every unit charges inside its own span: each span's children
    add up to it, the root included, so no cost is left unattributed."""
    root = _profile(mode)[0]
    for span in root.walk():
        if span.children:
            total = Counter()
            for child in span.children:
                total.update(_counts(child.delta))
            assert +total == _counts(span.delta), span.name
