"""Registry-parametrized identity suite.

Every primitive registered in :mod:`repro.svm.opspec` must produce
bit-identical results *and* per-category counters across all five
execution tiers — eager strict, eager fast, lazy strict, lazy codegen,
lazy native (compiled whole-plan C kernels) — over a VLEN × LMUL grid.
The op list is derived from the registry itself, and a completeness
assertion keeps the two in lockstep: registering a new primitive
without adding an invocation here fails the suite.

The native tier runs each plan twice in one context so the second
execution replays the warm plan-cache entry's compiled kernel, charged
the static counter profile like the first; when no C toolchain
is present the tier degrades to codegen and the identity contract
still holds — a dedicated fallback test forces that path.

Composites (reverse, split) are checked for bit-identical results
across all tiers; their lazy counter profile legitimately differs from
eager (the captured lowering allocates uncharged plan temporaries
where the eager body may charge machine mallocs), so only the
strict/fast counter contract is asserted for them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SVM
from repro.rvv.types import LMUL
from repro.svm import opspec
from repro.svm.context import SVMArray

#: Prime length: remainder strips on every (VLEN, LMUL) cell.
N = 97

#: (vlen, lmul) cells — small/large VLEN crossed with no-spill and
#: spill-heavy register pressure.
GRID = [(128, 1), (128, 8), (1024, 1), (1024, 4)]

# ---------------------------------------------------------------------------
# one invocation per registered op
# ---------------------------------------------------------------------------
# Each entry makes exactly ONE primitive call: single calls are where
# the four tiers are contractually counter-identical (multi-op plans
# may legitimately *save* counts through fusion).

_INVOKE = {
    "p_add": lambda api, r: api.p_add(r["a"], 7),
    "p_sub": lambda api, r: api.p_sub(r["a"], r["b"]),
    "p_mul": lambda api, r: api.p_mul(r["a"], 3),
    "p_and": lambda api, r: api.p_and(r["a"], 0xFF00FF),
    "p_or": lambda api, r: api.p_or(r["a"], r["b"]),
    "p_xor": lambda api, r: api.p_xor(r["a"], 0x5A5A5A5A),
    "p_max": lambda api, r: api.p_max(r["a"], r["b"]),
    "p_min": lambda api, r: api.p_min(r["a"], 2**20),
    "p_srl": lambda api, r: api.p_srl(r["a"], 3),
    "p_sll": lambda api, r: api.p_sll(r["a"], 2),
    "p_rsub": lambda api, r: api.p_rsub(r["a"], N - 1),
    "p_select": lambda api, r: api.p_select(r["flags"], r["a"], r["b"]),
    "get_flags": lambda api, r: api.get_flags(r["a"], 3, out=r["out"]),
    "p_lt": lambda api, r: api.p_lt(r["a"], 2**20),
    "p_le": lambda api, r: api.p_le(r["a"], r["b"]),
    "p_gt": lambda api, r: api.p_gt(r["a"], 2**20),
    "p_ge": lambda api, r: api.p_ge(r["a"], 2**20),
    "p_eq": lambda api, r: api.p_eq(r["a"], r["b"]),
    "p_ne": lambda api, r: api.p_ne(r["a"], 0),
    "scan": lambda api, r: api.scan(r["a"]),
    "seg_scan": lambda api, r: api.seg_scan(r["a"], r["heads"]),
    "permute": lambda api, r: api.permute(r["a"], r["idx"], out=r["out"]),
    "back_permute": lambda api, r: api.back_permute(r["a"], r["idx"],
                                                    out=r["out"]),
    "pack": lambda api, r: api.pack(r["a"], r["flags"], out=r["out"]),
    "enumerate": lambda api, r: api.enumerate(r["flags"], out=r["out"]),
    "index_array": lambda api, r: api.index_array(N, out=r["out"]),
    "reduce": lambda api, r: api.reduce(r["a"]),
    "shift1up": lambda api, r: api.shift1up(r["a"], 9, out=r["out"]),
    "copy": lambda api, r: api.copy(r["a"], out=r["out"]),
}

_COMPOSITES = {
    "reverse": lambda api, r: api.reverse(r["a"], out=r["out"]),
    "split": lambda api, r: api.split(r["a"], r["flags"], out=r["out"]),
}


def _inputs(svm, rng):
    return {
        "a": svm.array(rng.integers(0, 2**31, N, dtype=np.uint32)),
        "b": svm.array(rng.integers(1, 2**16, N, dtype=np.uint32)),
        "flags": svm.array(rng.integers(0, 2, N, dtype=np.uint32)),
        "heads": svm.array((rng.integers(0, 4, N) == 0).astype(np.uint32)),
        "idx": svm.array(rng.permutation(N).astype(np.uint32)),
        "out": svm.zeros(N),
    }


def _value(ret):
    """Normalize a primitive's return for comparison (arrays copied,
    futures read, tuples recursed)."""
    if ret is None:
        return None
    if isinstance(ret, SVMArray):
        return ret.to_numpy()
    if isinstance(ret, tuple):
        return tuple(_value(x) for x in ret)
    if hasattr(ret, "value"):  # ScalarFuture — resolved after lazy exit
        return int(ret.value)
    return int(ret)


def _values_equal(a, b) -> bool:
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(_values_equal(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def _run(table, name, vlen, lmul, mode, lazy=False, backend=None):
    """One tier's run: returns ({input name: final contents},
    normalized return value, {category: nonzero count})."""
    svm = SVM(vlen=vlen, mode=mode, lmul=LMUL(lmul), backend=backend)
    rng = np.random.default_rng(0xBEEF)
    r = _inputs(svm, rng)
    svm.reset()
    if lazy:
        with svm.lazy() as lz:
            ret = table[name](lz, r)
    else:
        ret = table[name](svm, r)
    snap = svm.machine.counters.snapshot()
    state = {k: v.to_numpy() for k, v in r.items()}
    counts = {cat.value: k for cat, k in snap.by_category.items() if k}
    return state, _value(ret), counts


def _run_native(table, name, vlen, lmul):
    """The native tier's observation: run the plan twice in one
    context (fresh α-equivalent inputs each time) and report the
    SECOND execution — the one that binds the warm plan-cache entry's
    compiled C kernel."""
    svm = SVM(vlen=vlen, mode="fast", lmul=LMUL(lmul), backend="native")
    state = ret = counts = None
    for _ in range(2):
        rng = np.random.default_rng(0xBEEF)
        r = _inputs(svm, rng)
        svm.reset()
        with svm.lazy() as lz:
            ret = table[name](lz, r)
        snap = svm.machine.counters.snapshot()
        state = {k: v.to_numpy() for k, v in r.items()}
        counts = {cat.value: k for cat, k in snap.by_category.items() if k}
    return state, _value(ret), counts


def _assert_tier_matches(ref, got, *, counters=True, label=""):
    ref_state, ref_val, ref_counts = ref
    got_state, got_val, got_counts = got
    for k in ref_state:
        assert np.array_equal(ref_state[k], got_state[k]), \
            f"{label}: array {k!r} differs"
    assert _values_equal(ref_val, got_val), f"{label}: return value differs"
    if counters:
        assert ref_counts == got_counts, f"{label}: counters differ"


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def test_invoke_table_complete():
    """The suite covers exactly the registry's non-composite surface."""
    registered = {s.name for s in opspec.iter_specs() if not s.composite}
    assert set(_INVOKE) == registered
    composite = {s.name for s in opspec.iter_specs() if s.composite}
    assert set(_COMPOSITES) == composite


@pytest.mark.parametrize("vlen,lmul", GRID)
@pytest.mark.parametrize("name", sorted(_INVOKE))
def test_five_tier_identity(name, vlen, lmul):
    strict = _run(_INVOKE, name, vlen, lmul, "strict")
    fast = _run(_INVOKE, name, vlen, lmul, "fast")
    lazy_strict = _run(_INVOKE, name, vlen, lmul, "strict", lazy=True)
    codegen = _run(_INVOKE, name, vlen, lmul, "fast", lazy=True,
                   backend="codegen")
    native = _run_native(_INVOKE, name, vlen, lmul)
    _assert_tier_matches(strict, fast, label=f"{name} fast")
    _assert_tier_matches(strict, lazy_strict, label=f"{name} lazy-strict")
    _assert_tier_matches(strict, codegen, label=f"{name} lazy-codegen")
    _assert_tier_matches(strict, native, label=f"{name} lazy-native")


@pytest.mark.parametrize("name", sorted(_INVOKE))
def test_no_toolchain_fallback(name, monkeypatch):
    """With the toolchain disabled the native tier must degrade to
    codegen transparently — identical results AND counters."""
    from repro.engine import native as native_mod

    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native_mod.reset_native_caches()
    try:
        assert not native_mod.native_available()
        strict = _run(_INVOKE, name, 128, 1, "strict")
        fell_back = _run_native(_INVOKE, name, 128, 1)
        _assert_tier_matches(strict, fell_back,
                             label=f"{name} native-fallback")
    finally:
        monkeypatch.delenv("REPRO_NATIVE_DISABLE")
        native_mod.reset_native_caches()


@pytest.mark.parametrize("vlen,lmul", GRID)
@pytest.mark.parametrize("name", sorted(_COMPOSITES))
def test_composite_identity(name, vlen, lmul):
    strict = _run(_COMPOSITES, name, vlen, lmul, "strict")
    fast = _run(_COMPOSITES, name, vlen, lmul, "fast")
    lazy_strict = _run(_COMPOSITES, name, vlen, lmul, "strict", lazy=True)
    codegen = _run(_COMPOSITES, name, vlen, lmul, "fast", lazy=True,
                   backend="codegen")
    _assert_tier_matches(strict, fast, label=f"{name} fast")
    # captured composites lower to plan nodes with uncharged scratch
    # temporaries; results must still match bit-for-bit
    _assert_tier_matches(strict, lazy_strict, counters=False,
                         label=f"{name} lazy-strict")
    _assert_tier_matches(strict, codegen, counters=False,
                         label=f"{name} lazy-codegen")
