"""Native backend tier: compiled whole-plan C kernels.

The contracts under test (see ``docs/native.md``):

* ``backend="native"`` — the counter contract: every execution of a
  plan, the first included, runs the compiled C kernel and charges the
  static counter profile computed when the plan compiled, so results
  AND per-category counters stay bit-identical to the strict reference;
* pack — lowered like every other kind: its kernel reports the
  survivor-strip count, so every native run charges the one
  data-dependent term itself and stays counter-identical however the
  survivors move between runs;
* one artifact per pipeline structure — every length of a pipeline
  shares one generated source, one digest and one ``.so``;
* graceful degradation — no toolchain, a structurally ineligible plan
  (in-place scatter), or strict mode all fall back to the codegen tier
  with the full identity contract intact;
* persistence — the ``.c``/``.so`` artifacts land under
  ``<cache_dir>/native/``, and a fresh process over a warm directory
  binds them without running ``cc`` (the ``disk`` resolution);
* binding — each thread builds a plan's argument tables once per cache
  entry; a call refreshes only buffer pointers and scalars;
* bad input — an out-of-range scatter/gather index raises
  ``IndexError``, as on the codegen tier;
* emitted C — no element loop branches on lane data (``p_select`` is
  the paper's masked merge), the source compiles warning-clean, and the
  compiler flags are part of the artifact digest.
"""

from __future__ import annotations

import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import SVM
from repro.engine import native as native_mod
from repro.engine.native import (
    NativePlan,
    find_compiler,
    lower_plan,
    native_available,
    reset_native_caches,
)
from repro.rvv.types import LMUL, SEW, sew_for_dtype, vlmax_for

from .conftest import PIPELINES, make_data

N = 97

#: Pipelines the native tier must fully lower: all of them.
LOWERABLE = sorted(PIPELINES)

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this host"
)


def _observe(svm, pipe, lmul, seed=0, n=N):
    """One captured execution on fresh inputs: (result, counters)."""
    data = make_data(svm, n, seed)
    svm.machine.counters.reset()
    with svm.lazy() as lz:
        out = pipe(lz, data, lmul)
    counts = {cat: k for cat, k in
              svm.machine.counters.snapshot().by_category.items() if k}
    return out.to_numpy(), counts, lz.fused


@pytest.mark.parametrize("name", LOWERABLE)
@needs_cc
def test_warm_run_counter_identity(name):
    """Every run replays the C kernel; results and counters must stay
    identical to the strict reference on every one of them."""
    pipe = PIPELINES[name]
    ref_svm = SVM(vlen=128, mode="strict")
    ref, ref_counts, _ = _observe(ref_svm, pipe, LMUL.M1)

    svm = SVM(vlen=128, mode="fast", backend="native")
    for run in range(3):
        got, counts, fused = _observe(svm, pipe, LMUL.M1)
        assert np.array_equal(ref, got), (name, run)
        assert counts == ref_counts, (name, run)
    # the tier really engaged: the plan lowered, and its compile
    # computed the charge profile the compiled runs apply
    assert isinstance(fused.native, NativePlan), name
    assert fused.charge_items is not None, name


@needs_cc
def test_compiled_replay_actually_runs(monkeypatch):
    """Every execution, the first included, goes through NativePlan.run
    and never through the Python unit loop."""
    from repro.engine import executor

    calls = []
    orig = NativePlan.run
    monkeypatch.setattr(NativePlan, "run",
                        lambda self, svm, plan: (calls.append(1),
                                                 orig(self, svm, plan))[1])
    monkeypatch.setattr(executor, "run_units",
                        lambda *a: calls.append("python"))
    svm = SVM(vlen=128, mode="fast", backend="native")
    pipe = PIPELINES["chain_scan"]
    _observe(svm, pipe, LMUL.M1)
    assert calls == [1]         # the first call runs C
    _observe(svm, pipe, LMUL.M1)
    assert calls == [1, 1]


@needs_cc
def test_future_threading_not_stale():
    """A plan producing a scalar future consumed downstream must
    recompute it per execution — replays on new data may not reuse the
    warm-up's resolved value."""

    def pipe(api, data, lmul):
        total = api.reduce(data, lmul=lmul)
        api.p_add(data, total, lmul=lmul)   # future as scalar operand
        api.plus_scan(data, lmul=lmul)
        return data

    def ref(seed):
        svm = SVM(vlen=128, mode="strict")
        return _observe(svm, pipe, LMUL.M1, seed)[:2]

    svm = SVM(vlen=128, mode="fast", backend="native")
    for seed in (0, 1, 2):      # seed 1, 2 replay with different data
        out, counts, _ = _observe(svm, pipe, LMUL.M1, seed)
        ref_out, ref_counts = ref(seed)
        assert np.array_equal(out, ref_out), seed
        assert counts == ref_counts, seed


def test_no_toolchain_falls_back(monkeypatch):
    """REPRO_NATIVE_DISABLE forces the no-compiler path: the tier
    degrades to codegen with results and counters intact."""
    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    reset_native_caches()
    try:
        assert not native_available()
        pipe = PIPELINES["chain_scan"]
        ref_svm = SVM(vlen=128, mode="fast", backend="codegen")
        ref, ref_counts, _ = _observe(ref_svm, pipe, LMUL.M1)
        svm = SVM(vlen=128, mode="fast", backend="native")
        for run in range(2):
            got, counts, _ = _observe(svm, pipe, LMUL.M1)
            assert np.array_equal(ref, got), run
            assert counts == ref_counts, run
    finally:
        monkeypatch.delenv("REPRO_NATIVE_DISABLE")
        reset_native_caches()


def _observe_inplace_scatter(svm):
    """A permute scattering onto its own source — a plan with no C
    lowering — as one captured execution: (result, counters, fused)."""
    data = make_data(svm, N)
    index = svm.array(np.arange(N, dtype=np.uint32)[::-1].copy())
    svm.machine.counters.reset()
    with svm.lazy() as lz:
        lz.p_add(data, 1)
        lz.permute(data, index, out=data)
        lz.plus_scan(data)
    counts = {cat: k for cat, k in
              svm.machine.counters.snapshot().by_category.items() if k}
    return data.to_numpy(), counts, lz.fused


def test_ineligible_plan_falls_back():
    """An in-place scatter keeps the whole plan on the codegen tier,
    marked 'unavailable' so lowering is attempted exactly once."""
    ref_svm = SVM(vlen=128, mode="fast", backend="codegen")
    ref, ref_counts, _ = _observe_inplace_scatter(ref_svm)
    svm = SVM(vlen=128, mode="fast", backend="native")
    for run in range(2):
        got, counts, fused = _observe_inplace_scatter(svm)
        assert np.array_equal(ref, got), run
        assert counts == ref_counts, run
    assert fused.native == "unavailable"


def test_strict_mode_never_runs_native(monkeypatch):
    """Strict mode fails the all-fast gate: the machine intrinsics
    stay authoritative and the C kernel never executes."""
    calls = []
    monkeypatch.setattr(
        NativePlan, "run",
        lambda self, svm, plan: calls.append(1))
    pipe = PIPELINES["chain_scan"]
    ref_svm = SVM(vlen=128, mode="strict", backend="codegen")
    ref, ref_counts, _ = _observe(ref_svm, pipe, LMUL.M1)
    svm = SVM(vlen=128, mode="strict", backend="native")
    for _ in range(2):
        got, counts, _ = _observe(svm, pipe, LMUL.M1)
        assert np.array_equal(ref, got)
        assert counts == ref_counts
    assert calls == []


@needs_cc
def test_batch_native_2d(monkeypatch):
    """svm.batch under the native backend evaluates whole buckets via
    the compiled 2D entry point with identical results and counters."""
    calls = []
    orig = NativePlan.run2d
    monkeypatch.setattr(
        NativePlan, "run2d",
        lambda self, *a, **k: (calls.append(1), orig(self, *a, **k))[1])

    def pipe(lz, data):
        lz.p_add(data, 10)
        lz.p_xor(data, 3)
        lz.plus_scan(data)
        return data

    rng = np.random.default_rng(5)
    inputs = [rng.integers(0, 2**16, 64).tolist() for _ in range(6)]

    ref_svm = SVM(vlen=128, mode="strict")
    ref = ref_svm.batch(pipe, inputs)
    ref_counts = ref_svm.machine.counters.snapshot().by_category

    svm = SVM(vlen=128, mode="fast", backend="native")
    got = svm.batch(pipe, inputs)
    assert calls, "bucket did not take the compiled 2D path"
    for r, g in zip(ref, got):
        assert np.array_equal(r, g)
    assert svm.machine.counters.snapshot().by_category == ref_counts


@needs_cc
@pytest.mark.parametrize("inclusive", [True, False])
@pytest.mark.parametrize("op", ["plus", "max", "min", "or", "and", "xor"])
def test_seg_scan_lane_zero_is_a_head(op, inclusive):
    """The C segmented scans carry the operator's identity into lane 0
    instead of testing ``i == 0``: with or without a head flag there,
    every width matches codegen bit for bit."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        for head0 in (0, 1):
            got = {}
            for backend in ("codegen", "native"):
                svm = SVM(vlen=128, mode="fast", backend=backend)
                for seed in range(2):   # run 2 replays the C kernel
                    rng = np.random.default_rng(seed)
                    x = rng.integers(0, np.iinfo(dtype).max, 50,
                                     dtype=dtype, endpoint=True)
                    heads = (rng.random(50) < 0.3).astype(dtype)
                    heads[0] = head0
                    data = svm.array(x, dtype)
                    with svm.lazy() as lz:
                        lz.seg_scan(data, svm.array(heads, dtype), op,
                                    inclusive=inclusive)
                got[backend] = data.to_numpy()
            assert isinstance(lz.fused.native, NativePlan)
            assert np.array_equal(got["codegen"], got["native"]), (
                dtype, head0)


# ---------------------------------------------------------------------------
# pack: the data-dependent kind, lowered
# ---------------------------------------------------------------------------

#: Flag patterns; nonzero flags are not all 1 (pack keeps ``flag != 0``)
#: and the random one is sparse enough to leave whole strips empty.
FLAG_PATTERNS = {
    "zero": lambda rng, n: np.zeros(n, dtype=np.uint32),
    "one": lambda rng, n: np.ones(n, dtype=np.uint32),
    "random": lambda rng, n: (rng.integers(1, 4, n)
                              * (rng.random(n) < 0.08)).astype(np.uint32),
}


def _pack_sizes(vlen, lmul):
    vlmax = vlmax_for(vlen, SEW.E32, LMUL(lmul))
    return sorted({0, 1, vlmax - 1, vlmax, vlmax + 1, 97, 3000})


def _pack_once(svm, x, flags, lmul, inplace=False):
    """One captured pack whose kept count feeds a later in-plan
    operand: (output bits, kept, nonzero counters)."""
    data = svm.array(x)
    f = svm.array(flags)
    out = data if inplace else svm.array(
        np.full(len(x), 0xABCD, dtype=np.uint32))
    svm.machine.counters.reset()
    with svm.lazy() as lz:
        _, kept = lz.pack(data, f, out=out, lmul=lmul)
        lz.p_add(out, kept, lmul=lmul)
    counts = {cat: k for cat, k in
              svm.machine.counters.snapshot().by_category.items() if k}
    got = (out.to_numpy(), kept.value, counts, lz.fused)
    svm.free(f)
    svm.free(data)
    if not inplace:
        svm.free(out)
    return got


def _pack_schedule(record, n, seed):
    """The recording run's flag pattern, then every other pattern and
    a second random draw — each a different survivor distribution."""
    rng = np.random.default_rng(seed)
    names = [record] + [p for p in FLAG_PATTERNS if p != record] + ["random"]
    x = rng.integers(0, 2**32, n, dtype=np.uint32)
    return [(x, FLAG_PATTERNS[p](rng, n)) for p in names]


@needs_cc
@pytest.mark.parametrize("record", sorted(FLAG_PATTERNS))
@pytest.mark.parametrize("vlen,lmul", [(128, 1), (128, 4), (1024, 1),
                                       (1024, 4)])
def test_pack_native_grid(vlen, lmul, record):
    """Pack lowers to C at every strip boundary: on ``native`` bits and
    per-category counters equal codegen's on every run — including runs
    whose survivors sit in different strips than the recording run's."""
    for n in _pack_sizes(vlen, lmul):
        svms = {b: SVM(vlen=vlen, mode="fast", lmul=LMUL(lmul), backend=b)
                for b in ("codegen", "native")}
        for run, (x, flags) in enumerate(_pack_schedule(record, n, n)):
            ref, ref_kept, ref_counts, _ = _pack_once(
                svms["codegen"], x, flags, LMUL(lmul))
            got, kept, counts, fused = _pack_once(
                svms["native"], x, flags, LMUL(lmul))
            cell = (n, run)
            assert np.array_equal(ref, got) and kept == ref_kept, cell
            assert counts == ref_counts, cell
            assert isinstance(fused.native, NativePlan), cell
            assert fused.charge_items is not None, cell


@needs_cc
@pytest.mark.parametrize("n", [97, 3000])
def test_pack_in_place_native(n):
    """Packing a vector onto itself stays bit- and counter-identical:
    survivors land at the running count, never ahead of the read."""
    svms = {b: SVM(vlen=128, mode="fast", backend=b)
            for b in ("codegen", "native")}
    for x, flags in _pack_schedule("random", n, 7):
        ref = _pack_once(svms["codegen"], x, flags, LMUL.M1, inplace=True)
        got = _pack_once(svms["native"], x, flags, LMUL.M1, inplace=True)
        assert np.array_equal(ref[0], got[0]) and ref[1] == got[1]
        assert ref[2] == got[2]
    assert isinstance(got[3].native, NativePlan)


@needs_cc
def test_one_build_serves_every_length(monkeypatch):
    """The generated source never depends on n: one pipeline at two
    lengths calls ``_build`` exactly once, and the second length runs
    native with codegen-identical bits and counters."""
    reset_native_caches()
    builds = []
    orig_build = native_mod._build
    monkeypatch.setattr(native_mod, "_build", lambda *a: (
        builds.append(a[1]), orig_build(*a))[1])
    runs = []
    orig_run = NativePlan.run
    monkeypatch.setattr(NativePlan, "run", lambda self, svm, plan: (
        runs.append(plan), orig_run(self, svm, plan))[1])
    pipe = PIPELINES["pack_future"]
    svm = SVM(vlen=128, mode="fast", backend="native")
    ref_svm = SVM(vlen=128, mode="fast", backend="codegen")
    digests = set()
    for n in (97, 300):
        for seed in range(3):
            got, counts, fused = _observe(svm, pipe, LMUL.M1, seed, n)
            ref, ref_counts, _ = _observe(ref_svm, pipe, LMUL.M1, seed, n)
            assert np.array_equal(ref, got), (n, seed)
            assert counts == ref_counts, (n, seed)
        digests.add(fused.native.digest)
    assert len(builds) == 1
    assert len(digests) == 1
    assert len(runs) == 6   # every run of each length was compiled
    assert {p.buffers[p.nodes[0].dst].n for p in runs} == {97, 300}


@needs_cc
def test_batch_pack_stays_ragged(monkeypatch):
    """svm.batch of a pack pipeline on ``native`` keeps the ragged
    path and runs it as one ``run2d`` C call per bucket (the kernel
    reports each row's kept count and survivor strips); results,
    lengths and counters equal codegen's."""
    calls = []
    orig = NativePlan.run2d
    monkeypatch.setattr(NativePlan, "run2d", lambda self, *a: (
        calls.append(1), orig(self, *a))[1])

    def pipe(lz, data):
        flags = lz.p_lt(data, 2**15)
        out, kept = lz.pack(data, flags)
        lz.p_add(out, kept)
        lz.free(flags)
        return out

    rng = np.random.default_rng(11)
    inputs = [rng.integers(0, 2**16, 300, dtype=np.uint32)
              for _ in range(5)]
    results = {}
    for backend in ("codegen", "native"):
        svm = SVM(vlen=128, mode="fast", backend=backend)
        for _ in range(2):   # the second batch hits the bound kernel
            res = svm.batch(pipe, inputs)
        assert {b.path for b in res.buckets} == {"ragged"}
        results[backend] = (res, svm.machine.counters.snapshot().by_category)
    (ref, ref_counts), (got, counts) = results["codegen"], results["native"]
    assert calls == [1, 1]   # the native context's two buckets
    assert got.lengths == ref.lengths
    for r, g, k in zip(ref, got, ref.lengths):
        assert np.array_equal(r[:k], g[:k])
    assert counts == ref_counts


@needs_cc
def test_plan_store_persists_native_source(tmp_path, monkeypatch):
    """The C artifacts persist under ``<cache_dir>/native/``; a fresh
    process (new SVM, no bound library) over the warm directory
    resolves ``disk`` and never runs ``cc``."""
    reset_native_caches()  # cold process: no memoized .so for the plan
    pipe = PIPELINES["chain_scan"]

    svm1 = SVM(vlen=128, mode="fast", backend="native",
               cache_dir=str(tmp_path))
    ref, ref_counts, fused1 = _observe(svm1, pipe, LMUL.M1)
    assert isinstance(fused1.native, NativePlan)
    assert svm1.engine.resolutions["compile"] == 1
    native_dir = tmp_path / "native"
    digest = fused1.native.digest
    assert (native_dir / f"{digest}.c").is_file()
    assert (native_dir / f"{digest}.so").is_file()

    # simulate a new process: fresh SVM and plan cache, no bound .so
    reset_native_caches()

    def no_cc(*args, **kwargs):
        raise AssertionError("cc ran over a warm cache_dir")

    monkeypatch.setattr(native_mod.subprocess, "run", no_cc)
    svm2 = SVM(vlen=128, mode="fast", backend="native",
               cache_dir=str(tmp_path))
    for run in range(2):
        got, counts, fused2 = _observe(svm2, pipe, LMUL.M1)
        assert np.array_equal(ref, got), run
        assert counts == ref_counts, run
    assert isinstance(fused2.native, NativePlan)
    assert fused2.native.digest == digest
    assert fused2.native._fn is not None
    assert svm2.engine.resolutions == {"memory": 1, "disk": 1, "compile": 0}


@needs_cc
def test_profiled_runs_stay_native():
    """A profiler does not force the codegen tier: every run is one
    ``native_plan`` span carrying the plan's counter delta, and results
    and counts match the unprofiled runs."""

    def runs(profile):
        svm = SVM(vlen=128, mode="fast", backend="native", profile=profile)
        got = []
        for seed in range(3):
            data = svm.array(np.random.default_rng(seed).integers(
                0, 2**16, 256, dtype=np.uint32))
            before = svm.instructions
            with svm.lazy() as lz:
                lz.p_add(data, 7)
                lz.p_mul(data, 3)
                lz.plus_scan(data)
            got.append((data.to_numpy(), svm.instructions - before))
        return svm, got

    svm, profiled = runs(True)
    _, plain = runs(False)
    for (a, ka), (b, kb) in zip(profiled, plain):
        assert np.array_equal(a, b)
        assert ka == kb
    spans = [s for s in svm.profiler.root.walk()
             if s.name in ("fused_scan", "fused_ew", "native_plan")]
    assert [s.name for s in spans] == ["native_plan"] * 3
    assert spans[1].meta == {"n": 256, "backend": "native"}
    assert [s.total for s in spans] == [k for _, k in profiled]


@needs_cc
def test_concurrent_first_builds_all_bind(tmp_path):
    """Serve workers share one fused plan: threads racing to build its
    artifact must all bind it, none memoize a spurious failure."""
    svm = SVM(vlen=128, mode="fast", backend="native")
    _, _, fused = _observe(svm, PIPELINES["chain_scan"], LMUL.M1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for trial in range(2):
            reset_native_caches()
            plan = NativePlan(fused.native.source + f"/* {trial} */\n",
                              fused.native.meta)
            barrier = threading.Barrier(4)
            bound = []

            def build():
                barrier.wait(timeout=60)
                bound.append(plan.ensure(tmp_path))

            threads = [threading.Thread(target=build) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert bound == [True] * 4, trial
    finally:
        sys.setswitchinterval(interval)
        reset_native_caches()


# ---------------------------------------------------------------------------
# binding: once per cache entry and thread; per call, pointers and scalars
# ---------------------------------------------------------------------------

def _spy_layouts(monkeypatch) -> list:
    """Record ``(NativePlan id, thread id)`` per layout build."""
    built = []
    orig = NativePlan._layout
    monkeypatch.setattr(NativePlan, "_layout", lambda self, *a: (
        built.append((id(self), threading.get_ident())), orig(self, *a))[1])
    return built


def _agree(pipe, calls: int):
    """Run ``pipe(lz, data, call)`` on fresh captures for each call on
    codegen and native: bits and counters must match on every call.
    Returns native's last fused plan."""
    svms = {b: SVM(vlen=128, mode="fast", backend=b)
            for b in ("codegen", "native")}
    for call in range(calls):
        got = {}
        for backend, svm in svms.items():
            out, counts, fused = _observe(
                svm, lambda api, data, _: pipe(api, data, call), LMUL.M1,
                seed=call)
            got[backend] = (out, counts)
        (ref, ref_counts), (out, counts) = got["codegen"], got["native"]
        assert np.array_equal(ref, out), call
        assert counts == ref_counts, call
    return fused


@needs_cc
def test_layout_built_once_per_cache_entry(monkeypatch):
    """50 fresh α-equivalent captures with new literals each call build
    the argument tables once; every call matches codegen."""
    built = _spy_layouts(monkeypatch)

    def pipe(api, data, call):
        api.p_add(data, 3 * call + 1)
        api.p_mul(data, call)
        api.plus_scan(data)
        return data

    fused = _agree(pipe, 50)
    assert isinstance(fused.native, NativePlan)
    assert fused.charge_items is not None
    assert built == [(id(fused.native), threading.get_ident())]


@needs_cc
def test_literal_and_future_scalar_share_a_layout(monkeypatch):
    """One key, two routings: ``reduce; p_add(d, 5)`` and ``reduce;
    p_add(d, total)`` share a cache entry and its layout, and each
    call routes its scalar afresh."""
    built = _spy_layouts(monkeypatch)

    def pipe(api, data, call):
        total = api.reduce(data)
        api.p_add(data, total if call % 2 else 5)
        api.plus_scan(data)
        return data

    _agree(pipe, 8)
    assert len(built) == 1


@needs_cc
def test_future_from_earlier_block():
    """A scalar future produced by an earlier lazy block is read per
    call, never frozen at its first value."""
    results = {}
    for backend in ("codegen", "native"):
        svm = SVM(vlen=128, mode="fast", backend=backend)
        runs = []
        for seed in range(4):
            a, b = make_data(svm, N, seed), make_data(svm, N, seed + 10)
            with svm.lazy() as lz:
                total = lz.reduce(a)
            before = svm.machine.counters.snapshot()
            with svm.lazy() as lz:
                lz.p_add(b, total)
                lz.plus_scan(b)
            delta = svm.machine.counters.snapshot() - before
            runs.append((b.to_numpy(), delta.by_category))
        results[backend] = runs
    assert isinstance(lz.fused.native, NativePlan)
    for (ref, ref_counts), (out, counts) in zip(results["codegen"],
                                                results["native"]):
        assert np.array_equal(ref, out)
        assert counts == ref_counts


@needs_cc
def test_replay_loop_rereads_outside_future():
    """Executing one captured plan over and over skips the pointer and
    literal refresh, but a future produced outside it is read again on
    every call."""
    from repro.engine import execute

    results = {}
    for backend in ("codegen", "native"):
        svm = SVM(vlen=128, mode="fast", backend=backend)
        a, b = make_data(svm, N), make_data(svm, N, seed=1)
        with svm.lazy() as lz:
            total = lz.reduce(a)
        producer = (lz.plan, lz.fused)
        with svm.lazy() as lz:
            lz.p_add(b, total)
            lz.p_xor(b, 7)
        consumer = (lz.plan, lz.fused)
        runs = []
        for seed in range(2, 6):
            a.view()[:] = make_data(svm, N, seed).to_numpy()
            execute(svm, *producer, backend=backend)
            execute(svm, *consumer, backend=backend)
            runs.append(b.to_numpy())
        results[backend] = runs
    assert isinstance(consumer[1].native, NativePlan)
    for ref, out in zip(results["codegen"], results["native"]):
        assert np.array_equal(ref, out)


@needs_cc
def test_threads_share_one_plan_cache(monkeypatch):
    """Four threads, each with its own SVM over one shared PlanCache,
    replay one cache entry concurrently: each builds its own layout
    once per NativePlan, and every call matches codegen."""
    from repro.engine.cache import PlanCache

    built = _spy_layouts(monkeypatch)
    pipe = PIPELINES["chain_scan"]
    calls = 20
    ref_svm = SVM(vlen=128, mode="fast", backend="codegen")
    refs = [_observe(ref_svm, pipe, LMUL.M1, seed)[:2] for seed in range(calls)]
    shared = PlanCache()
    barrier = threading.Barrier(4)
    failures = []

    def worker():
        svm = SVM(vlen=128, mode="fast", backend="native", plan_cache=shared)
        barrier.wait(timeout=60)
        for seed in range(calls):
            out, counts, _ = _observe(svm, pipe, LMUL.M1, seed)
            ref, ref_counts = refs[seed]
            if not (np.array_equal(ref, out) and counts == ref_counts):
                failures.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(built) == len(set(built))
    assert len({tid for _, tid in built}) == 4


# ---------------------------------------------------------------------------
# bad input: out-of-range scatter/gather indices raise, as on codegen
# ---------------------------------------------------------------------------

@needs_cc
@pytest.mark.parametrize("backend", ["native"])
@pytest.mark.parametrize("kind", ["permute", "back_permute"])
def test_out_of_range_index_raises(backend, kind):
    """After good runs of a compiled plan, index 99 into 8 elements
    raises IndexError instead of being skipped."""
    svm = SVM(vlen=128, mode="fast", backend=backend)
    src = svm.array(np.arange(1, 9, dtype=np.uint32))

    def run(index):
        idx = svm.array(np.array(index, dtype=np.uint32))
        with svm.lazy() as lz:
            out = getattr(lz, kind)(src, idx)
        return out.to_numpy(), lz.fused

    good = list(range(7, -1, -1))
    for _ in range(2):   # both calls run C
        out, fused = run(good)
        assert out.tolist() == [8, 7, 6, 5, 4, 3, 2, 1]
    assert isinstance(fused.native, NativePlan)
    assert fused.charge_items is not None
    with pytest.raises(IndexError):
        run([99] + good[1:])


@needs_cc
@pytest.mark.parametrize("backend", ["native"])
def test_batch_out_of_range_index_raises(monkeypatch, backend):
    """The compiled 2D entry point flags a bad index in any row."""
    calls = []
    orig = NativePlan.run2d
    monkeypatch.setattr(NativePlan, "run2d", lambda self, *a: (
        calls.append(1), orig(self, *a))[1])

    def pipe(lz, data):
        return lz.back_permute(lz.index_array(data.n), data)

    rows = [np.arange(8, dtype=np.uint32)[::-1].copy() for _ in range(4)]
    svm = SVM(vlen=128, mode="fast", backend=backend)
    for _ in range(2):
        res = svm.batch(pipe, rows)
    assert res.buckets[0].path == "2d" and calls
    assert all(out.tolist() == list(range(7, -1, -1)) for out in res.outputs)
    rows[2][0] = 99
    with pytest.raises(IndexError):
        svm.batch(pipe, rows)


# ---------------------------------------------------------------------------
# emitted C: branch-free lanes, warning-clean, flags in the digest
# ---------------------------------------------------------------------------

def pipe_split(api, data, lmul):
    """get_flags + split: enumerate twice, p_select, permute."""
    flags = api.get_flags(data, 0, lmul=lmul)
    out, _ = api.split(data, flags, lmul=lmul)
    api.free(flags)
    return out


def pipe_select(api, data, lmul):
    """A compare's flags choose between two vectors (p_select)."""
    flags = api.p_lt(data, 2**15, lmul=lmul)
    other = api.copy(data, lmul=lmul)
    api.p_mul(other, 3, lmul=lmul)
    api.p_select(flags, other, data, lmul=lmul)
    api.free(other)
    api.free(flags)
    return data


#: The conftest pipelines plus the structured kinds they leave out.
EMITTED = {
    **PIPELINES,
    "reverse": lambda api, data, lmul: api.reverse(data, lmul=lmul),
    "split": pipe_split,
    "pack": lambda api, data, lmul: api.pack(
        data, api.p_lt(data, 2**15, lmul=lmul), lmul=lmul)[0],
    "select": pipe_select,
}

#: Scatter/gather's bounds guard: the one ``if`` an element loop keeps.
_BOUNDS_GUARD = re.compile(r"if \(t < \(uint64_t\)n\d+\) ")


def _lowered(pipe) -> NativePlan:
    svm = SVM(vlen=128, mode="fast", backend="codegen")
    data = make_data(svm, N)
    with svm.lazy() as lz:
        pipe(lz, data, LMUL.M1)
    plan = lower_plan(lz.plan, lz.fused)
    assert plan is not None
    return plan


def _loop_bodies(source: str) -> list[str]:
    """The body of every ``for`` statement in ``source``: the braced
    block, or the single statement up to its ``;``."""
    bodies = []
    for m in re.finditer(r"\bfor \(", source):
        depth, i = 1, m.end()
        while depth:            # skip the loop header's parentheses
            depth += {"(": 1, ")": -1}.get(source[i], 0)
            i += 1
        rest = source[i:].lstrip()
        if not rest.startswith("{"):
            bodies.append(rest[:rest.index(";") + 1])
            continue
        depth, j = 1, 1
        while depth:
            depth += {"{": 1, "}": -1}.get(rest[j], 0)
            j += 1
        bodies.append(rest[:j])
    return bodies


@pytest.mark.parametrize("name", sorted(EMITTED))
def test_no_branch_on_lane_data(name):
    """No element loop branches on lane data, so the compiler can
    vectorize it: the only ``if`` inside a ``for`` is the scatter/gather
    bounds guard (pack's spare-lane restore and shift1up's ``n > 0``
    sit outside every loop)."""
    source = _lowered(EMITTED[name]).source
    bodies = _loop_bodies(source)
    assert bodies, name
    for body in bodies:
        assert "if (" not in _BOUNDS_GUARD.sub("", body), (name, body)


@needs_cc
@pytest.mark.parametrize("name", sorted(EMITTED))
def test_emitted_source_is_warning_clean(name, tmp_path):
    """The generated C compiles under ``-Wall -Wextra -Werror``: no
    unused length, no sign-compare slip."""
    csrc = tmp_path / f"{name}.c"
    csrc.write_text(_lowered(EMITTED[name]).source)
    res = subprocess.run(
        [find_compiler(), *native_mod.CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / f"{name}.so"), str(csrc)],
        capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_compiler_flags_join_the_digest(monkeypatch):
    """A flag change is a new artifact: the same source under other
    ``CFLAGS`` hashes to another digest, so a warm cache directory never
    rebinds a ``.so`` built under the old flags."""
    plan = _lowered(PIPELINES["chain_scan"])
    monkeypatch.setattr(native_mod, "CFLAGS", ("-O2", "-shared", "-fPIC"))
    again = NativePlan(plan.source, plan.meta)
    assert again.digest != plan.digest


# ---------------------------------------------------------------------------
# p_select: the masked merge across dtypes, flag patterns and aliasing
# ---------------------------------------------------------------------------

_UINTS = (np.uint8, np.uint16, np.uint32, np.uint64)

#: (flags, a, b) dtypes: every combination, then the two aliasings,
#: where the shared operand's dtype fixes the other.
SELECT_CASES = (
    [(tf, ta, tb, None) for tf in _UINTS for ta in _UINTS for tb in _UINTS]
    + [(t, ta, t, "b_is_flags") for t in _UINTS for ta in _UINTS]
    + [(tf, t, t, "a_is_b") for tf in _UINTS for t in _UINTS]
)


def _select_flags(rng, n, tf, tb) -> dict:
    """Flag patterns: all zero, all one, 50% random nonzero values and,
    when the flags are wider than ``b``, 50% lanes whose only set bit
    lies above ``b``'s width (uint16 bit 8 over uint8): nonzero flags
    that a mask built from a flag truncated to ``b``'s type would drop."""
    half = rng.random(n) < 0.5
    pats = {
        "zero": np.zeros(n, tf),
        "one": np.ones(n, tf),
        "random": (rng.integers(1, np.iinfo(tf).max, n, dtype=tf,
                                endpoint=True) * half).astype(tf),
    }
    wb = 8 * np.dtype(tb).itemsize
    if 8 * np.dtype(tf).itemsize > wb:
        pats["above_b"] = (half * (1 << wb)).astype(tf)
    return pats


def _select_once(svm, flags, x, y, alias):
    """One captured p_select: (b's bits, nonzero counters)."""
    f = svm.array(flags, flags.dtype)
    a = svm.array(x, x.dtype)
    if alias == "b_is_flags":
        b = f
    elif alias == "a_is_b":
        b = a
    else:
        b = svm.array(y, y.dtype)
    svm.machine.counters.reset()
    with svm.lazy() as lz:
        lz.p_select(f, a, b)
    counts = {cat: k for cat, k in
              svm.machine.counters.snapshot().by_category.items() if k}
    got = (b.to_numpy(), counts, lz.fused)
    for arr in {id(v): v for v in (f, a, b)}.values():
        svm.free(arr)
    return got


@needs_cc
@pytest.mark.parametrize("tf,ta,tb,alias", SELECT_CASES, ids=lambda v: (
    np.dtype(v).name if isinstance(v, type) else str(v)))
def test_select_native_grid(tf, ta, tb, alias):
    """p_select lowers to Listing 7's masked merge for every dtype mix:
    on ``native`` bits and counters equal codegen's — at strip
    boundaries, for all-zero,
    all-one and random flags, and when ``b`` aliases the flags or
    ``a``."""
    vlmax = vlmax_for(128, sew_for_dtype(np.dtype(ta)), LMUL.M1)
    svms = {b: SVM(vlen=128, mode="fast", backend=b)
            for b in ("codegen", "native")}
    rng = np.random.default_rng(21)
    for n in sorted({1, max(vlmax - 1, 1), vlmax + 1, 3000}):
        x = rng.integers(0, np.iinfo(ta).max, n, dtype=ta, endpoint=True)
        y = rng.integers(0, np.iinfo(tb).max, n, dtype=tb, endpoint=True)
        pats = _select_flags(rng, n, tf, tb)
        # every pattern, the first included, runs the C kernel
        for pat in ["random", *pats]:
            flags = pats[pat]
            ref, ref_counts, _ = _select_once(svms["codegen"], flags, x, y,
                                              alias)
            got, counts, fused = _select_once(svms["native"], flags, x, y,
                                              alias)
            cell = (n, pat)
            assert ref.dtype == tb and np.array_equal(ref, got), cell
            assert counts == ref_counts, cell
            assert isinstance(fused.native, NativePlan), cell
