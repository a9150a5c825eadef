"""Native backend tier: compiled whole-plan C kernels.

The contracts under test (see ``docs/native.md``):

* ``backend="native"`` — the warm-run counter contract: the first
  execution of a plan replays through codegen while recording its
  counter-charge profile; every later execution runs the compiled C
  kernel and replays that profile, so results AND per-category
  counters stay bit-identical to the strict reference forever;
* ``backend="native-speed"`` — results stay bit-identical, counters
  are compiled out entirely (zero bookkeeping);
* graceful degradation — no toolchain, a structurally ineligible plan
  (pack), or strict mode all fall back to the codegen tier with the
  full identity contract intact;
* persistence — the lowered C source rides inside the plan store
  entry next to the generated Python kernels, and the ``.c``/``.so``
  artifacts land under ``<cache_dir>/native/``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import SVM
from repro.engine.native import (
    NativePlan,
    native_available,
    reset_native_caches,
)
from repro.rvv.types import LMUL

from .conftest import PIPELINES, make_data

N = 97

#: Pipelines the native tier must fully lower (everything except the
#: pack-carrying one, whose data-dependent output length is the
#: registry's one declared ``native=False`` escape hatch).
LOWERABLE = sorted(set(PIPELINES) - {"pack_future"})

needs_cc = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this host"
)


def _observe(svm, pipe, lmul, seed=0):
    """One captured execution on fresh inputs: (result, counters)."""
    data = make_data(svm, N, seed)
    svm.machine.counters.reset()
    with svm.lazy() as lz:
        out = pipe(lz, data, lmul)
    counts = {cat: k for cat, k in
              svm.machine.counters.snapshot().by_category.items() if k}
    return out.to_numpy(), counts, lz.fused


@pytest.mark.parametrize("name", LOWERABLE)
@needs_cc
def test_warm_run_counter_identity(name):
    """Runs 2..k replay the C kernel; results and counters must stay
    identical to the strict reference on every one of them."""
    pipe = PIPELINES[name]
    ref_svm = SVM(vlen=128, mode="strict")
    ref, ref_counts, _ = _observe(ref_svm, pipe, LMUL.M1)

    svm = SVM(vlen=128, mode="fast", backend="native")
    for run in range(3):
        got, counts, fused = _observe(svm, pipe, LMUL.M1)
        assert np.array_equal(ref, got), (name, run)
        assert counts == ref_counts, (name, run)
    # the tier really engaged: the plan lowered and, after the warm-up,
    # recorded the charge profile the compiled replays re-apply
    assert isinstance(fused.native, NativePlan), name
    assert fused.native.charge_items is not None, name


@needs_cc
def test_compiled_replay_actually_runs(monkeypatch):
    """The second execution goes through NativePlan.run, not codegen."""
    calls = []
    orig = NativePlan.run
    monkeypatch.setattr(NativePlan, "run",
                        lambda self, svm, plan: (calls.append(1),
                                                 orig(self, svm, plan))[1])
    svm = SVM(vlen=128, mode="fast", backend="native")
    pipe = PIPELINES["chain_scan"]
    _observe(svm, pipe, LMUL.M1)
    assert calls == []          # warm-up replays codegen
    _observe(svm, pipe, LMUL.M1)
    assert calls == [1]         # replay compiled


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


@needs_cc
@pytest.mark.parametrize("name", LOWERABLE)
def test_speed_mode_zero_counters(name):
    """native-speed: bit-identical results, counters compiled out."""
    pipe = PIPELINES[name]
    ref_svm = SVM(vlen=128, mode="strict")
    ref, _, _ = _observe(ref_svm, pipe, LMUL.M1)

    svm = SVM(vlen=128, mode="fast", backend="native-speed")
    for run in range(2):
        got, counts, fused = _observe(svm, pipe, LMUL.M1)
        assert np.array_equal(ref, got), (name, run)
        assert counts == {}, (name, run)
    assert isinstance(fused.native, NativePlan), name


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


def test_ineligible_plan_falls_back():
    """pack (native=False) keeps the whole plan on the codegen tier,
    marked 'unavailable' so lowering is attempted exactly once."""
    pipe = PIPELINES["pack_future"]
    ref_svm = SVM(vlen=128, mode="fast", backend="codegen")
    ref, ref_counts, _ = _observe(ref_svm, pipe, LMUL.M1)
    svm = SVM(vlen=128, mode="fast", backend="native")
    for run in range(2):
        got, counts, fused = _observe(svm, pipe, LMUL.M1)
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
def test_plan_store_persists_native_source(tmp_path):
    """The lowered C source persists in the plan store; a second
    process (fresh SVM, same dir) reuses it without re-lowering."""
    reset_native_caches()  # cold process: no memoized .so for the plan
    pipe = PIPELINES["chain_scan"]

    svm1 = SVM(vlen=128, mode="fast", backend="native",
               cache_dir=str(tmp_path))
    ref, ref_counts, fused1 = _observe(svm1, pipe, LMUL.M1)
    assert isinstance(fused1.native, NativePlan)
    native_dir = tmp_path / "native"
    digest = fused1.native.digest
    assert (native_dir / f"{digest}.c").is_file()
    assert (native_dir / f"{digest}.so").is_file()

    # simulate a new process: fresh SVM and plan cache, same store
    svm2 = SVM(vlen=128, mode="fast", backend="native",
               cache_dir=str(tmp_path))
    for run in range(2):
        got, counts, fused2 = _observe(svm2, pipe, LMUL.M1)
        assert np.array_equal(ref, got), run
        assert counts == ref_counts, run
    assert isinstance(fused2.native, NativePlan)
    assert fused2.native.digest == digest
    assert svm2.engine.store.hits >= 1


@needs_cc
def test_profiled_runs_stay_native():
    """A profiler no longer forces the codegen tier: after the codegen
    warm-up every run is one ``native_plan`` span carrying the plan's
    counter delta, and results and counts match the unprofiled runs."""

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
    assert [s.name for s in spans] == ["fused_scan", "native_plan",
                                       "native_plan"]
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
