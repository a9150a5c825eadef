"""Generated-kernel backend (``repro.engine.codegen``) equivalence.

The codegen backend must be bit-identical and per-category
counter-identical to the strict per-strip reference (the same lazy
plan run with ``mode="strict"``) across the full VLEN × LMUL grid —
for single-call and batched execution — including plans with no fused
groups, where the unit loop replays every node.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SVM
from repro.engine.executor import DEFAULT_BACKEND, resolve_backend
from repro.engine.ir import EngineError
from repro.rvv.types import LMUL

from .conftest import PIPELINES, make_data

VLENS = (128, 256, 512, 1024)
LMULS = (1, 2, 4, 8)
#: odd on purpose: every VLEN×LMUL point gets a remainder strip
N = 777


def _run(pipe, *, vlen, lmul, backend="codegen", n=N, mode="fast", seed=0):
    svm = SVM(vlen=vlen, codegen="paper", mode=mode, backend=backend)
    data = make_data(svm, n, seed)
    svm.reset()
    with svm.lazy() as lz:
        out = pipe(lz, data, lmul)
    return svm.machine.counters.snapshot(), out.to_numpy(), svm


@pytest.mark.parametrize("vlen", VLENS)
@pytest.mark.parametrize("lmul", LMULS)
def test_backend_equivalence_grid(pipeline, vlen, lmul):
    lm = LMUL(lmul)
    strict, ref, _ = _run(pipeline, vlen=vlen, lmul=lm, mode="strict")
    codegen, got, _ = _run(pipeline, vlen=vlen, lmul=lm)
    assert np.array_equal(ref, got)
    assert strict.by_category == codegen.by_category


@pytest.mark.parametrize("vlen", VLENS)
@pytest.mark.parametrize("lmul", LMULS)
def test_backend_equivalence_batch(vlen, lmul):
    lm = LMUL(lmul)
    g = np.random.default_rng(0)
    rows = [g.integers(0, 2**16, 300, dtype=np.uint32) for _ in range(8)]

    def pipe(lz, data):
        return PIPELINES["chain_scan"](lz, data, lm)

    # strict batches take the per-row loop: the reference semantics
    outs, snaps = {}, {}
    for mode in ("strict", "fast"):
        svm = SVM(vlen=vlen, codegen="paper", mode=mode, backend="codegen")
        res = svm.batch(pipe, rows)
        outs[mode] = [np.array(r) for r in res]
        snaps[mode] = svm.machine.counters.snapshot()
    assert all(
        np.array_equal(a, b) for a, b in zip(outs["strict"], outs["fast"])
    )
    assert snaps["strict"].by_category == snaps["fast"].by_category


def test_whole_plan_kernel_and_copy_elision():
    _, _, svm = _run(PIPELINES["chain_scan"], vlen=512, lmul=LMUL.M1,
                     n=1000)
    cp = svm.engine.last_fused.compiled
    assert cp is not None
    # every unit fused -> one generated entry, which never charges
    assert [cg.name for cg in cp.groups.values()] == ["_g0"]
    assert "add_many" not in cp.source
    # head == dst and no operand re-reads dst: the entry operates
    # in-place on the destination view (no head copy, no writeback)
    assert "copy=True" not in cp.source
    assert "mats.store" not in cp.source
    assert ".accumulate(" in cp.source


def test_alias_keeps_copy_discipline():
    # p_add(data, data): the head's vector operand aliases dst, so the
    # generated function must copy the head and write back at the end
    strict, ref, _ = _run(PIPELINES["alias"], vlen=256, lmul=LMUL.M1,
                          mode="strict")
    codegen, got, svm = _run(PIPELINES["alias"], vlen=256, lmul=LMUL.M1)
    assert np.array_equal(ref, got)
    assert strict.by_category == codegen.by_category
    assert "copy=True" in svm.engine.last_fused.compiled.source


def test_unfused_plan_has_no_compiled_kernels():
    # seg_scan captures as a structured node but never fuses; with no
    # fused groups nothing is generated and the unit loop runs
    # every node's NumPy body with identical behavior
    def pipe(lz, data, lmul):
        flags = lz.get_flags(data, 0, lmul=lmul)
        lz.seg_plus_scan(data, flags, lmul=lmul)
        lz.free(flags)
        return data

    strict, ref, _ = _run(pipe, vlen=256, lmul=LMUL.M1, mode="strict")
    codegen, got, svm = _run(pipe, vlen=256, lmul=LMUL.M1)
    assert np.array_equal(ref, got)
    assert strict.by_category == codegen.by_category
    fused = svm.engine.last_fused
    # no groups compiled, so there is no generated source
    assert fused.compiled is None


def test_strict_mode_is_backend_independent(pipeline):
    codegen, ref, _ = _run(pipeline, vlen=128, lmul=LMUL.M1,
                           backend="codegen", mode="strict")
    native, got, _ = _run(pipeline, vlen=128, lmul=LMUL.M1,
                          backend="native", mode="strict")
    assert np.array_equal(ref, got)
    assert codegen.by_category == native.by_category


def test_empty_input_both_backends():
    strict, ref, _ = _run(PIPELINES["chain_scan"], vlen=256, lmul=LMUL.M1,
                          mode="strict", n=0)
    codegen, got, _ = _run(PIPELINES["chain_scan"], vlen=256, lmul=LMUL.M1,
                           n=0)
    assert np.array_equal(ref, got)
    assert strict.by_category == codegen.by_category


def test_resolve_backend(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None) == DEFAULT_BACKEND
    assert resolve_backend("native") == "native"
    monkeypatch.setenv("REPRO_BACKEND", "native")
    assert resolve_backend(None) == "native"
    # an unknown env value falls back; an explicit one raises
    for removed in ("interp", "native-speed"):
        monkeypatch.setenv("REPRO_BACKEND", removed)
        assert resolve_backend(None) == DEFAULT_BACKEND
        with pytest.raises(EngineError):
            resolve_backend(removed)
    with pytest.raises(EngineError):
        resolve_backend("jit")
