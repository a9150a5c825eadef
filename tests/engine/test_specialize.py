"""Cache-insert compilation (``Engine.compile_plan``: fuse → codegen)
must change nothing observable — same results, same counters as the
strict reference — while attaching the generated kernels the fast path
and the batch runner call."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SVM
from repro.engine.capture import PlanBuilder
from repro.engine.codegen import group_charge_items
from repro.engine.executor import execute, run_group_strict
from repro.engine.fuse import GroupSpec, fuse, materialize
from repro.engine.ir import EngineError
from repro.rvv.types import LMUL

from .conftest import PIPELINES, make_data


def _capture(svm, pipe, n, lmul=LMUL.M1, seed=0):
    data = make_data(svm, n, seed)
    lz = PlanBuilder(svm)
    out = pipe(lz, data, lmul)
    return lz.build(), out


def test_fused_for_attaches_specializations():
    svm = SVM(vlen=128, mode="fast")
    plan, _ = _capture(svm, PIPELINES["chain_scan"], 4096)
    fused = svm.engine.fused_for(plan)
    cp = fused.compiled
    assert cp is not None
    specs = [u for u in fused.units if isinstance(u, GroupSpec)]
    assert specs and set(cp.groups) == set(specs)
    for cg in cp.groups.values():
        assert cg.n == 4096
    # the closed-form charge is prebound, one batched call per group
    assert cp.source.count("counters.add_many(") == len(specs)


def test_charge_items_equal_strict_delta():
    """The precomputed charge of every fused group equals the counter
    delta of driving that group through the strict strip loop — with
    and without spills, with a remainder strip."""
    checked = 0
    for vlen, lmul in ((128, LMUL.M1), (128, LMUL.M8), (1024, LMUL.M4)):
        svm = SVM(vlen=vlen, mode="strict")
        for name in ("chain_scan", "cmp_chain", "flags", "vv_mix", "alias"):
            plan, _ = _capture(svm, PIPELINES[name], 1000, lmul=lmul)
            for unit in fuse(plan).units:
                if not isinstance(unit, GroupSpec):
                    continue
                group = materialize(plan, unit)
                with svm.machine.region() as delta:
                    run_group_strict(svm, plan, group)
                observed = {c: k for c, k in delta.by_category.items() if k}
                assert dict(group_charge_items(svm.machine, group)) == observed
                checked += 1
    assert checked


@pytest.mark.parametrize("name", sorted(PIPELINES))
@pytest.mark.parametrize("mode", ["fast", "strict"])
def test_specialized_execution_identical(name, mode):
    """A compiled plan run in ``mode`` matches the bare fusion recipe
    run strictly, bit for bit and counter for counter."""
    def run(run_mode: str, compiled: bool):
        svm = SVM(vlen=128, mode=run_mode)
        plan, out = _capture(svm, PIPELINES[name], 600, seed=9)
        fused = svm.engine.compile_plan(plan) if compiled else fuse(plan)
        assert (fused.compiled is not None) == (compiled and fused.n_groups > 0)
        execute(svm, plan, fused)
        return out.to_numpy(), svm.counters.snapshot().by_category

    ref_out, ref_counts = run("strict", compiled=False)
    got_out, got_counts = run(mode, compiled=True)
    assert np.array_equal(ref_out, got_out)
    assert ref_counts == got_counts


def test_uncompiled_fast_group_raises():
    """There is no fallback fast path: a fused group without generated
    kernels cannot run in fast mode."""
    svm = SVM(vlen=128, mode="fast")
    plan, _ = _capture(svm, PIPELINES["chain_scan"], 100)
    fused = fuse(plan)
    assert fused.n_groups and fused.compiled is None
    with pytest.raises(EngineError, match="compile_plan"):
        execute(svm, plan, fused)


def test_specialization_replays_across_alpha_equivalent_plans():
    """A cached compilation must resolve buffers from the executing
    plan, not the inserting one: run two pipelines that share a
    signature but bind different buffer objects and scalars."""
    svm = SVM(vlen=128, mode="fast")

    def run_once(values, x):
        data = svm.array(values)
        with svm.lazy() as lz:
            lz.p_add(data, x)
            lz.p_mul(data, 3)
            lz.plus_scan(data)
        got = data.to_numpy()
        svm.free(data)
        return got

    vals = np.arange(4096, dtype=np.uint32)
    first = run_once(vals, 10)
    stats = svm.engine.cache.stats
    hits_before = stats.hits
    # same signature (scalar values are excluded), different buffers
    second = run_once(vals, 20)
    assert stats.hits == hits_before + 1
    expected = np.add.accumulate((vals + 20) * 3, dtype=np.uint32)
    assert np.array_equal(second, expected)
    assert not np.array_equal(first, second)
