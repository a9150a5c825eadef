"""Cache-insert compilation (``Engine.compile_plan``: fuse → codegen)
must change nothing observable — same results, same counters as the
strict reference — while attaching the generated kernels the fast path
and the batch runner call."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.reference import PIPELINES as REPLAY_PIPELINES
from repro import SVM
from repro.engine.capture import PlanBuilder
from repro.engine.codegen import group_charge_items
from repro.engine.executor import execute, run_group_strict
from repro.engine.fuse import GroupSpec, fuse, materialize
from repro.engine.ir import EngineError
from repro.rvv.types import LMUL, SEW, sew_for_dtype, vlmax_for
from repro.svm import opspec
from repro.svm.fastpath import pack_strip_survivors, pack_variable_items

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
        assert cg.n == 4096 and cg.charge
    # the closed-form charge is a static fact of each entry, summed
    # into the plan's profile; the generated source never charges
    assert "add_many" not in cp.source
    assert fused.min_n == 4096


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


#: The static-profile grid: (VLEN, LMUL) pairs; each cell also runs
#: n in {1, VLMAX-1, VLMAX+1, 3000} (uint32 VLMAX) under both presets.
GRID = [(vlen, lmul) for vlen in (128, 1024)
        for lmul in (LMUL.M1, LMUL.M2, LMUL.M4, LMUL.M8)]

#: Every engine-suite pipeline plus the perfbench replay set (its
#: ``reverse`` and ``radix_pack`` carry the reverse/split lowerings),
#: as ``pipe(lz, data, lmul)``.
STATIC_PIPELINES = {
    **{f"engine/{name}": pipe for name, pipe in PIPELINES.items()},
    **{f"replay/{name}": (lambda pipe: lambda lz, data, _: pipe(lz, data)[0])(pipe)
       for name, pipe in REPLAY_PIPELINES.items()},
}


def _grid_sizes(vlen, lmul, big):
    vlmax = vlmax_for(vlen, SEW.E32, lmul)
    return sorted({1, vlmax - 1, vlmax + 1, big})


def _spy_pack_strips(monkeypatch) -> list:
    """Collect each strict pack call's survivor-strip count, read off
    its flags just before the kernel runs."""
    strips = []
    spec = opspec.OPSPECS["pack"]
    strict = spec.strict[""]

    def spy(m, n, src, dst, flags, lmul=LMUL.M1):
        keep = flags.view(n) != 0
        vlmax = m.vlmax(sew_for_dtype(src.dtype), lmul)
        strips.append(int(pack_strip_survivors(keep, vlmax)))
        return strict(m, n, src, dst, flags, lmul)

    monkeypatch.setitem(spec.strict, "", spy)
    return strips


@pytest.mark.parametrize("codegen", ["ideal", "paper"])
@pytest.mark.parametrize("name", sorted(STATIC_PIPELINES))
def test_static_profile_equals_strict_counts(monkeypatch, name, codegen):
    """The profile ``compile_plan`` sums from the registry's charge
    functions is the strict tier's counter delta minus pack's
    survivor-strip items, over VLEN × LMUL × n at strip boundaries."""
    strips = _spy_pack_strips(monkeypatch)
    pipe = STATIC_PIPELINES[name]
    for vlen, lmul in GRID:
        for n in _grid_sizes(vlen, lmul, 3000):
            svm = SVM(vlen=vlen, mode="strict", codegen=codegen, lmul=lmul,
                      backend="codegen")
            plan, _ = _capture(svm, pipe, n, lmul=lmul, seed=n)
            fused = svm.engine.fused_for(plan)
            static = dict(fused.charge_items)
            strips.clear()
            svm.reset()
            execute(svm, plan, fused)
            observed = dict(svm.counters.snapshot().by_category)
            for cat, k in pack_variable_items(sum(strips)):
                observed[cat] -= k
            observed = {cat: k for cat, k in observed.items() if k}
            assert static == observed, (vlen, lmul, n)


def _drive(svm, spec, variant, a, b, flags, index):
    """One call of ``spec``'s ``variant`` through the SVM surface."""
    inclusive = variant == "incl"
    calls = {
        "scan": lambda: svm.scan(a, inclusive=inclusive),
        "seg_scan": lambda: svm.seg_scan(a, flags, inclusive=inclusive),
        "p_select": lambda: svm.p_select(flags, a, b),
        "get_flags": lambda: svm.get_flags(a, 3),
        "permute": lambda: svm.permute(a, index),
        "back_permute": lambda: svm.back_permute(a, index),
        "pack": lambda: svm.pack(a, svm.zeros(a.n)),  # no survivor strips
        "enumerate": lambda: svm.enumerate(flags),
        "index_array": lambda: svm.index_array(a.n),
        "reduce": lambda: svm.reduce(a),
        "shift1up": lambda: svm.shift1up(a, 0),
        "copy": lambda: svm.copy(a),
    }
    if spec.name in calls:
        calls[spec.name]()
    else:  # elementwise and compares: vector or scalar operand
        getattr(svm, spec.name)(a, b if variant == "vv" else 3)


@pytest.mark.parametrize("codegen", ["ideal", "paper"])
@pytest.mark.parametrize(
    "spec,variant",
    [(spec, v) for spec in opspec.iter_specs() for v in spec.charge],
    ids=lambda x: getattr(x, "name", x))
def test_opspec_charge_equals_strict_kernel(spec, variant, codegen):
    """Every ``OpSpec.charge`` variant is its strict kernel's counter
    delta, over VLEN × LMUL × n at strip boundaries."""
    rng = np.random.default_rng(5)
    for vlen, lmul in GRID:
        for n in _grid_sizes(vlen, lmul, 1000):
            svm = SVM(vlen=vlen, mode="strict", codegen=codegen, lmul=lmul)
            a = svm.array(rng.integers(0, 2**16, n, dtype=np.uint32))
            b = svm.array(rng.integers(0, 2**16, n, dtype=np.uint32))
            flags = svm.array(rng.integers(0, 2, n, dtype=np.uint32))
            index = svm.array(rng.permutation(n).astype(np.uint32))
            svm.reset()
            _drive(svm, spec, variant, a, b, flags, index)
            observed = {cat: k for cat, k in
                        svm.counters.snapshot().by_category.items() if k}
            charge = spec.charge[variant](svm.machine.codegen, vlen, n,
                                          SEW.E32, lmul)
            assert dict(charge) == observed, (vlen, lmul, n)


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
