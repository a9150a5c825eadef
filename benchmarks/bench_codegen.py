"""Generated NumPy kernels (codegen backend) vs the strict reference
and the unfused eager replay.

Two claims, two kinds of evidence (the ``bench_batch.py`` pattern):

* **Identity** (deterministic, CI-gated): the codegen backend's
  outputs and per-category instruction counters equal the strict
  per-strip reference (the same lazy plan run with ``mode="strict"``)
  exactly — across the full VLEN ∈ {128, 256, 512, 1024} ×
  LMUL ∈ {1, 2, 4, 8} grid — and batched (2D) execution equals
  looping single calls. These land in ``BENCH_codegen.json``, which
  the perf job regenerates and diffs at tolerance 0; only
  deterministic values (counts, booleans) are written, never
  wall-clock.

* **Throughput** (asserted here, reported in the summary table): the
  fast evaluator (:func:`repro.engine.executor.run_units`) replaces
  one eager primitive call per captured node — the path a user without
  the engine takes — with one generated function per fused group on
  memory views and one charge of the plan's static counter profile.
  In the dispatch-bound regime (n ≤ 256) it must be ≥ 2x faster than the
  unfused replay (``svm.lazy(fuse=False)``) of the same plan; in the
  compute-bound regime (n = 100k) the NumPy work dominates both and
  the floor is parity (no regression).

Both sides replay the *same* captured plan through
:func:`repro.engine.executor.execute`, so the comparison isolates the
execution tier — capture and compile costs are excluded.

Grid cells run through :func:`repro.parallel.codegen_cell`, so
``REPRO_BENCH_JOBS=N`` / ``repro bench --jobs N`` fans them over
worker processes; output is byte-identical at any job count.
"""

from __future__ import annotations

import json
import timeit
from pathlib import Path

import numpy as np

from repro import SVM
from repro.bench.harness import ExperimentResult
from repro.engine.executor import execute
from repro.engine.fuse import FusedPlan
from repro.parallel import CHAIN, codegen_cell, default_jobs, run_grid
from repro.utils.formatting import fmt_count, fmt_ratio

from conftest import record, rng

SEED = 0
DEPTH = 5

VLENS = (128, 256, 512, 1024)
LMULS = (1, 2, 4, 8)


def _pipe(lz, data):
    for op, x in CHAIN[:DEPTH]:
        getattr(lz, op)(data, x)
    lz.plus_scan(data)
    return data


def _split_pipe(lz, data):
    flags = lz.get_flags(data, 0)
    out, _ = lz.split(data, flags)
    return out


def _radix_pipe(lz, data):
    a = data
    for bit in range(3):
        flags = lz.get_flags(a, bit)
        a, _ = lz.split(a, flags)
    lz.copy(a, out=data)
    return data


PIPELINES = (("split", _split_pipe), ("radix3", _radix_pipe))


def test_codegen_identity_grid(benchmark):
    params = [
        {"n": n, "vlen": vlen, "lmul": lmul, "depth": DEPTH, "seed": SEED}
        for vlen in VLENS
        for lmul in LMULS
        for n in (256, 3000)
    ]
    cells = run_grid(codegen_cell, params, jobs=default_jobs())
    rows = []
    for cell in cells:
        assert cell["identical_results"], cell
        assert cell["identical_counters"], cell
        assert cell["codegen_instr"] == cell["strict_instr"], cell
        rows.append([str(cell["vlen"]), str(cell["lmul"]), str(cell["n"]),
                     fmt_count(cell["strict_instr"]),
                     fmt_count(cell["codegen_instr"])])
    record(ExperimentResult(
        "Codegen identity grid",
        f"depth-{DEPTH} chain + plus_scan: generated kernels vs "
        "strict reference",
        ["VLEN", "LMUL", "n", "strict instr", "codegen instr"],
        rows,
        notes=["generated kernels charge the closed-form counter profile"
               " of the strict strip loop, so both columns are equal by"
               " construction — the grid locks that invariant."],
    ))

    # batched (2D) execution: each group's generated function, run by
    # the fast evaluator over [B-1, n] matrices, must match looped
    # single calls bit-for-bit and counter-for-counter
    batch = []
    g = rng(SEED)
    data_rows = [g.integers(0, 2**16, 512, dtype=np.uint32)
                 for _ in range(16)]
    for vlen in (128, 1024):
        svm = SVM(vlen=vlen, codegen="paper", mode="fast",
                  backend="codegen")
        batched = [np.asarray(r) for r in svm.batch(_pipe, data_rows)]
        batch_snap = svm.counters.snapshot()
        loop_svm = SVM(vlen=vlen, codegen="paper", mode="fast",
                       backend="codegen")
        looped = []
        for row in data_rows:
            data = loop_svm.array(row)
            with loop_svm.lazy() as lz:
                _pipe(lz, data)
            looped.append(data.to_numpy())
            loop_svm.free(data)
        loop_snap = loop_svm.counters.snapshot()
        batch.append({
            "vlen": vlen,
            "n": 512,
            "rows": len(data_rows),
            "instr": batch_snap.total,
            "identical_results": bool(all(
                np.array_equal(a, b) for a, b in zip(batched, looped))),
            "identical_counters": bool(
                batch_snap.by_category == loop_snap.by_category),
        })
    for cell in batch:
        assert cell["identical_results"], cell
        assert cell["identical_counters"], cell

    # data-dependent pipelines through the OpSpec registry: split and a
    # 3-round radix pass must batch on the 2D path (no loop fallback),
    # bit- and counter-identical to looping the captured single-row runs
    pipelines = []
    pipe_rows = []
    for name, pipe in PIPELINES:
        g = rng(SEED)
        raw = [g.integers(0, 2**16, 256, dtype=np.uint32)
               for _ in range(8)]
        svm = SVM(vlen=512, codegen="paper", mode="fast",
                  backend="codegen")
        res = svm.batch(pipe, raw)
        batched = [np.asarray(r) for r in res]
        batch_snap = svm.counters.snapshot()
        paths = [b.path for b in res.buckets]

        # svm.batch drives buckets directly, so probe the captured plan
        # shape with one single-row run on a fresh context
        probe = SVM(vlen=512, codegen="paper", mode="fast",
                    backend="codegen")
        with probe.lazy() as lz:
            pipe(lz, probe.array(raw[0]))
        plan, fused = probe.engine.last_plan, probe.engine.last_fused

        ref_svm = SVM(vlen=512, codegen="paper", mode="fast",
                      backend="codegen")
        looped = []
        for row in raw:
            data = ref_svm.array(row)
            with ref_svm.lazy() as lz:
                out_arr = pipe(lz, data)
            looped.append(out_arr.to_numpy())
        loop_snap = ref_svm.counters.snapshot()

        cell = {
            "pipeline": name,
            "n": 256,
            "rows": len(raw),
            "nodes": len(plan.nodes),
            "whole_plan_kernel": fused.compiled is not None,
            "batch_paths": paths,
            "loop_fallback_buckets": paths.count("loop"),
            "instr": batch_snap.total,
            "identical_results": bool(all(
                np.array_equal(a, b) for a, b in zip(batched, looped))),
            "identical_counters": bool(
                batch_snap.by_category == loop_snap.by_category),
        }
        assert cell["loop_fallback_buckets"] == 0, cell
        assert cell["identical_results"], cell
        assert cell["identical_counters"], cell
        pipelines.append(cell)
        pipe_rows.append([name, str(cell["nodes"]),
                          str(cell["loop_fallback_buckets"]),
                          fmt_count(cell["instr"])])
    record(ExperimentResult(
        "Registry pipelines",
        "split / radix pipelines: structured capture, "
        "2D batch path (VLEN=512, 8 rows of n=256)",
        ["pipeline", "nodes", "loop buckets", "instr"],
        pipe_rows,
        notes=["permute/enumerate/pack/seg_scan capture as structured"
               " kinds via the OpSpec registry, so these data-dependent"
               " pipelines fuse, batch, and stay counter-identical to"
               " the per-row loop."],
    ))

    out = Path(__file__).resolve().parent.parent / "BENCH_codegen.json"
    out.write_text(json.dumps({
        "pipeline": f"elementwise chain (depth {DEPTH}) + plus_scan, uint32",
        "codegen": "paper",
        "mode": "fast",
        "grid": cells,
        "batch": batch,
        "pipelines": pipelines,
    }, indent=2) + "\n")

    benchmark(codegen_cell,
              {"n": 3000, "vlen": 512, "lmul": 1, "depth": DEPTH,
               "seed": SEED})


def test_codegen_wallclock_speedup():
    table = []
    # (n, reps, floor): the dispatch-bound cells carry the >=2x
    # acceptance; at n=100k the NumPy array work dominates both
    # paths, so the honest floor there is parity (see module doc)
    for n, reps, floor in ((64, 2000, 2.0), (256, 2000, 2.0),
                           (100_000, 50, 1.0)):
        svm = SVM(vlen=512, codegen="paper", mode="fast", backend="codegen")
        data = svm.array(rng(SEED).integers(0, 2**16, n, dtype=np.uint32))
        with svm.lazy() as lz:  # capture once; replays are measured
            _pipe(lz, data)
        plan = svm.engine.last_plan
        variants = {
            "unfused": FusedPlan(units=list(range(len(plan.nodes)))),
            "codegen": svm.engine.last_fused,
        }
        times = {
            name: min(timeit.repeat(
                lambda: execute(svm, plan, fused, backend="codegen"),
                number=reps, repeat=9)) / reps
            for name, fused in variants.items()
        }
        speedup = times["unfused"] / times["codegen"]
        table.append([str(n), f"{times['unfused'] * 1e6:.2f} us",
                      f"{times['codegen'] * 1e6:.2f} us",
                      fmt_ratio(speedup), f">= {floor:g}x"])
        assert speedup >= floor, (
            f"n={n}: codegen {times['codegen'] * 1e6:.2f} us vs unfused "
            f"{times['unfused'] * 1e6:.2f} us = {speedup:.2f}x < floor "
            f"{floor:g}x"
        )
    record(ExperimentResult(
        "Codegen wall-clock",
        f"depth-{DEPTH} chain + plus_scan at VLEN=512, warm-plan replay "
        "vs the unfused eager replay of the same plan (best of 9)",
        ["n", "unfused", "codegen", "speedup x", "floor"], table,
        notes=["wall-clock is machine-dependent and intentionally kept out"
               " of BENCH_codegen.json; the CI gate locks only the"
               " deterministic identity data."],
    ))
