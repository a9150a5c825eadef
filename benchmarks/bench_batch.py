"""Batched plan execution vs looped single-plan calls.

Two claims, two kinds of evidence:

* **Identity** (deterministic, CI-gated): a batch run's outputs and
  per-category instruction counters equal the looped single-input
  path exactly — across VLEN, LMUL, ragged length buckets, and the
  data-dependent pack pipeline, which now batches as one masked 2D
  evaluation on the ``"ragged"`` path (zero loop-fallback buckets)
  with per-row lengths and an exact per-row charge. These land in
  ``BENCH_batch.json``, which the perf job regenerates and diffs at
  tolerance 0; only deterministic values (counts, booleans, bucket
  structure, dispatch ratios) are written, never wall-clock.

* **Throughput** (asserted here, reported in the summary table): one
  2D evaluation amortizes capture, cache lookup, dispatch, and
  charging over the whole batch. The win is largest where per-call
  overhead dominates (small/medium n): at n=256×64 rows the batch
  path must be ≥ 10× faster than the loop. At the large-n cell
  (n=10k×64 rows) the serial per-row scan dominates both paths and
  the amortization win shrinks — the floor there is 1.5× and the
  measured ratio is reported. See docs/batching.md for the regime
  discussion.

Grid cells run through :func:`repro.parallel.batch_cell`, so
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
from repro.engine.cache import PlanCache
from repro.parallel import CHAIN, batch_cell, default_jobs, run_grid
from repro.utils.formatting import fmt_count, fmt_ratio

from conftest import record, rng

SEED = 0
DEPTH = 3


def _pipe(lz, data):
    for op, x in CHAIN[:DEPTH]:
        getattr(lz, op)(data, x)
    lz.plus_scan(data)
    return data


def _pack_pipe(lz, data):
    flags = lz.p_lt(data, 2**15)
    out, _ = lz.pack(data, flags)
    lz.free(flags)
    return out


def _pack_loop(svm, rows):
    outs = []
    for row in rows:
        data = svm.array(row)
        with svm.lazy() as lz:
            out = _pack_pipe(lz, data)
        outs.append(out.to_numpy())
        svm.free(data)
        svm.free(out)
    return outs


def _loop(svm, rows):
    outs = []
    for row in rows:
        data = svm.array(row)
        with svm.lazy() as lz:
            _pipe(lz, data)
        outs.append(data.to_numpy())
        svm.free(data)
    return outs


def test_batch_identity_grid():
    params = [
        {"n": n, "vlen": vlen, "lmul": lmul, "rows": batch_rows,
         "depth": DEPTH, "seed": SEED}
        for vlen in (128, 512)
        for lmul in (1, 8)
        for n, batch_rows in ((3000, 16), (10_000, 8))
    ]
    cells = run_grid(batch_cell, params, jobs=default_jobs())
    rows = []
    for cell in cells:
        assert cell["identical_results"], cell
        assert cell["identical_counters"], cell
        assert cell["batch_instr"] == cell["loop_instr"], cell
        assert cell["path"] == "2d", cell
        rows.append([str(cell["vlen"]), str(cell["lmul"]), str(cell["n"]),
                     str(cell["rows"]), fmt_count(cell["loop_instr"]),
                     fmt_count(cell["batch_instr"]), cell["path"]])
    record(ExperimentResult(
        "Batch identity grid",
        f"depth-{DEPTH} chain + plus_scan: batch vs looped single calls",
        ["VLEN", "LMUL", "n", "rows", "loop instr", "batch instr", "path"],
        rows,
        notes=["instruction counts are identical by construction: row 0 runs"
               " the ordinary engine and its closed-form delta is scaled by"
               " the remaining rows."],
    ))

    # ragged batch: bucketing by length, auto strict/fast routing
    lengths = [7, 3000, 7, 5000, 3000, 1, 3000]
    g = rng(SEED)
    ragged_rows = [g.integers(0, 2**16, n, dtype=np.uint32) for n in lengths]
    loop_svm = SVM(vlen=512, codegen="paper")  # auto mode
    loop_outs = _loop(loop_svm, ragged_rows)
    batch_svm = SVM(vlen=512, codegen="paper")
    res = batch_svm.batch(_pipe, ragged_rows)
    ragged = {
        "lengths": lengths,
        "buckets": [{"n": b.n, "rows": b.rows, "path": b.path}
                    for b in res.buckets],
        "identical_results": bool(all(
            np.array_equal(a, b) for a, b in zip(loop_outs, res)
        )),
        "identical_counters": bool(
            loop_svm.counters.snapshot().by_category
            == batch_svm.counters.snapshot().by_category
        ),
    }
    assert ragged["identical_results"] and ragged["identical_counters"]

    # pack's data-dependent charge batches as one masked 2D evaluation
    # on the ragged path: zero loop-fallback buckets, per-row lengths,
    # survivor prefixes and counters exactly loop-identical, and the
    # deterministic dispatch fact — one engine dispatch per bucket
    # where the loop pays one per row (plan-cache lookups count them)
    pack_rows = [g.integers(0, 2**16, 3000, dtype=np.uint32)
                 for _ in range(8)]
    kept = [int((r < 2**15).sum()) for r in pack_rows]
    loop_cache = PlanCache()
    loop_svm = SVM(vlen=512, codegen="paper", mode="fast",
                   plan_cache=loop_cache)
    loop_outs = _pack_loop(loop_svm, pack_rows)
    batch_cache = PlanCache()
    batch_svm = SVM(vlen=512, codegen="paper", mode="fast",
                    plan_cache=batch_cache)
    res = batch_svm.batch(_pack_pipe, pack_rows)

    def lookups(cache):
        s = cache.stats_dict()
        return s["hits"] + s["disk_hits"] + s["compiles"]

    pack_cell = {
        "rows": len(pack_rows),
        "n": 3000,
        "path": res.buckets[0].path,
        "loop_fallback_buckets": sum(
            b.path == "loop" for b in res.buckets),
        "lengths": list(res.lengths),
        "lengths_match_predicate": res.lengths == kept,
        "prefix_identical": bool(all(
            np.array_equal(a[:k], b[:k])
            for a, b, k in zip(loop_outs, res, kept)
        )),
        "identical_counters": bool(
            loop_svm.counters.snapshot().by_category
            == batch_svm.counters.snapshot().by_category
        ),
        "loop_plan_dispatches": lookups(loop_cache),
        "ragged_plan_dispatches": lookups(batch_cache),
    }
    pack_cell["dispatch_speedup"] = (
        pack_cell["loop_plan_dispatches"]
        / pack_cell["ragged_plan_dispatches"])
    assert pack_cell["path"] == "ragged"
    assert pack_cell["loop_fallback_buckets"] == 0
    assert pack_cell["lengths_match_predicate"]
    assert pack_cell["prefix_identical"]
    assert pack_cell["identical_counters"]
    assert pack_cell["dispatch_speedup"] >= 2.0, pack_cell

    out = Path(__file__).resolve().parent.parent / "BENCH_batch.json"
    out.write_text(json.dumps({
        "pipeline": f"elementwise chain (depth {DEPTH}) + plus_scan, uint32",
        "codegen": "paper",
        "mode": "fast",
        "grid": cells,
        "ragged": ragged,
        "pack_ragged": pack_cell,
    }, indent=2) + "\n")


def test_batch_wallclock_speedup():
    table = []
    # (n, rows, floor): the dispatch-bound cell carries the >=10x
    # acceptance; at n=10k the serial per-row accumulate dominates
    # both paths, so the honest floor there is lower (see module doc)
    for n, batch_rows, floor in ((256, 64, 10.0), (10_000, 64, 1.5)):
        g = rng(SEED)
        data_rows = [g.integers(0, 2**16, n, dtype=np.uint32)
                     for _ in range(batch_rows)]
        svm = SVM(vlen=512, codegen="paper", mode="fast")
        loop_outs = _loop(svm, data_rows)  # also warms the plan cache
        res = svm.batch(_pipe, data_rows)
        assert all(np.array_equal(a, b) for a, b in zip(loop_outs, res))

        t_loop = min(timeit.repeat(
            lambda: _loop(svm, data_rows), number=1, repeat=9))
        t_batch = min(timeit.repeat(
            lambda: svm.batch(_pipe, data_rows), number=1, repeat=9))
        speedup = t_loop / t_batch
        table.append([str(n), str(batch_rows), f"{t_loop * 1e3:.2f} ms",
                      f"{t_batch * 1e3:.2f} ms", fmt_ratio(speedup),
                      f">= {floor:g}x"])
        assert speedup >= floor, (
            f"n={n} rows={batch_rows}: batch {t_batch * 1e3:.2f} ms vs "
            f"loop {t_loop * 1e3:.2f} ms = {speedup:.1f}x < floor {floor:g}x"
        )
    # pack pipeline: the ragged path must beat its old loop fallback
    # by >= 2x where per-row dispatch overhead dominates
    g = rng(SEED)
    pack_rows = [g.integers(0, 2**16, 256, dtype=np.uint32)
                 for _ in range(64)]
    svm = SVM(vlen=512, codegen="paper", mode="fast")
    loop_outs = _pack_loop(svm, pack_rows)  # also warms the plan cache
    res = svm.batch(_pack_pipe, pack_rows)
    assert {b.path for b in res.buckets} == {"ragged"}
    assert all(np.array_equal(a[:k], b[:k])
               for a, b, k in zip(loop_outs, res, res.lengths))
    t_loop = min(timeit.repeat(
        lambda: _pack_loop(svm, pack_rows), number=1, repeat=9))
    t_batch = min(timeit.repeat(
        lambda: svm.batch(_pack_pipe, pack_rows), number=1, repeat=9))
    speedup = t_loop / t_batch
    table.append(["256 (pack)", "64", f"{t_loop * 1e3:.2f} ms",
                  f"{t_batch * 1e3:.2f} ms", fmt_ratio(speedup), ">= 2x"])
    assert speedup >= 2.0, (
        f"pack ragged path {t_batch * 1e3:.2f} ms vs loop "
        f"{t_loop * 1e3:.2f} ms = {speedup:.1f}x < floor 2x"
    )
    record(ExperimentResult(
        "Batch wall-clock",
        f"depth-{DEPTH} chain + plus_scan (and the pack filter on the "
        "ragged path) at VLEN=512, batch vs loop (best of 9)",
        ["n", "rows", "loop", "batch", "speedup x", "floor"], table,
        notes=["wall-clock is machine-dependent and intentionally kept out"
               " of BENCH_batch.json; the CI gate locks only the"
               " deterministic identity data."],
    ))
