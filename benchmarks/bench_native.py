"""Compiled whole-plan C kernels (native backend) vs codegen and the
strict reference.

Two claims, two kinds of evidence (the ``bench_codegen.py`` pattern):

* **Identity** (deterministic, CI-gated): the native backend's warm
  replays — the compiled C kernel plus the plan's static counter
  profile, summed when the plan compiled — produce outputs and
  per-category instruction counters equal to the strict per-strip
  reference exactly, across a VLEN × LMUL × n grid and the batched
  (2D) path. These land in
  ``BENCH_native.json`` which the perf job regenerates and diffs at
  tolerance 0; only deterministic values (counts, booleans) are
  written, never wall-clock. The identity cells hold with or without
  a C toolchain — no compiler just means the tier degrades to codegen,
  which is the contract under test too.

* **Throughput** (asserted here, reported in the summary table): one
  compiled C call replaces the whole per-unit Python replay — ufunc
  dispatch and scalar resolution — and charges the static profile
  once, so dispatch-bound replays of small-``n`` fused pipelines get
  dramatically cheaper: the native backend must be ≥ 5x faster than
  the codegen backend at n ≤ 256. At n = 100k the array work
  dominates every tier and the honest floor is parity.

Both backends replay the *same* warm plan through
:func:`repro.engine.executor.execute`, so the comparison isolates the
execution tier — capture, fusion, lowering, and compilation costs are
excluded (they are one-time costs amortized across replays).
"""

from __future__ import annotations

import json
import timeit
from pathlib import Path

import numpy as np
import pytest

from repro import SVM
from repro.bench.harness import ExperimentResult
from repro.engine.executor import execute
from repro.engine.native import NativePlan, native_available
from repro.rvv.types import LMUL
from repro.utils.formatting import fmt_count, fmt_ratio

from conftest import record, rng

SEED = 0

#: Interleaved rounds: three lane ops + a scan tail per round, so the
#: plan fuses into ROUNDS distinct groups — the codegen tier pays one
#: Python-level unit replay per group, the native tier one C call for
#: the whole plan. This is the dispatch-bound shape the tier exists for.
ROUNDS = 6

VLENS = (128, 512)
LMULS = (1, 4)
SIZES = (64, 256, 3000)


def _pipe(lz, data):
    for _ in range(ROUNDS):
        lz.p_add(data, 10)
        lz.p_xor(data, 5)
        lz.p_mul(data, 3)
        lz.plus_scan(data)
    return data


def _observe(svm, n, lmul, runs):
    """``runs`` captured executions on identical fresh inputs; returns
    the LAST run's (result, nonzero counters, fused plan) — for the
    native tier run 2 replays the warm plan-cache entry."""
    out = counts = fused = None
    for _ in range(runs):
        data = svm.array(rng(SEED).integers(0, 2**16, n, dtype=np.uint32))
        svm.machine.counters.reset()
        with svm.lazy() as lz:
            arr = _pipe(lz, data)
        out = arr.to_numpy()
        counts = {cat.value: k for cat, k in
                  svm.machine.counters.snapshot().by_category.items() if k}
        fused = lz.fused
        svm.free(data)
    return out, counts, fused


def test_native_identity_grid():
    cells = []
    table_rows = []
    for vlen in VLENS:
        for lmul in LMULS:
            for n in SIZES:
                ref_svm = SVM(vlen=vlen, mode="strict", codegen="paper",
                              lmul=LMUL(lmul))
                ref, ref_counts, _ = _observe(ref_svm, n, lmul, runs=1)

                nat_svm = SVM(vlen=vlen, mode="fast", codegen="paper",
                              lmul=LMUL(lmul), backend="native")
                got, counts, fused = _observe(nat_svm, n, lmul, runs=2)

                cell = {
                    "vlen": vlen,
                    "lmul": lmul,
                    "n": n,
                    "strict_instr": sum(ref_counts.values()),
                    "native_instr": sum(counts.values()),
                    "lowered": isinstance(fused.native, NativePlan),
                    "identical_results": bool(np.array_equal(ref, got)),
                    "identical_counters": bool(counts == ref_counts),
                }
                assert cell["lowered"], cell
                assert cell["identical_results"], cell
                assert cell["identical_counters"], cell
                if native_available():
                    # with a toolchain the runs really were compiled
                    # replays of the static charge profile
                    assert fused.charge_items is not None, cell
                cells.append(cell)
                table_rows.append([
                    str(vlen), str(lmul), str(n),
                    fmt_count(cell["strict_instr"]),
                    fmt_count(cell["native_instr"]),
                ])

    # batched (2D) execution: whole buckets through the compiled
    # plan_run2d entry point, identical to the strict batch (which
    # loops single calls through the reference strip loops)
    batch = []
    for vlen in VLENS:
        raw = [rng(SEED + i).integers(0, 2**16, 256, dtype=np.uint32)
               for i in range(8)]
        outs = {}
        snaps = {}
        for mode, backend in (("strict", "codegen"), ("fast", "native")):
            svm = SVM(vlen=vlen, mode=mode, codegen="paper",
                      backend=backend)
            res = svm.batch(_pipe, raw)
            outs[mode] = [np.asarray(r) for r in res]
            snaps[mode] = svm.counters.snapshot()
        batch.append({
            "vlen": vlen,
            "n": 256,
            "rows": len(raw),
            "instr": snaps["fast"].total,
            "identical_results": bool(all(
                np.array_equal(a, b)
                for a, b in zip(outs["strict"], outs["fast"]))),
            "identical_counters": bool(
                snaps["strict"].by_category == snaps["fast"].by_category),
        })
    for cell in batch:
        assert cell["identical_results"], cell
        assert cell["identical_counters"], cell

    record(ExperimentResult(
        "Native identity grid",
        f"{ROUNDS}-round interleaved chain+scan: compiled C kernels "
        "(warm replay) vs strict reference",
        ["VLEN", "LMUL", "n", "strict instr", "native instr"],
        table_rows,
        notes=["the native tier charges the static counter profile the"
               " plan's compile summed from the registry's charge"
               " functions, so both columns are equal by construction —"
               " the grid locks that invariant, with or without a host C"
               " toolchain."],
    ))

    out = Path(__file__).resolve().parent.parent / "BENCH_native.json"
    out.write_text(json.dumps({
        "pipeline": f"{ROUNDS} rounds of (add, xor, mul, plus_scan), uint32",
        "codegen": "paper",
        "mode": "fast",
        "grid": cells,
        "batch": batch,
    }, indent=2) + "\n")


@pytest.mark.skipif(not native_available(),
                    reason="no C toolchain on this host")
def test_native_wallclock_speedup():
    table = []
    # (n, reps, floor): dispatch-bound cells carry the >=5x
    # acceptance; at n=100k the array work dominates every backend and
    # the honest floor is parity
    for n, reps, floor in ((64, 2000, 5.0), (256, 2000, 5.0),
                           (100_000, 50, 1.0)):
        times = {}
        for backend in ("codegen", "native"):
            svm = SVM(vlen=512, codegen="paper", mode="fast",
                      backend=backend)
            data = svm.array(rng(SEED).integers(0, 2**16, n,
                                                dtype=np.uint32))
            with svm.lazy() as lz:  # capture once; replays are measured
                _pipe(lz, data)
            plan, fused = svm.engine.last_plan, svm.engine.last_fused
            for _ in range(2):  # warm: lower and compile
                execute(svm, plan, fused, backend=backend)
            times[backend] = min(timeit.repeat(
                lambda: execute(svm, plan, fused, backend=backend),
                number=reps, repeat=9)) / reps
        speedup = times["codegen"] / times["native"]
        table.append([str(n), f"{times['codegen'] * 1e6:.2f} us",
                      f"{times['native'] * 1e6:.2f} us",
                      fmt_ratio(speedup), f">= {floor:g}x"])
        assert speedup >= floor, (
            f"n={n}: native {times['native'] * 1e6:.2f} us vs codegen "
            f"{times['codegen'] * 1e6:.2f} us = {speedup:.2f}x < floor "
            f"{floor:g}x")
    record(ExperimentResult(
        "Native wall-clock",
        f"{ROUNDS}-round chain+scan at VLEN=512, warm-plan replay "
        "(best of 9)",
        ["n", "codegen", "native", "native x", "floor"], table,
        notes=["wall-clock is machine-dependent and intentionally kept"
               " out of BENCH_native.json; the CI gate locks only the"
               " deterministic identity data."],
    ))
