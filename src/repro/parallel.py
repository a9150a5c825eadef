"""Multiprocess sweep runner for VLEN×LMUL×n benchmark grids.

Every grid cell is an independent closed-form simulation — no shared
state beyond the parameters — so fanning cells over a
:class:`~concurrent.futures.ProcessPoolExecutor` with a per-worker
machine is embarrassingly parallel. :func:`run_grid` is the tiny
deterministic core: results come back in input order regardless of
completion order, and ``jobs <= 1`` runs inline (no pool, no pickling)
so single-process runs and tests stay byte-identical.

The module-level cell functions (:func:`fusion_cell`,
:func:`batch_cell`, :func:`codegen_cell`) exist because pool workers
must import their task by qualified name: each constructs its own
:class:`~repro.svm.SVM` (hence its own machine and counters) from the
parameter dict and returns a plain dict, which the parent merges. They
are shared by ``benchmarks/bench_fusion.py``,
``benchmarks/bench_batch.py``, ``benchmarks/bench_codegen.py``, and
the ``repro bench --jobs N`` CLI.

Workers started with ``REPRO_CACHE_DIR`` set on a native backend
additionally share the compiled C artifacts under
``<cache_dir>/native/`` (:func:`repro.engine.native.artifact_dir`), so
a worker binds the ``.so`` an earlier process built instead of
running ``cc`` again. Plans themselves are rebuilt per process: fuse
and codegen take about a millisecond, no more than loading them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import env_bench_jobs

__all__ = [
    "run_grid", "default_jobs", "fusion_cell", "batch_cell",
    "codegen_cell", "CHAIN",
]


def default_jobs() -> int:
    """Worker count for ``--jobs``-less callers: the REPRO_BENCH_JOBS
    environment variable (via :mod:`repro.config`, malformed values
    fall back), else 1 (inline)."""
    return env_bench_jobs()


def run_grid(fn, params, jobs: int = 1) -> list:
    """Apply ``fn`` to every parameter dict, optionally across
    processes; the result list is in input order either way.

    ``fn`` must be a module-level (picklable) callable taking one
    parameter dict. With ``jobs <= 1`` or a single cell this runs
    inline in the calling process.
    """
    params = list(params)
    if jobs <= 1 or len(params) <= 1:
        return [fn(p) for p in params]
    with ProcessPoolExecutor(max_workers=min(jobs, len(params))) as pool:
        return list(pool.map(fn, params))


# ---------------------------------------------------------------------------
# grid cells (module-level so pool workers can import them)
# ---------------------------------------------------------------------------

#: The benchmark pipeline both suites sweep: an elementwise chain
#: (depth-truncated) feeding a plus-scan.
CHAIN = (("p_add", 10), ("p_mul", 3), ("p_xor", 5), ("p_or", 1), ("p_add", 7))


def _chain_pipeline(api, data, lmul, depth):
    for op, x in CHAIN[:depth]:
        getattr(api, op)(data, x, lmul=lmul)
    api.plus_scan(data, lmul=lmul)
    return data


def fusion_cell(params: dict) -> dict:
    """One fused-vs-eager measurement on a private machine.

    ``params``: n, vlen, lmul, depth, seed (all ints). The returned
    dict carries the deterministic instruction counts plus an
    ``identical`` flag confirming fused output == eager output.
    """
    from repro import SVM
    from repro.rvv.types import LMUL

    n, vlen = params["n"], params["vlen"]
    lmul, depth = LMUL(params["lmul"]), params["depth"]
    values = np.random.default_rng(params.get("seed", 0)).integers(
        0, 2**16, n, dtype=np.uint32
    )

    def one(fused: bool):
        svm = SVM(vlen=vlen, codegen="paper", mode="fast")
        data = svm.array(values)
        svm.reset()
        if fused:
            with svm.lazy() as lz:
                _chain_pipeline(lz, data, lmul, depth)
        else:
            _chain_pipeline(svm, data, lmul, depth)
        return svm.instructions, data.to_numpy()

    eager, ref = one(fused=False)
    fused, got = one(fused=True)
    saving = 100.0 * (eager - fused) / eager if eager else 0.0
    return {
        "vlen": vlen,
        "lmul": int(lmul),
        "eager": eager,
        "fused": fused,
        "saving_pct": round(saving, 2),
        "identical": bool(np.array_equal(ref, got)),
    }


def codegen_cell(params: dict) -> dict:
    """One generated-kernel-vs-strict-reference measurement.

    ``params``: n, vlen, lmul, depth, seed. Runs the chain+scan
    pipeline once in strict mode (the per-strip reference) and once on
    the codegen fast path, each on a private machine, and reports both
    dynamic instruction counts plus result/counter identity — the
    invariants ``BENCH_codegen.json`` locks under the tolerance-0 CI
    gate. Wall-clock speedup is timing-dependent and therefore
    measured out-of-band by ``benchmarks/bench_codegen.py``, exactly
    like the batch suite.
    """
    from repro import SVM
    from repro.rvv.types import LMUL

    n, vlen = params["n"], params["vlen"]
    lmul, depth = LMUL(params["lmul"]), params["depth"]
    values = np.random.default_rng(params.get("seed", 0)).integers(
        0, 2**16, n, dtype=np.uint32
    )

    def one(mode: str):
        svm = SVM(vlen=vlen, codegen="paper", mode=mode, backend="codegen")
        data = svm.array(values)
        svm.reset()
        with svm.lazy() as lz:
            _chain_pipeline(lz, data, lmul, depth)
        return svm.counters.snapshot(), data.to_numpy()

    strict, ref = one("strict")
    codegen, got = one("fast")
    return {
        "vlen": vlen,
        "lmul": int(lmul),
        "n": n,
        "strict_instr": strict.total,
        "codegen_instr": codegen.total,
        "identical_results": bool(np.array_equal(ref, got)),
        "identical_counters": bool(strict.by_category == codegen.by_category),
    }


def batch_cell(params: dict) -> dict:
    """One batch-vs-loop measurement on a private machine.

    ``params``: n, vlen, lmul, rows, depth, seed. Runs the chain+scan
    pipeline ``rows`` times through looped single-plan calls and once
    through ``svm.batch``, and reports both total instruction counts
    plus result/counter identity — the invariants ``BENCH_batch.json``
    locks under the tolerance-0 CI gate.
    """
    from repro import SVM
    from repro.rvv.types import LMUL

    n, vlen = params["n"], params["vlen"]
    lmul, depth = LMUL(params["lmul"]), params["depth"]
    rng = np.random.default_rng(params.get("seed", 0))
    rows = [
        rng.integers(0, 2**16, n, dtype=np.uint32)
        for _ in range(params["rows"])
    ]

    def pipe(lz, data):
        return _chain_pipeline(lz, data, lmul, depth)

    loop_svm = SVM(vlen=vlen, codegen="paper", mode="fast")
    loop_outs = []
    for row in rows:
        data = loop_svm.array(row)
        with loop_svm.lazy() as lz:
            pipe(lz, data)
        loop_outs.append(data.to_numpy())
        loop_svm.free(data)

    batch_svm = SVM(vlen=vlen, codegen="paper", mode="fast")
    result = batch_svm.batch(pipe, rows)

    loop_counts = loop_svm.counters.snapshot().by_category
    batch_counts = batch_svm.counters.snapshot().by_category
    return {
        "vlen": vlen,
        "lmul": int(lmul),
        "n": n,
        "rows": len(rows),
        "path": result.buckets[0].path,
        "loop_instr": loop_svm.instructions,
        "batch_instr": batch_svm.instructions,
        "identical_results": bool(
            all(np.array_equal(a, b) for a, b in zip(loop_outs, result))
        ),
        "identical_counters": bool(loop_counts == batch_counts),
    }
