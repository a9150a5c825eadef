"""Strip fusion vs eager execution across the VLEN/LMUL grid.

The lazy engine's pitch is that a chain of elementwise passes feeding
a scan costs one load + one store per strip instead of one round trip
per pass (§5's strip-mining discipline applied across *operations*,
not just within one). This bench quantifies that on a depth-3 chain +
plus-scan pipeline with the paper-calibrated codegen preset, sweeps
the fused-vs-eager ratio over VLEN ∈ {128, 256, 512, 1024} × LMUL ∈
{1, 2, 4, 8} and over chain depth, and emits ``BENCH_fusion.json``.

Grid cells run through :func:`repro.parallel.fusion_cell` /
:func:`repro.parallel.run_grid`, so setting ``REPRO_BENCH_JOBS=N`` (or
running ``repro bench --jobs N``) fans the sweep over N worker
processes with per-worker machines; results and JSON output are
byte-identical at any job count.

The headline acceptance check lives here: at VLEN=1024 the fused
depth-3+scan pipeline must save at least 25% of total dynamic
instructions over the eager spelling.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.harness import ExperimentResult
from repro.parallel import default_jobs, fusion_cell, run_grid
from repro.utils.formatting import fmt_count, fmt_ratio

from conftest import record

N = 100_000
SEED = 0


def test_fusion_grid():
    params = [
        {"n": N, "vlen": vlen, "lmul": lmul, "depth": 3, "seed": SEED}
        for vlen in (128, 256, 512, 1024)
        for lmul in (1, 2, 4, 8)
    ]
    cells = run_grid(fusion_cell, params, jobs=default_jobs())

    grid = []
    rows = []
    for cell in cells:
        assert cell.pop("identical"), cell
        assert cell["fused"] <= cell["eager"]
        grid.append(cell)
        rows.append([str(cell["vlen"]), str(cell["lmul"]),
                     fmt_count(cell["eager"]), fmt_count(cell["fused"]),
                     fmt_ratio(cell["eager"] / cell["fused"]),
                     f"{cell['saving_pct']:.1f}%"])

    # acceptance: depth-3 chains at VLEN=1024 save >= 25% at every LMUL
    for cell in grid:
        if cell["vlen"] == 1024:
            assert cell["saving_pct"] >= 25.0, cell

    depth_params = [
        {"n": N, "vlen": 1024, "lmul": 1, "depth": depth, "seed": SEED}
        for depth in (1, 2, 3, 4, 5)
    ]
    depth_cells = run_grid(fusion_cell, depth_params, jobs=default_jobs())
    depth_sweep = []
    depth_rows = []
    for depth_param, cell in zip(depth_params, depth_cells):
        assert cell.pop("identical"), cell
        depth_sweep.append({"depth": depth_param["depth"],
                            "eager": cell["eager"], "fused": cell["fused"],
                            "saving_pct": cell["saving_pct"]})
        depth_rows.append([str(depth_param["depth"]), fmt_count(cell["eager"]),
                           fmt_count(cell["fused"]),
                           fmt_ratio(cell["eager"] / cell["fused"]),
                           f"{cell['saving_pct']:.1f}%"])

    record(ExperimentResult(
        "Fusion grid",
        f"depth-3 chain + plus_scan, N={N:,}, paper codegen: fused vs eager",
        ["VLEN", "LMUL", "eager", "fused", "speedup x", "saved"], rows,
        notes=["every cell is bit-identical to the eager run; the saving is"
               " the eliminated per-strip load/store round trips and their"
               " vsetvl/loop bookkeeping."],
    ))
    record(ExperimentResult(
        "Fusion depth sweep",
        f"chain depth + plus_scan at VLEN=1024 LMUL=1, N={N:,}",
        ["depth", "eager", "fused", "speedup x", "saved"], depth_rows,
    ))

    out = Path(__file__).resolve().parent.parent / "BENCH_fusion.json"
    out.write_text(json.dumps({
        "pipeline": "elementwise chain (depth d) + plus_scan, uint32",
        "n": N,
        "codegen": "paper",
        "mode": "fast",
        "grid": grid,
        "depth_sweep": depth_sweep,
    }, indent=2) + "\n")
