"""Ablation: the PAPER codegen preset vs the IDEAL lower bound.

Separates the algorithmic cost of the kernels (one instruction per
intrinsic, minimal bookkeeping) from the measured LLVM codegen
overhead the paper's numbers include — i.e. how much headroom a better
compiler would have on the same kernels.
"""

from repro.bench.harness import ExperimentResult
from repro.tune import measure_kernel
from repro.utils.formatting import fmt_count, fmt_ratio

from conftest import record

N = 10**5


def test_ablation_codegen():
    rows = []
    for kernel in ("p_add", "plus_scan", "seg_plus_scan"):
        paper = measure_kernel(kernel, N, 1024, codegen="paper").instructions
        ideal = measure_kernel(kernel, N, 1024, codegen="ideal").instructions
        rows.append([kernel, fmt_count(ideal), fmt_count(paper),
                     fmt_ratio(paper / ideal)])
        assert ideal < paper
    res = ExperimentResult(
        "Ablation B", f"codegen presets at N={N}, VLEN=1024: IDEAL vs PAPER",
        ["kernel", "ideal", "paper-calibrated", "codegen overhead x"], rows,
        notes=["the scan kernels carry ~2-3x codegen overhead in the paper's"
               " build (register moves for undisturbed destinations, masked-"
               "op copies, loop bookkeeping) — headroom for better codegen."],
    )
    record(res)
