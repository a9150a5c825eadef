"""Ablation: the LMUL advisor (§6.3's guidance made quantitative) vs
an exhaustive sweep — the advisor must pick the measured argmin at
every N, and its predictions must equal measurement exactly.
"""

from repro.bench.harness import ExperimentResult
from repro.tune import choose_lmul, measure_kernel
from repro.rvv.types import LMUL
from repro.utils.formatting import fmt_count

from conftest import record


def test_ablation_lmul_advisor():
    rows = []
    for n in (10**2, 10**3, 10**4, 10**5, 10**6):
        counts = {
            lm: measure_kernel("seg_plus_scan", n, 1024, LMUL(lm)).instructions
            for lm in (1, 2, 4, 8)
        }
        best_lm = min(counts, key=counts.get)
        choice = choose_lmul("seg_plus_scan", n, 1024)
        assert int(choice.lmul) == best_lm, (n, counts, choice)
        assert choice.count == counts[best_lm]
        rows.append([fmt_count(n), f"m{best_lm}", fmt_count(counts[best_lm]),
                     f"m{int(choice.lmul)}", fmt_count(choice.count)])
    res = ExperimentResult(
        "Ablation C", "LMUL advisor vs exhaustive sweep (seg_plus_scan)",
        ["N", "sweep best", "count", "advisor pick", "predicted"], rows,
        notes=["the advisor's closed form equals measurement instruction-"
               "for-instruction, so the pick is provably the sweep argmin."],
    )
    record(res)
