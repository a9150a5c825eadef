"""Extension bench: the combined VLEN x LMUL design space.

The paper studies VLEN (Table 7) and LMUL (Table 5) separately, both
for segmented scan. This bench crosses them: for each microarchitecture
width, which register grouping wins at N=10^5 — and does the spill
crossover move? (It does: narrower machines have smaller vlmax, so the
strip savings of big groups amortize the same spill cost later.)
"""

from repro.bench.harness import ExperimentResult
from repro.tune import choose_lmul, measure_kernel
from repro.rvv.types import LMUL
from repro.utils.formatting import fmt_count

from conftest import record

N = 10**5


def test_vlen_lmul_matrix():
    rows = []
    for vlen in (128, 256, 512, 1024):
        counts = {
            int(lm): measure_kernel("seg_plus_scan", N, vlen, lm).instructions
            for lm in LMUL
        }
        best = min(counts, key=counts.get)
        advisor = choose_lmul("seg_plus_scan", N, vlen)
        assert int(advisor.lmul) == best  # the advisor generalizes across VLEN
        rows.append([vlen] + [fmt_count(counts[k]) for k in (1, 2, 4, 8)]
                    + [f"m{best}"])
    res = ExperimentResult(
        "Extension D", f"seg_plus_scan across VLEN x LMUL (N={N})",
        ["vlen", "LMUL=1", "LMUL=2", "LMUL=4", "LMUL=8", "best"], rows,
        notes=["the advisor's closed form picks the argmin at every VLEN,"
               " not just the paper's 1024-bit configuration."],
    )
    record(res)
