"""Extension ablation: digit width in radix sort — why the paper
splits one bit at a time.

Classical radix sorts widen the digit to cut pass counts; in the scan
vector model each extra bucket costs a full enumerate+select sweep
(no scatter-with-accumulate exists to histogram in one pass), so the
per-pass cost grows as Θ(2^w) while passes shrink only by w. Measured:
the paper's binary split — whose two buckets share a single pair of
enumerates inside `split` — beats every wider digit.
"""

import numpy as np

from repro import SVM
from repro.algorithms import split_radix_sort, split_radix_sort_wide
from repro.bench.harness import ExperimentResult
from repro.utils.formatting import fmt_count, fmt_ratio

from conftest import record

N = 10**4


def _cost(w: int | None) -> int:
    svm = SVM(vlen=1024, codegen="paper", mode="fast")
    data = np.random.default_rng(0).integers(0, 2**32, N, dtype=np.uint32)
    arr = svm.array(data)
    svm.reset()
    if w is None:
        split_radix_sort(svm, arr)
    else:
        split_radix_sort_wide(svm, arr, digit_bits=w)
    assert np.array_equal(arr.to_numpy(), np.sort(data))
    return svm.instructions


def test_digit_width_ablation():
    base = _cost(None)
    rows = [["split (1 bit, shared enumerates)", fmt_count(base), "1.00"]]
    for w in (1, 2, 4, 8):
        c = _cost(w)
        rows.append([f"wide radix, w={w} ({32 // w} passes)",
                     fmt_count(c), fmt_ratio(c / base)])
        assert c > base, "binary split must win at every digit width"
    res = ExperimentResult(
        "Extension F", f"radix digit width (N={N}, VLEN=1024)",
        ["variant", "instructions", "vs split"], rows,
        notes=["the 2^w per-pass bucket sweeps outgrow the w-fold pass"
               " reduction; Listing 9's one-bit split is optimal for"
               " this primitive set, not a simplification."],
    )
    record(res)
