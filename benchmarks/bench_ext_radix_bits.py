"""Extension bench: split radix sort cost vs key width.

Listing 9 always runs 32 passes; when keys are known to fit in fewer
bits, passes (and cost) drop linearly — the standard radix-sort
optimization, quantified on the simulator. Also contrasts radix sort
with flat quicksort, whose cost scales with lg(n) rounds of ~20
primitive passes instead of the key width.
"""

import numpy as np

from repro import SVM
from repro.algorithms import flat_quicksort, split_radix_sort
from repro.bench.harness import ExperimentResult
from repro.utils.formatting import fmt_count, fmt_ratio

from conftest import record

N = 10**4


def _radix_cost(bits: int) -> int:
    svm = SVM(vlen=1024, codegen="paper", mode="fast")
    data = np.random.default_rng(0).integers(0, 1 << bits, N, dtype=np.uint32)
    arr = svm.array(data)
    svm.reset()
    split_radix_sort(svm, arr, bits=bits)
    assert np.array_equal(arr.to_numpy(), np.sort(data))
    return svm.instructions


def test_radix_bits_ablation():
    rows = []
    full = _radix_cost(32)
    for bits in (4, 8, 16, 24, 32):
        c = _radix_cost(bits)
        rows.append([bits, fmt_count(c), fmt_ratio(full / c)])
    # quicksort comparison on the same data shape
    svm = SVM(vlen=1024, codegen="paper", mode="fast")
    data = np.random.default_rng(0).integers(0, 1 << 16, N, dtype=np.uint32)
    arr = svm.array(data)
    svm.reset()
    rounds = flat_quicksort(svm, arr, shuffle=True,
                            rng=np.random.default_rng(1))
    rows.append([f"qs({rounds}r)", fmt_count(svm.instructions),
                 fmt_ratio(full / svm.instructions)])
    res = ExperimentResult(
        "Extension E", f"sort cost vs key width (N={N}, VLEN=1024)",
        ["key bits", "instructions", "speedup vs 32-bit radix"], rows,
        notes=["radix cost is linear in the key width (one split pass per"
               " bit); flat quicksort instead pays ~20 primitive passes per"
               " lg(n) round, which loses at this N."],
    )
    record(res)
