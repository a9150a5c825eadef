"""Extension bench: dynamic-count profile of the added scan-vector-
model applications (flat quicksort, RLE round-trip, CSR SpMV) —
beyond the paper's Table 1, these show the primitive set carrying
Blelloch's wider workload catalogue.
"""

import numpy as np

from repro import SVM
from repro.algorithms import (
    CSRMatrix, flat_quicksort, rle_decode, rle_encode, spmv,
)
from repro.bench.harness import ExperimentResult
from repro.utils.formatting import fmt_count, fmt_ratio

from conftest import record


def _quicksort_count(n: int) -> tuple[int, int]:
    svm = SVM(vlen=1024, codegen="paper", mode="fast")
    data = np.random.default_rng(1).integers(0, 1 << 31, n, dtype=np.uint32)
    arr = svm.array(data)
    svm.reset()
    rounds = flat_quicksort(svm, arr)
    assert np.array_equal(arr.to_numpy(), np.sort(data))
    return svm.instructions, rounds


def _rle_count(n: int) -> int:
    svm = SVM(vlen=1024, codegen="paper", mode="fast")
    rng = np.random.default_rng(2)
    data = np.repeat(rng.integers(0, 8, n // 4 + 1, dtype=np.uint32),
                     rng.integers(1, 8, n // 4 + 1))[:n]
    arr = svm.array(data)
    svm.reset()
    v, l, k = rle_encode(svm, arr)
    out = rle_decode(svm, v, l, k)
    assert np.array_equal(out.to_numpy(), data)
    return svm.instructions


def _spmv_count(rows: int) -> int:
    svm = SVM(vlen=1024, codegen="paper", mode="fast")
    rng = np.random.default_rng(3)
    mat = CSRMatrix.random(rows, rows, 0.05, rng)
    x = svm.array(rng.integers(0, 8, rows, dtype=np.uint32))
    svm.reset()
    y = spmv(svm, mat, x)
    expect = (mat.to_dense().astype(np.uint64) @ x.to_numpy()).astype(np.uint32)
    assert np.array_equal(y.to_numpy(), expect)
    return svm.instructions


def test_algorithm_profiles():
    rows = []
    for n in (10**3, 10**4):
        qc, rounds = _quicksort_count(n)
        rows.append([f"flat_quicksort n={n}", fmt_count(qc),
                     fmt_ratio(qc / n, 1), f"{rounds} rounds"])
    for n in (10**3, 10**4):
        rc = _rle_count(n)
        rows.append([f"rle round-trip n={n}", fmt_count(rc), fmt_ratio(rc / n, 1), ""])
    for r in (100, 300):
        sc = _spmv_count(r)
        rows.append([f"spmv {r}x{r} d=0.05", fmt_count(sc), "-", ""])
    res = ExperimentResult(
        "Extension", "dynamic-count profile of added applications",
        ["workload", "instructions", "instr/elem", "detail"], rows,
        notes=["all three run purely on scan-vector-model primitives;"
               " results verified against NumPy oracles inside the bench."],
    )
    record(res)
