"""Ablation: viota-based enumerate (Listing 8) vs a generic
exclusive plus-scan of the flag vector.

The paper argues the 0/1 restriction on enumerate's input "gives
chances for optimization" (§4.4): viota performs the whole in-register
exclusive count in one instruction where the general scan needs
lg(vl) slideup-and-add steps. This bench quantifies that choice.
"""

import numpy as np

from repro import SVM
from repro.bench.harness import ExperimentResult
from repro.utils.formatting import fmt_count, fmt_ratio

from conftest import record


def _enumerate_via_viota(svm: SVM, flags) -> int:
    svm.reset()
    dst, _count = svm.enumerate(flags, set_bit=True)
    svm.free(dst)  # the timing loop re-runs this; don't leak the heap
    return svm.instructions


def _enumerate_via_scan(svm: SVM, flags) -> int:
    """The generic alternative: copy the flags and exclusive-plus-scan
    them (counts each flag before every position — identical result)."""
    svm.reset()
    ranks = svm.copy(flags)
    svm.scan(ranks, "plus", inclusive=False)
    svm.free(ranks)
    return svm.instructions


def test_ablation_enumerate():
    rows = []
    for n in (10**3, 10**4, 10**5, 10**6):
        svm = SVM(vlen=1024, codegen="paper", mode="fast")
        flags = svm.array((np.random.default_rng(0).random(n) < 0.5).astype(np.uint32))
        viota = _enumerate_via_viota(svm, flags)
        scan = _enumerate_via_scan(svm, flags)
        rows.append([fmt_count(n), fmt_count(viota), fmt_count(scan),
                     fmt_ratio(scan / viota)])
        assert viota < scan, "viota enumerate must beat the generic scan"
    res = ExperimentResult(
        "Ablation A", "enumerate: viota+vcpop vs generic exclusive plus-scan",
        ["N", "viota", "generic scan", "advantage"], rows,
        notes=["the generic path pays lg(vl)=5 slideup-add steps per strip"
               " where viota pays 1 instruction — the paper's §4.4 claim."],
    )
    record(res)
