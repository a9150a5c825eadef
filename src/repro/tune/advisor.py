"""LMUL selection advisor — operationalizing §6.3's conclusion.

The paper closes its LMUL study with guidance: *"for workloads with
small vector size, the overhead of register spilling can be
significant. For workloads with very large vector size, the dynamic
instruction count can be covered"* — i.e. pick the largest LMUL whose
spill overhead is amortized by the strip-count reduction at your N.

:func:`choose_lmul` makes that quantitative: using the same cost
models the kernels charge (strip structure + the register-pressure
spill plan), it predicts the dynamic instruction count of a kernel at
every legal LMUL and returns the argmin. Because the predictions are
the *exact* closed forms the machine itself uses, the advisor is
provably consistent with measurement — tested by sweeping and
comparing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rvv.allocation import SEG_SCAN_PROFILE, PLUS_SCAN_PROFILE, plan_allocation
from ..rvv.codegen import CodegenModel, get_preset
from ..rvv.types import LMUL, SEW
from ..svm.fastpath import charge_scan, charge_seg_scan

__all__ = ["LmulPrediction", "predict_scan_count", "choose_lmul"]

#: kernel -> (the fast path's pure charge function, register profile)
_KERNELS = {
    "plus_scan": (charge_scan, PLUS_SCAN_PROFILE),
    "seg_plus_scan": (charge_seg_scan, SEG_SCAN_PROFILE),
}


@dataclass(frozen=True)
class LmulPrediction:
    """Predicted dynamic instruction count of one kernel at one LMUL."""

    lmul: LMUL
    count: int
    spilled_values: tuple[str, ...]

    @property
    def has_spills(self) -> bool:
        return bool(self.spilled_values)


def predict_scan_count(kernel: str, n: int, vlen: int, lmul: LMUL,
                       codegen: str | CodegenModel = "paper",
                       sew: SEW = SEW.E32) -> LmulPrediction:
    """Closed-form dynamic count of ``kernel`` ('plus_scan' or
    'seg_plus_scan') for ``n`` elements at the given configuration —
    the fast path's own pure charge function, summed over categories."""
    charge, profile = _KERNELS[kernel]
    items = charge(get_preset(codegen), vlen, int(n), sew, LMUL(lmul),
                   exclusive=False)
    return LmulPrediction(LMUL(lmul), sum(k for _, k in items),
                          plan_allocation(profile, lmul).spilled)


def choose_lmul(kernel: str, n: int, vlen: int,
                codegen: str | CodegenModel = "paper",
                candidates: tuple[LMUL, ...] = (LMUL.M1, LMUL.M2, LMUL.M4, LMUL.M8),
                ) -> LmulPrediction:
    """Pick the LMUL minimizing the predicted dynamic count (§6.3's
    guidance made quantitative). Ties go to the smaller LMUL — less
    register pressure for the surrounding code at equal cost."""
    best: LmulPrediction | None = None
    for lm in candidates:
        pred = predict_scan_count(kernel, n, vlen, lm, codegen)
        if best is None or pred.count < best.count:
            best = pred
    assert best is not None
    return best
