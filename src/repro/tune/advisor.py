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

from ..rvv.allocation import RegisterProfile, SEG_SCAN_PROFILE, PLUS_SCAN_PROFILE, plan_allocation
from ..rvv.codegen import CodegenModel, get_preset
from ..rvv.machine import RVVMachine
from ..rvv.types import LMUL, SEW, vlmax_for
from ..svm.scan import inner_scan_steps

__all__ = ["LmulPrediction", "predict_scan_count", "choose_lmul"]

_PROFILES = {
    "plus_scan": PLUS_SCAN_PROFILE,
    "seg_plus_scan": SEG_SCAN_PROFILE,
}

# vector-instruction cost structure of the two scan kernels, in terms
# of the codegen model's expansions (mirrors fastpath's charge helpers)
_KERNEL_SHAPE = {
    # (one_time_ops, outer_plain, outer_dest, outer_masked, inner_plain,
    #  inner_dest, inner_masked, outer_scalar_fixed)
    "plus_scan": dict(one_plain=1, one_dest=0, outer_plain=3, outer_dest=0,
                      outer_masked=0, inner_plain=1, inner_dest=1,
                      inner_masked=0, outer_scalar=2),
    "seg_plus_scan": dict(one_plain=2, one_dest=0, outer_plain=5, outer_dest=1,
                          outer_masked=1, inner_plain=2, inner_dest=2,
                          inner_masked=1, outer_scalar=2),
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
    the same arithmetic the fast path charges, packaged for planning."""
    cg = get_preset(codegen)
    shape = _KERNEL_SHAPE[kernel]
    profile = _PROFILES[kernel]
    plan = plan_allocation(profile, lmul)

    vlmax = vlmax_for(vlen, sew, lmul)
    full, rem = divmod(int(n), vlmax)
    n_strips = full + (1 if rem else 0)
    steps_full = inner_scan_steps(vlmax)
    steps_rem = inner_scan_steps(rem)
    total_steps = full * steps_full + steps_rem

    plain = cg.op_cost()
    dest = cg.op_cost(dest_undisturbed=True)
    masked = cg.op_cost(masked=True)

    count = cg.prologue(kernel)
    count += 1 + shape["one_plain"] * plain + shape["one_dest"] * dest  # vsetvlmax + setup
    per_strip_vec = (
        1  # vsetvl
        + shape["outer_plain"] * plain
        + shape["outer_dest"] * dest
        + shape["outer_masked"] * masked
    )
    per_inner_vec = (
        shape["inner_plain"] * plain
        + shape["inner_dest"] * dest
        + shape["inner_masked"] * masked
    )
    count += n_strips * (per_strip_vec + shape["outer_scalar"]
                         + cg.strip_overhead(kernel, 2 if kernel == "seg_plus_scan" else 1))
    count += total_steps * (per_inner_vec + cg.inner_overhead(kernel))
    if plan.has_spills:
        count += plan.frame_setup
        count += full * plan.strip_cost(steps_full)
        if rem:
            count += plan.strip_cost(steps_rem)
    return LmulPrediction(LMUL(lmul), count, plan.spilled)


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
