"""Single-kernel LMUL/VLEN measurement grids — the loops behind
Tables 5-7 and Figure 5.

Each sweep runs a kernel on a fresh machine per configuration and
collects the measured dynamic instruction counts; the bench harness
formats them against the paper's reference rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rvv.codegen import CodegenModel
from ..rvv.types import LMUL
from ..svm.context import SVM

__all__ = ["SweepPoint", "sweep_lmul", "sweep_vlen", "measure_kernel"]

#: Fraction of lanes carrying a segment head flag in generated
#: workloads (counts are data-independent; this only shapes semantics).
DEFAULT_FLAG_DENSITY = 0.1


@dataclass(frozen=True)
class SweepPoint:
    """One measured configuration."""

    kernel: str
    n: int
    vlen: int
    lmul: LMUL
    instructions: int


def _run(svm: SVM, kernel: str, n: int, lmul: LMUL, seed: int) -> None:
    rng = np.random.default_rng(seed)
    a = svm.array(rng.integers(0, 1 << 16, n, dtype=np.uint32))
    if kernel == "p_add":
        svm.reset()
        svm.p_add(a, 12345, lmul=lmul)
    elif kernel == "plus_scan":
        svm.reset()
        svm.plus_scan(a, lmul=lmul)
    elif kernel == "seg_plus_scan":
        flags = svm.array((rng.random(n) < DEFAULT_FLAG_DENSITY).astype(np.uint32))
        svm.reset()
        svm.seg_plus_scan(a, flags, lmul=lmul)
    else:
        raise KeyError(f"unknown sweep kernel {kernel!r}")


def measure_kernel(kernel: str, n: int, vlen: int, lmul: LMUL = LMUL.M1,
                   codegen: str | CodegenModel = "paper", seed: int = 0) -> SweepPoint:
    """Measure one (kernel, n, vlen, lmul) point on a fresh machine."""
    svm = SVM(vlen=vlen, codegen=codegen, mode="fast")
    _run(svm, kernel, n, LMUL(lmul), seed)
    return SweepPoint(kernel, int(n), vlen, LMUL(lmul), svm.instructions)


def sweep_lmul(kernel: str, sizes, vlen: int = 1024,
               lmuls=(LMUL.M1, LMUL.M2, LMUL.M4, LMUL.M8),
               codegen: str | CodegenModel = "paper") -> list[SweepPoint]:
    """The Table 5 measurement grid: every (n, LMUL) pair."""
    return [
        measure_kernel(kernel, n, vlen, lm, codegen)
        for n in sizes
        for lm in lmuls
    ]


def sweep_vlen(kernel: str, n: int, vlens=(128, 256, 512, 1024),
               lmul: LMUL = LMUL.M1,
               codegen: str | CodegenModel = "paper") -> list[SweepPoint]:
    """The Table 7 / Figure 5 measurement line: one n across VLENs."""
    return [measure_kernel(kernel, n, v, lmul, codegen) for v in vlens]
