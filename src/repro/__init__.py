"""repro — reproduction of "Efficient Support of the Scan Vector Model
for RISC-V Vector Extension" (Lai & Lee, ICPP Workshops '22).

Layering (see DESIGN.md):

* :mod:`repro.rvv` — the RVV substrate (functional simulator standing
  in for RVV hardware + LLVM + the Spike instruction counter);
* :mod:`repro.scalar` — the sequential baselines every speedup is
  measured against;
* :mod:`repro.svm` — the scan vector model primitives (the paper's
  contribution): elementwise, permutation, scan, segmented scan,
  enumerate, split;
* :mod:`repro.engine` — lazy plan capture and strip fusion over the
  primitives (plan cache included);
* :mod:`repro.obs` — observability: hierarchical profiling spans,
  metrics, and tree/JSON/Chrome-trace exporters;
* :mod:`repro.config` — the unified :class:`~repro.config.ExecConfig`
  layer every execution axis resolves through (defaults ← REPRO_* env
  ← ``SVM(...)`` kwargs ← per-call overrides);
* :mod:`repro.tune` — shape-aware tuning: the LMUL study (advisor +
  measurement grids) plus the persistent shape→config auto-tuner
  consulted by ``SVM(tune="auto")``;
* :mod:`repro.algorithms` — applications built purely on primitives
  (split radix sort, flat quicksort, RLE, SpMV, ...);
* :mod:`repro.bench` — the harness regenerating every table and figure.

Quick start::

    from repro import SVM
    svm = SVM(vlen=1024)
    a = svm.array([3, 1, 7, 0, 4, 1, 6, 3])
    svm.plus_scan(a)
    print(a.to_numpy(), svm.instructions)
"""

from .rvv import LMUL, SEW, RVVMachine
from .svm import SVM, SVMArray

__version__ = "1.0.0"

__all__ = ["SVM", "SVMArray", "RVVMachine", "LMUL", "SEW", "__version__"]
