"""Shape-aware execution tuning — ``repro tune``.

The paper's LMUL study (§6.3, Tables 5-6) shows the best execution
configuration depends on workload *shape*: high LMUL wins at large n
(fewer strips), but its register spills dominate at small n. This
package operationalizes that observation end to end:

* :mod:`~repro.tune.advisor` — closed-form cost prediction per LMUL
  and the paper-conclusion selection heuristic;
* :mod:`~repro.tune.measure` — the single-kernel measurement grids
  behind Tables 5-7 and Figure 5;
* :mod:`~repro.tune.sweep` — the pipeline-level sweep driver: fans a
  plan-fingerprint × size-grid × config grid over
  :mod:`repro.parallel` and fits the measurements into a policy;
* :mod:`~repro.tune.db` — :class:`TuningDB`, the versioned persistent
  store of fitted policies (JSON, next to the native C artifacts,
  guarded by the engine code fingerprint);
* :mod:`~repro.tune.policy` — :class:`TunePolicy`, the dispatch-time
  consumer: ``SVM(tune="auto")`` consults it at plan-dispatch time,
  memoized per (plan fingerprint, n-bucket), and retags the plan to
  the learned config before the plan-cache key is computed.

The tuner only ever *selects* a configuration — execution under a
chosen config is bit- and counter-identical to an SVM pinned to that
config (the identity gate in ``tests/tune/`` asserts it).

Lifecycle: ``repro tune sweep`` (measure + fit + persist) →
``SVM(tune="auto")`` / ``repro serve --tune auto`` (consult) →
``repro tune show`` / ``repro cache stats`` (inspect) — see
``docs/tuning.md``.
"""

from .advisor import LmulPrediction, choose_lmul, predict_scan_count
from .db import TUNE_SCHEMA_VERSION, TuningDB
from .measure import SweepPoint, measure_kernel, sweep_lmul, sweep_vlen
from .policy import TunePolicy, fit_policy, n_bucket
from .sweep import PIPELINES, TunePoint, run_tune_sweep, tune_cell

__all__ = [
    "LmulPrediction",
    "choose_lmul",
    "predict_scan_count",
    "SweepPoint",
    "measure_kernel",
    "sweep_lmul",
    "sweep_vlen",
    "TuningDB",
    "TUNE_SCHEMA_VERSION",
    "TunePolicy",
    "fit_policy",
    "n_bucket",
    "PIPELINES",
    "TunePoint",
    "run_tune_sweep",
    "tune_cell",
]
