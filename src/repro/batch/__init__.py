"""Batched execution of one fused plan over many inputs.

``svm.batch(pipe, inputs)`` (or :func:`run_batch`) amortizes plan
capture, cache lookup, dispatch, and counter charging across a whole
batch: same-length inputs share one cached
:class:`~repro.engine.fuse.FusedPlan`, data moves as a single 2D NumPy
evaluation per execution unit, and counters are charged once from
the plan's recorded closed-form profile scaled by the batch size —
bit- and counter-identical to looping the single-input path.
Pipelines ending in ``pack`` run the same way on the ``"ragged"``
path: one masked 2D evaluation plus a per-row-lengths column
(:class:`~repro.batch.ragged.RaggedBatch`) and each row's own pack
charge. See ``docs/batching.md``.
"""

from .ragged import RaggedBatch, pack2d
from .runner import BatchBucket, BatchResult, run_batch

__all__ = ["BatchBucket", "BatchResult", "RaggedBatch", "pack2d",
           "run_batch"]
