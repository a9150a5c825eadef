"""Ragged-batch representation: 2D values decoupled from per-row
result lengths.

``pack`` is the one primitive whose *output length* (and with it the
data-dependent part of its charge) varies per row, so a batch of pack
pipelines cannot be described by a plain ``[B, n]`` matrix alone. The
fix mirrors how the paper's strip loop decouples logical vector length
from VLEN: keep the physical batch shape rectangular and carry the
logical per-row lengths as a first-class column.

* :class:`RaggedBatch` is that pairing — one ``[B, n]`` value buffer
  plus a ``[B]`` lengths vector, with a derived validity mask. Lanes
  at or beyond a row's length are *undefined* (malloc residue under
  the single-row semantics), never compared, never charged.
* :func:`pack2d` is pack's compaction kernel,
  :func:`repro.svm.fastpath.np_pack` — the one function the eager fast
  path runs on a single row. On a ``[B, n]`` matrix (the ``"ragged"``
  path) it compacts every row at once, writing each row's survivor
  prefix and returning the per-row kept counts (the vectorized form of
  the ``pack.kept`` :class:`~repro.engine.ir.ScalarFuture`).

The per-row *charge* correction is
:func:`repro.svm.fastpath.pack_variable_items`, next to the
``PACK_VARIABLE`` weights the eager fast path charges with; the
survivor-strip arithmetic it needs is
:func:`repro.svm.fastpath.pack_strip_survivors`, shared with the eager
fast path too. See ``docs/batching.md`` (ragged representation) for the
masking rule and the identity contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..svm.fastpath import np_pack as pack2d

__all__ = ["RaggedBatch", "pack2d"]


@dataclass(frozen=True)
class RaggedBatch:
    """A 2D value buffer with a per-row-lengths column.

    ``values[i, :lengths[i]]`` is row *i*'s defined prefix; lanes past
    the length are undefined residue and excluded from every identity
    comparison. ``lengths[i] == values.shape[1]`` marks a fully-defined
    row, so non-ragged results embed losslessly.
    """

    values: np.ndarray   #: ``[B, n]`` row-major value buffer
    lengths: np.ndarray  #: ``[B]`` int64 defined-prefix lengths

    def __post_init__(self):
        values = np.asarray(self.values)
        lengths = np.asarray(self.lengths, dtype=np.int64)
        if values.ndim != 2:
            raise ValueError(f"values must be [B, n], got {values.shape}")
        if lengths.shape != (values.shape[0],):
            raise ValueError(
                f"lengths must be [{values.shape[0]}], got {lengths.shape}"
            )
        if lengths.size and (lengths.min() < 0
                             or lengths.max() > values.shape[1]):
            raise ValueError(
                f"lengths must lie in [0, {values.shape[1]}]"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lengths", lengths)

    @property
    def mask(self) -> np.ndarray:
        """``[B, n]`` boolean validity mask (True on defined lanes)."""
        n = self.values.shape[1]
        return np.arange(n)[None, :] < self.lengths[:, None]

    def row(self, i: int) -> np.ndarray:
        """Row *i*'s defined prefix (a view)."""
        return self.values[i, : self.lengths[i]]

    def __len__(self) -> int:
        return self.values.shape[0]

    def __iter__(self):
        return (self.row(i) for i in range(len(self)))

    def to_list(self) -> list[np.ndarray]:
        """The defined prefixes as a plain list of 1-D arrays."""
        return list(self)
