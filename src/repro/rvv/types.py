"""Core RVV configuration types: SEW, LMUL, and vtype.

The RISC-V Vector extension parameterizes every vector operation by a
*configuration* held in the ``vtype`` CSR:

* **SEW** — selected element width in bits (8, 16, 32, 64);
* **LMUL** — vector register group length multiplier (this model supports
  the integer values 1, 2, 4, 8 that every RVV implementation must
  provide; fractional LMUL is out of scope for the paper);
* tail/mask policies (agnostic vs undisturbed).

The *vector length* ``vl`` is bounded by ``vlmax = VLEN / SEW * LMUL``,
where VLEN (the register width in bits) is an implementation constant of
the micro-architecture — the property that makes RVV *vector length
agnostic* (VLA) and that the paper's strip-mined kernels rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "SEW",
    "LMUL",
    "VType",
    "MaskPolicy",
    "TailPolicy",
    "dtype_for_sew",
    "sew_for_dtype",
    "vlmax_for",
    "SUPPORTED_VLENS",
]

#: VLEN values exercised by the paper's scalability study (Table 7).
#: Any power-of-two VLEN >= 64 is accepted by :class:`~repro.rvv.machine.RVVMachine`.
SUPPORTED_VLENS = (128, 256, 512, 1024)


class SEW(enum.IntEnum):
    """Selected element width in bits."""

    E8 = 8
    E16 = 16
    E32 = 32
    E64 = 64


class LMUL(enum.IntEnum):
    """Register group length multiplier.

    ``LMUL = k`` groups ``k`` consecutive architectural registers into one
    operand; instructions must then name a register number that is a
    multiple of ``k`` (§3.3 of the paper).
    """

    M1 = 1
    M2 = 2
    M4 = 4
    M8 = 8


class MaskPolicy(enum.Enum):
    """Behaviour of masked-off destination elements (§3.2)."""

    AGNOSTIC = "ma"
    UNDISTURBED = "mu"


class TailPolicy(enum.Enum):
    """Behaviour of destination elements past ``vl``."""

    AGNOSTIC = "ta"
    UNDISTURBED = "tu"


_SEW_TO_UDTYPE = {
    SEW.E8: np.dtype(np.uint8),
    SEW.E16: np.dtype(np.uint16),
    SEW.E32: np.dtype(np.uint32),
    SEW.E64: np.dtype(np.uint64),
}
_SEW_TO_SDTYPE = {
    SEW.E8: np.dtype(np.int8),
    SEW.E16: np.dtype(np.int16),
    SEW.E32: np.dtype(np.int32),
    SEW.E64: np.dtype(np.int64),
}


def dtype_for_sew(sew: SEW, signed: bool = False) -> np.dtype:
    """Return the NumPy dtype backing elements of width ``sew``."""
    table = _SEW_TO_SDTYPE if signed else _SEW_TO_UDTYPE
    try:
        return table[SEW(sew)]
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"unsupported SEW: {sew!r}") from exc


#: dtype -> SEW, filled by :func:`sew_for_dtype`: every kernel call and
#: node charge asks, and ``SEW(bits)`` is a Python-level enum lookup.
_SEW_OF: dict = {}


def sew_for_dtype(dtype: np.dtype) -> SEW:
    """Return the SEW corresponding to a NumPy integer dtype."""
    sew = _SEW_OF.get(dtype)
    if sew is None:
        sew = _SEW_OF[dtype] = _sew_for_dtype(dtype)
    return sew


def _sew_for_dtype(dtype: np.dtype) -> SEW:
    dtype = np.dtype(dtype)
    if dtype.kind not in ("u", "i"):
        raise ConfigurationError(f"non-integer dtype has no SEW: {dtype}")
    bits = dtype.itemsize * 8
    try:
        return SEW(bits)
    except ValueError as exc:
        raise ConfigurationError(f"unsupported element width: {bits}") from exc


def vlmax_for(vlen: int, sew: SEW, lmul: LMUL) -> int:
    """``vlmax = VLEN / SEW * LMUL`` — the most elements one operation
    can process under the given configuration."""
    if vlen <= 0 or vlen & (vlen - 1):
        raise ConfigurationError(f"VLEN must be a positive power of two, got {vlen}")
    vlmax = vlen // int(sew) * int(lmul)
    if vlmax < 1:
        raise ConfigurationError(
            f"vlmax < 1 for VLEN={vlen}, SEW={int(sew)}, LMUL={int(lmul)}"
        )
    return vlmax


@dataclass(frozen=True)
class VType:
    """An immutable snapshot of the vtype CSR contents.

    Instances are produced by the ``vsetvl`` family of intrinsics
    (:mod:`repro.rvv.intrinsics.config`) and threaded through the machine
    state; kernels normally never construct one directly.
    """

    sew: SEW
    lmul: LMUL
    tail: TailPolicy = TailPolicy.AGNOSTIC
    mask: MaskPolicy = MaskPolicy.UNDISTURBED

    def __post_init__(self) -> None:
        # Normalize ints to enums so VType(32, 1) works at call sites.
        object.__setattr__(self, "sew", SEW(self.sew))
        object.__setattr__(self, "lmul", LMUL(self.lmul))

    def vlmax(self, vlen: int) -> int:
        """The vlmax this configuration yields on a VLEN-bit machine."""
        return vlmax_for(vlen, self.sew, self.lmul)

    @property
    def dtype(self) -> np.dtype:
        """Unsigned NumPy dtype for this SEW."""
        return dtype_for_sew(self.sew)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"e{int(self.sew)}m{int(self.lmul)},"
            f"{self.tail.value},{self.mask.value}"
        )
