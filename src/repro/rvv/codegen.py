"""Codegen cost models: how many dynamic instructions an intrinsic costs.

The paper's metric (Spike dynamic instruction count) observes *compiled*
code, so the cost of a kernel includes instructions the compiler adds
around the intrinsics. This module defines the two presets used
throughout the library:

* :data:`IDEAL` — one instruction per intrinsic, minimal loop
  bookkeeping. The honest lower bound; the default for library users.
* :data:`PAPER` — per-intrinsic expansions (undisturbed destinations
  and masked operations each cost one extra register move) plus
  per-kernel fitted overheads from :mod:`repro.rvv.calibration`.
  Used by the benchmark harness to regenerate the paper's tables.

Both presets leave *semantics* untouched; they only scale counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import calibration as cal

__all__ = ["CodegenModel", "IDEAL", "PAPER", "get_preset", "PRESETS"]


@dataclass(frozen=True, eq=False)
class CodegenModel:
    """A named cost model consulted by the machine and the fast path.

    Compared and hashed by identity (the presets are singletons), so a
    model can key the memoized charge functions of
    :mod:`repro.svm.fastpath`.

    Attributes
    ----------
    name:
        Preset identifier (``"ideal"`` or ``"paper"``).
    expand_dest_undisturbed:
        Extra instructions for an operation whose destination operand
        carries pre-existing values the result must merge over (e.g.
        ``vslideup`` into a non-scratch register, ``vmv.s.x``): the
        compiler materializes a register copy first.
    expand_masked:
        Extra instructions for a masked operation with an explicit
        ``maskedoff`` operand (mask-undisturbed policy, §3.2).
    """

    name: str
    expand_dest_undisturbed: int
    expand_masked: int
    strip_overheads: dict[str, int]
    inner_overheads: dict[str, int]
    prologues: dict[str, int]
    default_strip: int
    default_inner: int
    default_prologue: int
    #: If True, per-strip/inner overheads fall back to structural
    #: formulas (IDEAL) instead of the fitted defaults.
    structural_fallback: bool = False

    # -- per-intrinsic cost -------------------------------------------------
    def op_cost(self, dest_undisturbed: bool = False, masked: bool = False) -> int:
        """Dynamic instruction cost of one intrinsic call."""
        cost = 1
        if dest_undisturbed:
            cost += self.expand_dest_undisturbed
        if masked:
            cost += self.expand_masked
        return cost

    # -- per-kernel loop overheads -------------------------------------------
    def strip_overhead(self, kernel: str, n_arrays: int = 1) -> int:
        """Scalar bookkeeping per strip-mining iteration of ``kernel``."""
        if self.structural_fallback:
            return cal.ideal_strip_overhead(n_arrays)
        return self.strip_overheads.get(kernel, self.default_strip)

    def inner_overhead(self, kernel: str) -> int:
        """Scalar bookkeeping per in-register-scan inner iteration."""
        if self.structural_fallback:
            return self.default_inner
        return self.inner_overheads.get(kernel, self.default_inner)

    def prologue(self, kernel: str) -> int:
        """One-time per-call overhead (function prologue, constant setup)."""
        if self.structural_fallback:
            return self.default_prologue
        return self.prologues.get(kernel, self.default_prologue)


#: Honest lower-bound preset: every intrinsic is one instruction.
IDEAL = CodegenModel(
    name="ideal",
    expand_dest_undisturbed=0,
    expand_masked=0,
    strip_overheads={},
    inner_overheads={},
    prologues={},
    default_strip=0,  # unused: structural_fallback routes to formulas
    default_inner=cal.IDEAL_INNER_OVERHEAD,
    default_prologue=cal.IDEAL_PROLOGUE,
    structural_fallback=True,
)

#: Preset calibrated to the paper's Spike/LLVM measurements.
PAPER = CodegenModel(
    name="paper",
    expand_dest_undisturbed=1,
    expand_masked=1,
    strip_overheads=cal.PAPER_STRIP_OVERHEAD,
    inner_overheads=cal.PAPER_INNER_OVERHEAD,
    prologues=cal.PAPER_PROLOGUE,
    default_strip=cal.DEFAULT_STRIP_OVERHEAD,
    default_inner=cal.DEFAULT_INNER_OVERHEAD,
    default_prologue=cal.DEFAULT_PROLOGUE,
)

PRESETS: dict[str, CodegenModel] = {"ideal": IDEAL, "paper": PAPER}


def get_preset(name: str | CodegenModel) -> CodegenModel:
    """Resolve a preset by name (or pass a model through)."""
    if isinstance(name, CodegenModel):
        return name
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown codegen preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
