"""The RVV substrate: a functional RISC-V Vector extension simulator.

This subpackage stands in for the hardware/toolchain stack the paper
evaluates on (RVV semantics + LLVM codegen + the Spike simulator's
dynamic instruction counting). See DESIGN.md §2 for the substitution
argument.

Public surface:

* :class:`RVVMachine` — a VLEN-parameterized machine with memory, a
  heap, CSR state, and dynamic-instruction counters.
* :mod:`repro.rvv.intrinsics` — the intrinsic API mirrored from the
  RVV C intrinsics the paper programs against.
* :class:`~repro.rvv.codegen.CodegenModel` — the ``"ideal"`` and
  ``"paper"`` instruction-cost presets.
"""

from .allocation import RegisterProfile, SpillPlan, ValueUse, plan_allocation
from .asm import AsmCPU, AsmProgram, parse as parse_asm
from .codegen import IDEAL, PAPER, CodegenModel, get_preset
from .counters import Cat, Counters, CounterSnapshot
from .machine import RVVMachine, strips
from .memory import Allocator, Memory, Pointer
from .regfile import MASK_REG, NUM_REGS, RegisterFile
from .paper_api import PaperIntrinsics
from .types import LMUL, SEW, MaskPolicy, TailPolicy, VType, dtype_for_sew, sew_for_dtype, vlmax_for
from .value import VMask, VReg

__all__ = [
    "RVVMachine",
    "AsmCPU",
    "AsmProgram",
    "parse_asm",
    "PaperIntrinsics",
    "RegisterProfile",
    "SpillPlan",
    "ValueUse",
    "plan_allocation",
    "strips",
    "Cat",
    "Counters",
    "CounterSnapshot",
    "CodegenModel",
    "IDEAL",
    "PAPER",
    "get_preset",
    "Memory",
    "Pointer",
    "Allocator",
    "RegisterFile",
    "NUM_REGS",
    "MASK_REG",
    "SEW",
    "LMUL",
    "VType",
    "MaskPolicy",
    "TailPolicy",
    "dtype_for_sew",
    "sew_for_dtype",
    "vlmax_for",
    "VReg",
    "VMask",
]
