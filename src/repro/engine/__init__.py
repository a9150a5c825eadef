"""Lazy plan-capture + strip-fusion execution engine.

The paper's primitives are each a standalone strip-mined loop, so a
pipeline such as ``split`` (Listing 7) pays a full
vsetvl + load + store round trip per primitive per strip even when
consecutive elementwise operations consume each other's output. This
package adds the missing layer between user pipelines and the
primitive kernels:

* :mod:`repro.engine.ir` — a small operation-graph IR over SVM arrays;
* :mod:`repro.engine.capture` — a deferred, SVM-compatible recorder
  (``with svm.lazy() as lz:`` or an explicit :class:`PlanBuilder`);
* :mod:`repro.engine.fuse` — optimization passes: dead-temp
  elimination plus fusion of compatible elementwise chains (and
  elementwise→scan producers) into single strip loops that load once,
  apply every lane operation in registers, and store once;
* :mod:`repro.engine.executor` — runs a plan through its one unit
  loop: fast units run generated group functions and NumPy node
  bodies on memory views, strict units run on the
  :class:`~repro.rvv.machine.RVVMachine` intrinsics (the reference
  semantics); an all-fast, unprofiled call charges the plan's static
  counter profile once, any other run unit by unit — preserving the
  repo's strict-vs-fast bit-and-counter equality invariant;
* :mod:`repro.engine.cache` — an in-memory LRU plan cache keyed on
  (op signature, n, VLEN, SEW, LMUL, codegen preset) so repeated
  pipelines skip re-planning;
* :mod:`repro.engine.codegen` — at cache-insert time it derives each
  fused group's lane chain and closed-form charge profile and emits
  one flat Python function per group, which the unit loop runs,
  bit- and counter-identical to the strict loop;
* :mod:`repro.engine.nodes` — the two executions of every other node:
  its strict SVM replay, or its NumPy body;
* :mod:`repro.engine.native` — the compiled backend tier: lowers a
  whole fused plan to one C translation unit, builds it with the host
  toolchain (the ``.so`` persists under ``<cache_dir>/native/``
  when ``REPRO_CACHE_DIR`` / ``SVM(cache_dir=...)`` is set, so a warm
  process runs no ``cc``), and replays it as a single ``ctypes`` call
  charged the plan's static counter profile (``backend="native"``),
  falling back to codegen whenever the plan or the environment is
  ineligible.

See ``docs/engine.md`` for the IR, fusion legality rules, the cache
key, and a worked before/after counter example, ``docs/native.md`` for
the compiled tier's contract, and ``docs/architecture.md`` for
how the execution tiers dispatch.
"""

from .cache import CacheStats, PlanCache
from .capture import PlanBuilder
from .codegen import CompiledPlan, compile_fused
from .executor import BACKENDS, DEFAULT_BACKEND, Engine, execute, resolve_backend
from .fuse import FusedGroup, FusedPlan, fuse
from .ir import OpNode, Plan, ScalarFuture
from .native import NativePlan, lower_plan, native_available

__all__ = [
    "Engine",
    "PlanBuilder",
    "Plan",
    "OpNode",
    "ScalarFuture",
    "fuse",
    "FusedGroup",
    "FusedPlan",
    "PlanCache",
    "CacheStats",
    "execute",
    "CompiledPlan",
    "compile_fused",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "resolve_backend",
    "NativePlan",
    "lower_plan",
    "native_available",
]
