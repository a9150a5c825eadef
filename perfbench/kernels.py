"""Phase group ``kernels``: the paper's measured kernels, run eagerly.

``p_add``, ``plus_scan``, ``seg_plus_scan`` and ``split_radix_sort``
at every VLEN of the settings with ``codegen="paper"``: small n in
``mode="strict"`` (intrinsic-level simulation, the ``rvv`` layer) and
n near 1e6 in ``mode="fast"`` (the closed-form ``svm`` fast path).
Nothing here touches the lazy engine, batching or the daemon.

One step is a *round*: every kernel once at every VLEN. The reported
rate is the simulated instructions of every round over their host
seconds.
"""

from __future__ import annotations

import time

import numpy as np

from .harness import SETTINGS, Phase, Tally, Tracer
from .reference import kernel_ref

CFG = SETTINGS["kernels"]
KERNELS = tuple(CFG["kernels"])
MODES = ("strict", "fast")
POOL = 2  # distinct inputs per (kernel, mode); rounds alternate them

#: Eager SVM methods wrapped with spans in the traced pass, so the
#: primitives a sort issues show up under ``rvv`` / ``svm``.
_TRACED_METHODS = (
    "array", "empty", "zeros", "free", "p_add", "p_sub", "p_mul", "p_and",
    "p_or", "p_xor", "p_srl", "p_sll", "p_rsub", "p_lt", "p_le", "p_gt",
    "p_ge", "p_eq", "p_ne", "p_select", "get_flags", "scan", "plus_scan",
    "seg_scan", "seg_plus_scan", "permute", "back_permute", "pack",
    "enumerate", "index_array", "reduce", "shift1up", "copy", "split",
)


def expected_key(kernel: str, vlen: int, mode: str, n: int) -> str:
    return f"{kernel}/{vlen}/{mode}/{n}"


def _trace_methods(svm, tr: Tracer, layer: str) -> None:
    """Shadow the context's primitive methods with span-recording
    wrappers (instance attributes: the class stays untouched)."""
    for name in _TRACED_METHODS:
        fn = getattr(svm, name, None)
        if fn is None:
            continue

        def wrapped(*args, _fn=fn, _span=f"{layer}/{name}", **kw):
            idx = tr.begin(_span)
            try:
                return _fn(*args, **kw)
            finally:
                tr.end(idx)

        setattr(svm, name, wrapped)


class Kernels:
    """The contexts and seeded inputs of the kernel phases."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.inputs: dict[tuple[str, str], list] = {}
        for mode in MODES:
            for kernel in KERNELS:
                n = CFG[f"{mode}_n"][kernel]
                pool = []
                for _ in range(POOL):
                    x = rng.integers(0, 2**32, n, dtype=np.uint32)
                    heads = None
                    if kernel == "seg_plus_scan":
                        heads = (rng.random(n) < CFG["seg_head_rate"]).astype(np.uint32)
                    pool.append((x, heads, kernel_ref(kernel, x, heads)))
                self.inputs[(kernel, mode)] = pool
        self.svms: dict = {}

    def setup(self) -> None:
        """Build every context from an explicit config."""
        from repro import SVM
        from repro.config import ExecConfig

        self.svms = {
            (vlen, mode): SVM(config=ExecConfig(vlen=vlen),
                              codegen=CFG["codegen"], mode=mode)
            for vlen in CFG["vlens"] for mode in MODES
        }

    def close(self) -> None:
        self.svms = {}

    def phases(self, tr: Tracer) -> list:
        if tr.enabled:
            for (_vlen, mode), svm in self.svms.items():
                _trace_methods(svm, tr, "rvv" if mode == "strict" else "svm")
        return [Round(self, mode) for mode in MODES]


class Round(Phase):
    """Every kernel once at every VLEN, in one mode."""

    def __init__(self, group: Kernels, mode: str) -> None:
        super().__init__(f"kernels.{mode}")
        self.group = group
        self.mode = mode
        self.kernel_s = {k: 0.0 for k in KERNELS}
        self.instr = {k: 0 for k in KERNELS}
        self.per_call = {k: 0 for k in KERNELS}

    def step(self, tr: Tracer, tally: Tally) -> None:
        from repro.algorithms.radix_sort import split_radix_sort

        mode = self.mode
        layer = "rvv" if mode == "strict" else "svm"
        expected = CFG["expected_instructions"]
        for vlen in CFG["vlens"]:
            svm = self.group.svms[(vlen, mode)]
            for kernel in KERNELS:
                n = CFG[f"{mode}_n"][kernel]
                x, heads, ref = self.group.inputs[(kernel, mode)][self.steps % POOL]
                a = svm.array(x)
                f = svm.array(heads) if heads is not None else None
                before = svm.instructions
                t0 = time.perf_counter()
                if kernel == "split_radix_sort":
                    idx = tr.begin("algorithms/split_radix_sort")
                    split_radix_sort(svm, a)
                    tr.end(idx)
                elif kernel == "seg_plus_scan":
                    svm.seg_plus_scan(a, f)
                elif kernel == "plus_scan":
                    svm.plus_scan(a)
                else:
                    svm.p_add(a, 7)
                dt = time.perf_counter() - t0
                count = svm.instructions - before
                idx = tr.begin(f"{layer}/to_numpy")
                out = a.to_numpy()
                tr.end(idx)
                svm.free(a)
                if f is not None:
                    svm.free(f)
                key = expected_key(kernel, vlen, mode, n)
                tally.check(count == expected.get(key) and np.array_equal(out, ref),
                            f"{key}: {count} instructions (expected "
                            f"{expected.get(key)}) or output differs from NumPy")
                self.kernel_s[kernel] += dt
                self.instr[kernel] += count
                if self.steps == 0:
                    self.per_call[kernel] += count


def sim_rate(phase: Round) -> float:
    """Simulated Minstr per host second over every round of the run."""
    return sum(phase.instr.values()) / sum(phase.kernel_s.values()) / 1e6


def end_to_end(phases: dict) -> dict:
    return {"sim_rate_strict": sim_rate(phases["kernels.strict"]),
            "sim_rate_fast": sim_rate(phases["kernels.fast"])}


def per_layer(phases: dict) -> dict:
    out = {}
    for mode, prefix in (("strict", "rvv.strict_ns_per_instr"),
                         ("fast", "svm.fast_ns_per_instr")):
        p = phases[f"kernels.{mode}"]
        for k in KERNELS:
            out[f"{prefix}.{k}"] = p.kernel_s[k] * 1e9 / p.instr[k]
            out[f"svm.instructions.{k}.{mode}"] = p.per_call[k]
    return out
