"""Phase group ``replay``: one lazy engine used three ways.

* ``replay.small`` / ``replay.large``: warm ``svm.lazy()`` calls at
  the small and large n on each backend, cycling the pipeline set, each
  call on a fresh input array as a user's would be. Small calls are
  dispatch-bound (capture, plan-cache probe, array handling); large
  calls are bound by the execute kernels.
* ``replay.first``: first calls on never-seen n values, where compile
  (and for ``native`` the C emit + ``cc``) dominates.
* ``replay.batch``: ``svm.batch`` over rows of one length on the
  codegen context — a many-row bucket (the ``2d`` or ``ragged`` path)
  plus a single-row bucket (the ``loop`` path) per pipeline.

The untraced pass times ``svm.lazy()`` / ``svm.batch`` as a user calls
them. The traced pass splits the same calls at the engine's public
entry points: ``PlanBuilder`` capture, ``Engine.fused_for`` (warm:
plan signature + LRU probe), ``Engine.compile_plan`` and
``lower_plan`` + ``NativePlan.ensure`` (cold), and ``execute``.
"""

from __future__ import annotations

import time

import numpy as np

from .harness import SETTINGS, Phase, Tally, Tracer, median
from .reference import PIPELINES, VALUE_RANGE, batch_pipe, pipeline_ref

CFG = SETTINGS["replay"]
NAMES = tuple(PIPELINES)
BACKENDS = ("codegen", "native")
SMALL_POOL, LARGE_POOL = 64, 8


def _rows(rng, count: int, n: int) -> list:
    rows = [rng.integers(0, VALUE_RANGE, n, dtype=np.uint32)
            for _ in range(count)]
    refs = [{name: pipeline_ref(name, x) for name in NAMES} for x in rows]
    return list(zip(rows, refs))


def _check(tally: Tally, what: str, out: np.ndarray, kept, ref: np.ndarray) -> None:
    if kept is None:
        good = np.array_equal(out, ref)
    else:
        good = kept == ref.size and np.array_equal(out[:kept], ref)
    tally.check(good, f"{what}: output differs from NumPy")


class _AutoList(dict):
    """``name -> [samples]``, created on first use."""

    def __missing__(self, key):
        self[key] = value = []
        return value


def call(svm, name: str, x: np.ndarray):
    """One user call: fresh input array, lazy block, read back."""
    a = svm.array(x)
    with svm.lazy() as lz:
        out, kept = PIPELINES[name](lz, a)
    res = out.to_numpy()
    k = kept.value if kept is not None else None
    if out is not a:
        svm.free(out)
    svm.free(a)
    return res, k


def call_traced(tr: Tracer, svm, name: str, x: np.ndarray, s: dict, cold: bool):
    """The same call split at the engine's public entry points. Each
    part's µs lands in ``s`` under ``<part>.<backend>`` and
    ``<part>.<backend>.<pipeline>``."""
    from repro.engine import PlanBuilder, execute, lower_plan

    engine = svm.engine
    b = engine.backend

    def note(part: str, us: float) -> None:
        s[f"{part}.{b}"].append(us)
        s[f"{part}.{b}.{name}"].append(us)

    t = tr.begin("svm/array")
    a = svm.array(x)
    note("array", tr.end(t))
    t = tr.begin(f"engine.capture/{name}")
    lz = PlanBuilder(svm)
    out, kept = PIPELINES[name](lz, a)
    plan = lz.build()
    note("capture", tr.end(t))
    if not cold:
        t = tr.begin("engine.cache/fused_for")
        fused = engine.fused_for(plan)
        note("dispatch", tr.end(t))
    else:
        t = tr.begin("engine.cache/probe")
        key = engine.plan_key(plan)
        fused = engine.cache.get(key)
        tr.end(t)
        if fused is None:
            t = tr.begin("engine.compile/compile_plan")
            fused = engine.compile_plan(plan)
            s["compile"].append(tr.end(t) / 1e3)
            engine.cache.put(key, fused)
            if b == "native":
                t = tr.begin("engine.native/lower")
                lowered = lower_plan(plan, fused)
                built = lowered is not None and lowered.ensure()
                fused.native = lowered if lowered is not None else "unavailable"
                ms = tr.end(t) / 1e3
                if built:
                    s["lower"].append(ms)
                s["lowered" if built else "fallback"].append(1)
    t = tr.begin(f"engine.executor/{b}")
    execute(svm, plan, fused, backend=b)
    note("execute", tr.end(t))
    t = tr.begin("svm/to_numpy")
    res = out.to_numpy()
    k = kept.value if kept is not None else None
    if out is not a:
        svm.free(out)
    svm.free(a)
    note("readback", tr.end(t))
    return res, k


class Replay:
    """The engine contexts and seeded inputs of the replay phases."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.small = _rows(rng, SMALL_POOL, CFG["small_n"])
        self.large = _rows(rng, LARGE_POOL, CFG["large_n"])
        self.batch_rows = _rows(rng, CFG["batch_rows"], CFG["batch_n"])
        taken = {CFG["small_n"], CFG["large_n"], CFG["batch_n"]}
        shapes: list[int] = []
        # two disjoint shape sets: the untraced and the traced pass
        # must each meet genuinely new shapes
        while len(shapes) < 2 * CFG["first_call_shapes"]:
            n = int(rng.integers(*CFG["first_call_n_range"]))
            if n not in taken:
                taken.add(n)
                shapes.append(n)
        first = [_rows(rng, 1, n)[0] for n in shapes]
        half = CFG["first_call_shapes"]
        self.first_inputs = {False: first[:half], True: first[half:]}
        self.svms: dict = {}
        self.native = False

    def setup(self) -> None:
        """Build one context per backend from an explicit config and
        warm every plan the warm phases use (compile and ``cc``)."""
        from repro import SVM
        from repro.config import ExecConfig
        from repro.engine import native_available

        self.native = native_available()
        backends = BACKENDS if self.native else ("codegen",)
        self.svms = {
            b: SVM(config=ExecConfig(vlen=CFG["vlen"], backend=b),
                   codegen=CFG["codegen"], mode="fast")
            for b in backends
        }
        for svm in self.svms.values():
            for pool in (self.small, self.large):
                for i, name in enumerate(NAMES):
                    # twice: native's first counters-mode run records
                    # the charge profile through codegen
                    for _ in range(2):
                        call(svm, name, pool[i][0])
        batch_svm = self.svms["codegen"]
        rows = [x for x, _ in self.batch_rows]
        for name in NAMES:
            batch_svm.batch(batch_pipe(name), rows)
            batch_svm.batch(batch_pipe(name), rows[:1])

    def close(self) -> None:
        self.svms = {}

    def phases(self, tr: Tracer) -> list:
        return [
            WarmCalls(self, "small", self.small, CFG["small_calls"]),
            WarmCalls(self, "large", self.large, CFG["large_calls"]),
            FirstCalls(self, self.first_inputs[tr.enabled]),
            Batch(self),
        ]

    def check(self, tally: Tally) -> None:
        """Correctness anchor: native and codegen charge identical
        per-category counters (and compute identical results) for
        every pipeline at both warm sizes."""
        if "native" not in self.svms:
            return
        for pool in (self.small, self.large):
            for i, name in enumerate(NAMES):
                x = pool[i][0]
                seen = []
                for b in BACKENDS:
                    svm = self.svms[b]
                    before = svm.machine.counters.snapshot()
                    out, k = call(svm, name, x)
                    delta = svm.machine.counters.snapshot() - before
                    seen.append((out if k is None else out[:k], k,
                                 {c: v for c, v in delta.by_category.items() if v}))
                (o1, k1, c1), (o2, k2, c2) = seen
                tally.check(c1 == c2 and k1 == k2 and np.array_equal(o1, o2),
                            f"counters/{name}/{x.size}: native differs from codegen")


def _cache_counts(svms: dict) -> tuple[int, int]:
    hits = look = 0
    for svm in svms.values():
        st = svm.engine.cache.stats
        hits += st.hits
        look += st.hits + st.misses
    return hits, look


class WarmCalls(Phase):
    """``calls`` warm calls per backend per step, backends in
    alternating order so drift hits both alike."""

    def __init__(self, group: Replay, size: str, pool: list, calls: int) -> None:
        super().__init__(f"replay.{size}")
        self.group = group
        self.size = size
        self.pool = pool
        self.calls = calls
        self.secs = {b: [] for b in group.svms}
        self.samples = _AutoList()
        self.hits = self.lookups = 0
        self._i = 0

    def step(self, tr: Tracer, tally: Tally) -> None:
        svms = self.group.svms
        order = tuple(svms) if self.steps % 2 == 0 else tuple(svms)[::-1]
        h0, l0 = _cache_counts(svms)
        for b in order:
            svm = svms[b]
            got = []
            t0 = time.perf_counter()
            for j in range(self.calls):
                name = NAMES[(self._i + j) % len(NAMES)]
                x, refs = self.pool[(self._i + j) % len(self.pool)]
                if tr.enabled:
                    res = call_traced(tr, svm, name, x, self.samples, False)
                else:
                    res = call(svm, name, x)
                got.append((name, res, refs[name]))
            self.secs[b].append(time.perf_counter() - t0)
            for name, (out, k), ref in got:
                _check(tally, f"{self.name}/{b}/{name}", out, k, ref)
        h1, l1 = _cache_counts(svms)
        self.hits += h1 - h0
        self.lookups += l1 - l0
        self._i += self.calls


class FirstCalls(Phase):
    """One (new shape, pipeline) per step, on every backend."""

    def __init__(self, group: Replay, inputs: list) -> None:
        tasks = [(x, refs, name) for x, refs in inputs for name in NAMES]
        super().__init__("replay.first", total=len(tasks))
        self.group = group
        self.tasks = tasks
        self.ms = {b: [] for b in group.svms}
        self.samples = _AutoList()
        self.hits = self.lookups = 0

    def step(self, tr: Tracer, tally: Tally) -> None:
        x, refs, name = self.tasks[self.steps]
        svms = self.group.svms
        order = tuple(svms) if self.steps % 2 == 0 else tuple(svms)[::-1]
        h0, l0 = _cache_counts(svms)
        for b in order:
            t0 = time.perf_counter()
            if tr.enabled:
                out, k = call_traced(tr, svms[b], name, x, self.samples, True)
            else:
                out, k = call(svms[b], name, x)
            self.ms[b].append((time.perf_counter() - t0) * 1e3)
            _check(tally, f"first/{b}/{name}/{x.size}", out, k, refs[name])
        h1, l1 = _cache_counts(svms)
        self.hits += h1 - h0
        self.lookups += l1 - l0


class Batch(Phase):
    """Per pipeline: one many-row bucket and one single-row bucket."""

    def __init__(self, group: Replay) -> None:
        super().__init__("replay.batch")
        self.group = group
        self.rows = [x for x, _ in group.batch_rows]
        self.secs: list[float] = []
        self.us = {"2d": 0.0, "ragged": 0.0, "loop": 0.0}
        self.row_count = {"2d": 0, "ragged": 0, "loop": 0}

    def step(self, tr: Tracer, tally: Tally) -> None:
        svm = self.group.svms["codegen"]
        got = []
        t0 = time.perf_counter()
        for name in NAMES:
            pipe = batch_pipe(name)
            for part in (self.rows, self.rows[:1]):
                t = tr.begin("batch/bucket")
                res = svm.batch(pipe, part)
                us = tr.end(t)
                path = res.buckets[0].path
                if tr.enabled:
                    tr.spans[t][0] = f"batch/{path}"
                    self.us[path] += us
                    self.row_count[path] += len(part)
                got.append((name, res))
        self.secs.append(time.perf_counter() - t0)
        for name, res in got:
            for r, (out, k) in enumerate(zip(res.outputs, res.lengths)):
                _check(tally, f"batch/{name}/{r}", out, k,
                       self.group.batch_rows[r][1][name])


def end_to_end(phases: dict, native: bool) -> dict:
    small, large = phases["replay.small"], phases["replay.large"]
    first, batch = phases["replay.first"], phases["replay.batch"]
    # rates are the phase's whole work over its whole time
    rows = len(NAMES) * (CFG["batch_rows"] + 1)
    out = {"batch_rows_per_s": rows * len(batch.secs) / sum(batch.secs)}
    for b in BACKENDS:
        ok = b in small.secs
        # no toolchain: the .native metrics are unavailable, never the
        # codegen fallback timed under the native name
        out[f"small_calls_per_s.{b}"] = (small.calls * len(small.secs[b])
                                         / sum(small.secs[b]) if ok else None)
        out[f"large_melem_per_s.{b}"] = (large.calls * len(large.secs[b])
                                         * CFG["large_n"] / sum(large.secs[b])
                                         / 1e6 if ok else None)
        # the first calls of the whole pipeline set on one new shape,
        # summed; mean over the shapes
        out[f"first_call_ms.{b}"] = (sum(first.ms[b]) * len(NAMES)
                                     / len(first.ms[b]) if ok else None)
    return out


def small_call_split(phases: dict) -> str:
    """The traced small-call breakdown per backend: median µs of each
    part of a warm n=256 call and execute's share of their sum."""
    s = phases["replay.small"].samples
    parts = ("array", "capture", "dispatch", "execute", "readback")
    lines = [f"{'small call (n=%d)' % CFG['small_n']:<20}"
             + "".join(f"{p:>10}" for p in parts) + f"{'execute %':>11}"]
    for b in BACKENDS:
        if not s[f"execute.{b}"]:
            continue
        for label, suffix in ((b, ""), ("  chain_scan", ".chain_scan")):
            med = [median(s[f"{p}.{b}{suffix}"]) for p in parts]
            lines.append(f"{label:<20}" + "".join(f"{m:>10.1f}" for m in med)
                         + f"{med[3] / sum(med):>10.0%}")
    return "\n".join(lines)


def per_layer(phases: dict, native: bool) -> dict:
    small, large = phases["replay.small"], phases["replay.large"]
    first, batch = phases["replay.first"], phases["replay.batch"]
    s, f = small.samples, first.samples
    out = {
        "svm.array_us": median(s["array.codegen"] + s["array.native"]),
        "engine.dispatch_us": median(s["dispatch.codegen"] + s["dispatch.native"]),
        "engine.plan_cache_hit_ratio.warm":
            (small.hits + large.hits) / max(1, small.lookups + large.lookups),
        "engine.plan_cache_hit_ratio.first_call":
            first.hits / max(1, first.lookups),
        "engine.compile_ms": median(f["compile"]),
        "native.lower_ms": median(f["lower"]) if native else None,
        "native.lowered_plans": len(f["lowered"]),
        "native.fallback_plans": len(f["fallback"]),
    }
    for name in NAMES:
        out[f"engine.capture_us.{name}"] = median(
            s[f"capture.codegen.{name}"] + s[f"capture.native.{name}"])
    for b in BACKENDS:
        ok = b == "codegen" or native
        out[f"engine.execute_us.{b}.small"] = \
            median(s[f"execute.{b}"]) if ok else None
        out[f"engine.execute_ms.{b}.large"] = \
            median(large.samples[f"execute.{b}"]) / 1e3 if ok else None
    for path, rows in batch.row_count.items():
        out[f"batch.rows.{path}"] = rows
        out[f"batch.bucket_us_per_row.{path}"] = \
            batch.us[path] / rows if rows else 0.0
    return out
