"""Shared machinery of the benchmark: run isolation, the span tracer,
summary statistics and the host fingerprint.

Nothing here imports ``repro`` at module level: :func:`isolate` must
rewrite the environment *before* the program under test is imported.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETTINGS = json.loads((Path(__file__).resolve().parent / "settings.json").read_text())

#: Thread-pool knobs pinned to one thread: the benchmark process may
#: use at most two threads on a two-core host, and the daemon has its
#: own event loop and flush worker.
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def isolate() -> Path:
    """Make this run independent of the host's state and of other runs.

    Strips every ``REPRO_*`` variable (a stray ``REPRO_BACKEND`` or
    ``REPRO_CACHE_DIR`` would change what is measured), points
    ``TMPDIR`` and ``XDG_CACHE_HOME`` at a fresh per-run directory
    inside the checkout (native lowering ``mkdtemp``s its artifact
    directory there, so cold phases are really cold), and returns that
    directory. The caller removes it at exit with :func:`cleanup`.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in _ONE_THREAD:
        os.environ[key] = "1"
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=OUT_DIR))
    tmp = run_dir / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    os.environ["XDG_CACHE_HOME"] = str(run_dir / "xdg-cache")
    tempfile.tempdir = None  # re-read TMPDIR on the next mkdtemp
    return run_dir


def cleanup(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)


def child_env() -> dict:
    """Environment for subprocesses (the daemon): the isolated one,
    with the checkout's sources importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_tmpdir(run_dir: Path, label: str) -> None:
    """Point ``TMPDIR`` at a new empty directory, so the next native
    artifact directory (and every ``cc`` temp file) starts cold."""
    tmp = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=run_dir))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None


# ---------------------------------------------------------------------------
# host fingerprint
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    """CPU model, core count, Python, NumPy, the C compiler's first
    version line, and whether the native tier is available."""
    import numpy as np

    from repro.engine.native import find_compiler, native_available

    cc = find_compiler()
    cc_version = None
    if cc is not None:
        try:
            out = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout
            cc_version = out.splitlines()[0] if out else None
        except (OSError, subprocess.SubprocessError):
            cc_version = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": cc_version,
        "native_available": native_available(),
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    vals = sorted(values)
    if not vals:
        return float("nan")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    vals = sorted(values)
    if not vals:
        return float("nan")
    k = max(0, min(len(vals) - 1, int(-(-q * len(vals) // 100)) - 1))
    return vals[k]


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``[name, start_ns, end_ns, parent]``; its layer is the
    part of the name before the first ``/``. ``begin``/``end`` are
    plain method calls (no context-manager overhead) because the
    dispatch-bound phases record several spans per 50 µs call. A
    disabled tracer makes both no-ops.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = time.perf_counter_ns

    def begin(self, name: str) -> int:
        if not self.enabled:
            return -1
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, self._clock(), 0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        """Close span ``idx``; returns its duration in µs (0 when off)."""
        if idx < 0:
            return 0.0
        span = self.spans[idx]
        span[2] = self._clock()
        self._stack.pop()
        return (span[2] - span[1]) / 1e3

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a finished span measured elsewhere (a request in
        flight on the daemon) as a child of the open span."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, start_ns, end_ns, parent])

    def extend(self, other: "Tracer") -> None:
        """Append another tracer's spans (for the one output file)."""
        base = len(self.spans)
        self.spans.extend([n, s, e, p + base if p >= 0 else -1]
                          for n, s, e, p in other.spans)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer: each span's duration minus
        the union of its children's intervals. Children of one parent
        may overlap; overlapping siblings each count in full toward
        their own layer, so callers merge such intervals first (see
        ``serving._request_spans``)."""
        children: dict[int, list[tuple[int, int]]] = {}
        for name, s, e, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((s, e))
        layers: dict[str, float] = {}
        for idx, (name, s, e, _parent) in enumerate(self.spans):
            covered = 0
            cur_s = cur_e = None
            for cs, ce in sorted(children.get(idx, ())):
                cs, ce = max(cs, s), min(ce, e)
                if ce <= cs:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                else:
                    cur_e = max(cur_e, ce)
            if cur_e is not None:
                covered += cur_e - cur_s
            layer = name.split("/", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (e - s - covered) / 1e9
        return layers

    def write(self, path: Path, workload: str, seed: int, extra: dict) -> None:
        """All spans as one JSON file, one row per span with the
        columns ``name, start_ns, end_ns, parent, workload, seed``."""
        doc = dict(extra)
        doc["columns"] = ["name", "start_ns", "end_ns", "parent",
                          "workload", "seed"]
        doc["spans"] = [[n, s, e, p, workload, seed]
                        for n, s, e, p in self.spans]
        path.write_text(json.dumps(doc, separators=(",", ":")))


def print_self_time_table(layers: dict[str, float], total_s: float,
                          out=sys.stdout) -> None:
    print(f"{'layer':<18} {'self s':>9} {'share':>7}", file=out)
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        share = secs / total_s if total_s else 0.0
        print(f"{layer:<18} {secs:>9.3f} {share:>6.1%}", file=out)
    print(f"{'total (traced)':<18} {total_s:>9.3f}", file=out)


class Phase:
    """One measured activity, run as many short steps.

    The scheduler (:func:`run_phases`) interleaves the steps of every
    phase across the whole run, so each phase's median samples the
    same stretch of host time as every other's: on a shared host whose
    speed drifts by ±15% within seconds, back-to-back phase blocks
    would each see a different drift. Before each step it measures the
    host's current slowness (:func:`host_slowness`), so the probes too
    sample the whole run evenly. ``share`` is the phase's target
    fraction of the run; ``total`` caps a fixed-size phase, whose
    steps are then spread evenly over the run.
    """

    min_steps = 3

    def __init__(self, name: str, total: int | None = None) -> None:
        self.name = name
        self.share = 0.0
        self.total = total
        self.steps = 0
        self.busy_s = 0.0
        #: host slowness measured just before each step
        self.slows: list[float] = []

    def step(self, tr: "Tracer", tally: "Tally") -> None:
        raise NotImplementedError


_PROBE_DOC = list(range(300))


def _probe_task() -> None:
    acc = 0
    table: dict = {}
    for i in range(1500):
        acc += (i * 7) ^ (acc >> 3)
        table[i & 255] = acc
    json.loads(json.dumps(_PROBE_DOC))


def host_slowness() -> float:
    """How slow the shared host runs right now relative to the
    reference: the median of three runs of a fixed task owned by the
    benchmark (an interpreter loop plus a JSON round trip) over
    ``reference_probe_us``. Above 1 means slower."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        _probe_task()
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[1] / 1e3 / SETTINGS["reference_probe_us"]


def run_phases(phases: list, tr: "Tracer", tally: "Tally", seconds: float,
               counts: dict | None = None) -> float:
    """Interleave ``phases`` for ``seconds`` (deficit scheduling: the
    next step goes to the phase furthest below its share), or for
    exactly ``counts[name]`` steps each when replaying a pass. Returns
    the wall time of the whole schedule."""
    clock = time.perf_counter
    t0 = clock()
    # the scheduler and the host probes are the benchmark's overhead,
    # not the workload's: their layer stays out of the accounted time
    root = tr.begin("harness/schedule")
    while True:
        frac = (clock() - t0) / seconds
        if counts is not None:
            ready = [p for p in phases if p.steps < counts[p.name]]
        else:
            ready = [p for p in phases
                     if (p.total is None and (frac < 1 or p.steps < p.min_steps))
                     or (p.total is not None and p.steps < p.total
                         and (p.steps < p.total * frac or frac >= 1))]
        if not ready:
            if counts is not None or frac >= 1:
                break
            continue
        if counts is not None:  # replay: keep every phase equally far along
            p = min(ready, key=lambda q: q.steps / counts[q.name])
        else:  # fixed-size phases whenever due, the rest by deficit
            p = min(ready, key=lambda q: -1.0 if q.total is not None
                    else q.busy_s / q.share)
        p.slows.append(host_slowness())
        span = tr.begin(f"bench/{p.name}")
        t = clock()
        p.step(tr, tally)
        p.busy_s += clock() - t
        tr.end(span)
        p.steps += 1
    tr.end(root)
    return clock() - t0


class Tally:
    """Operations attempted, failed and refused, plus the reason for
    the first few failures (printed, never silently dropped)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, *, refused: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        if refused:
            self.refused += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, good: bool, reason: str) -> None:
        if good:
            self.ok()
        else:
            self.fail(reason)
