"""The benchmark's own tests: reference semantics, span accounting,
the scheduler, the stored instruction counts and the output contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import harness
from perfbench.reference import PIPELINES, kernel_ref, pipeline_ref

sys.path.insert(0, str(harness.SRC))

RUN = [sys.executable, "perfbench/run.py"]


def _spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# reference semantics against the program's eager path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_reference_matches_eager_svm(name):
    from repro import SVM

    rng = np.random.default_rng(7)
    x = rng.integers(0, 2**16, 777, dtype=np.uint32)
    svm = SVM(vlen=1024, codegen="paper", mode="fast")
    a = svm.array(x)
    with svm.lazy(fuse=False) as lz:
        out, kept = PIPELINES[name](lz, a)
    got = out.to_numpy()
    ref = pipeline_ref(name, x)
    if kept is not None:
        assert kept.value == ref.size
        got = got[:kept.value]
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("kernel", ["p_add", "plus_scan", "seg_plus_scan",
                                    "split_radix_sort"])
def test_kernel_reference_and_stored_counts(kernel):
    """Strict runs reproduce the NumPy reference and the instruction
    counts stored in settings.json (tolerance 0)."""
    from repro import SVM
    from repro.algorithms.radix_sort import split_radix_sort
    from repro.config import ExecConfig

    from perfbench.kernels import CFG, expected_key

    rng = np.random.default_rng(3)
    for mode in ("strict", "fast"):
        n = CFG[f"{mode}_n"][kernel]
        if mode == "fast" and kernel == "split_radix_sort":
            continue  # too slow for a unit test; covered by the runs
        for vlen in CFG["vlens"]:
            svm = SVM(config=ExecConfig(vlen=vlen), codegen="paper", mode=mode)
            x = rng.integers(0, 2**32, n, dtype=np.uint32)
            heads = (rng.random(n) < 0.05).astype(np.uint32)
            a, f = svm.array(x), svm.array(heads)
            before = svm.instructions
            if kernel == "p_add":
                svm.p_add(a, 7)
            elif kernel == "plus_scan":
                svm.plus_scan(a)
            elif kernel == "seg_plus_scan":
                svm.seg_plus_scan(a, f)
            else:
                split_radix_sort(svm, a)
            count = svm.instructions - before
            assert count == CFG["expected_instructions"][
                expected_key(kernel, vlen, mode, n)]
            np.testing.assert_array_equal(a.to_numpy(), kernel_ref(kernel, x, heads))


# ---------------------------------------------------------------------------
# tracing and statistics
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    tr = harness.Tracer(True)
    tr.spans = [
        ["bench/phase", 0, 100, -1],
        ["gen/open", 10, 90, 0],
        ["serve.server/in_flight", 20, 50, 1],
        ["serve.server/in_flight", 40, 60, 1],  # overlaps the first
        ["svm/array", 95, 100, 0],
    ]
    layers = {k: round(v * 1e9) for k, v in tr.self_times().items()}
    # gen loses the union 20..60 of its children, not their sum
    assert layers == {"bench": 15, "gen": 40, "serve.server": 50, "svm": 5}


def test_disabled_tracer_records_nothing():
    tr = harness.Tracer(False)
    idx = tr.begin("svm/array")
    assert tr.end(idx) == 0.0
    tr.add("serve.server/in_flight", 1, 2)
    assert tr.spans == []


def test_percentile_is_nearest_rank():
    vals = list(range(1, 101))
    assert harness.percentile(vals, 50) == 50
    assert harness.percentile(vals, 99) == 99
    assert harness.percentile([5.0], 99) == 5.0
    assert harness.median([3, 1, 2, 4]) == 2.5


class _Counter(harness.Phase):
    def __init__(self, name, total=None, cost=0.0):
        super().__init__(name, total)
        self.cost = cost

    def step(self, tr, tally):
        if self.cost:
            t = harness.time.perf_counter() + self.cost
            while harness.time.perf_counter() < t:
                pass


def test_scheduler_replays_exact_counts():
    a, b = _Counter("a"), _Counter("b", total=4)
    a.share = b.share = 0.5
    harness.run_phases([a, b], harness.Tracer(False), harness.Tally(), 1.0,
                       counts={"a": 7, "b": 4})
    assert (a.steps, b.steps) == (7, 4)
    assert len(a.slows) == 7 and a.slows[0] > 0


def test_scheduler_honours_shares_and_spreads_fixed_phases():
    a, b = _Counter("a", cost=0.002), _Counter("b", cost=0.002)
    fixed = _Counter("fixed", total=5)
    a.share, b.share = 0.75, 0.25
    order = []
    orig = fixed.step
    fixed.step = lambda tr, tally: (order.append(a.steps + b.steps), orig(tr, tally))
    harness.run_phases([a, b, fixed], harness.Tracer(False), harness.Tally(), 0.3)
    assert fixed.steps == 5
    assert 2.0 < a.busy_s / b.busy_s < 4.5
    # the fixed phase's steps are spread over the run, not front-loaded
    assert order[-1] > order[0] + 10


# ---------------------------------------------------------------------------
# the output contract
# ---------------------------------------------------------------------------

def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_its_kind(trace, kind):
    out = subprocess.run(RUN + ["--workload", "serve_mixed", "--seed", "1",
                                "--seconds", "2", "--trace", str(trace)],
                         cwd=harness.ROOT, capture_output=True, text=True,
                         timeout=170)
    assert out.returncode == 0, out.stderr[-2000:]
    res = _last_json(out.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = [m["name"] for m in _spec()[kind]]
    assert list(res["metrics"]) == names
    for m in _spec()[kind]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        value = res["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        if kind == "end_to_end":
            assert value > 0


def test_run_fails_without_the_program():
    """In a directory holding only BENCHMARK.json and the benchmark,
    the run exits non-zero without printing a result."""
    bare = harness.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(harness.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(RUN + ["--workload", "paper_kernels", "--seed", "1",
                                    "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_benchmark_json_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(harness.SETTINGS["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
