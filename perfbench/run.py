"""Wall-clock benchmark of the simulator, the lazy engine and the
serving daemon, attributed layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine_replay --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same work untraced and then traced, prints a
per-layer self-time table and the per-layer metrics, and writes every
span to ``.perfbench-out/trace-<workload>-seed<seed>.json``. The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``perfbench/README.md`` for the workloads and the layer → metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402  (stdlib-only at import)

WORKLOADS = tuple(harness.SETTINGS["workloads"])
GROUPS = ("kernels", "replay", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cold_native() -> None:
    """Forget every process-level native artifact, so the next set-up
    lowers and runs ``cc`` again (the fresh ``TMPDIR`` holds the new
    artifact directory)."""
    from repro.engine import native

    native.reset_native_caches()
    memo = getattr(native, "_TMP_DIR", None)
    if isinstance(memo, list):
        memo.clear()


def _metric_table(kind: str) -> list[dict]:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return spec[kind]


def _emit(values: dict, kind: str) -> dict:
    out = {}
    for m in _metric_table(kind):
        if m["name"] not in values:
            raise KeyError(f"benchmark produced no value for {m['name']}")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def run(args, run_dir: Path) -> dict:
    import numpy as np

    from perfbench import kernels, replay, serving

    seeds = np.random.SeedSequence(args.seed).spawn(len(GROUPS))
    rngs = [np.random.default_rng(s) for s in seeds]
    groups = {
        "kernels": kernels.Kernels(rngs[0]),
        "replay": replay.Replay(rngs[1]),
        "serve": serving.Serve(rngs[2], run_dir),
    }
    fp = harness.fingerprint()
    print("host " + json.dumps(fp, sort_keys=True), flush=True)

    tally = harness.Tally()
    setups = []
    repeats = 1 if args.trace else harness.SETTINGS["setup_repeats"]
    try:
        for rep in range(repeats):
            if rep:
                for g in groups.values():
                    g.close()
            harness.fresh_tmpdir(run_dir, f"setup{rep}")
            _cold_native()
            probes = [harness.host_slowness() for _ in range(3)]
            t0 = time.perf_counter()
            for g in groups.values():
                g.setup()
            dt = time.perf_counter() - t0
            probes += [harness.host_slowness() for _ in range(3)]
            # scaled to the reference host speed like the run's metrics,
            # by probes around this set-up (it precedes the probed run)
            setups.append(dt / harness.median(probes))

        # the benchmark's own inputs are long-lived: keep them out of
        # the collector's way while the program runs
        gc.collect()
        gc.freeze()
        off = harness.Tracer(False)
        phases = _phases(groups, off, args.workload)
        wall = harness.run_phases(list(phases.values()), off, tally, args.seconds)
        for g in groups.values():
            if hasattr(g, "check"):
                g.check(tally)
        native = groups["replay"].native
        raw = {"setup_s": harness.median(setups)}
        raw.update(kernels.end_to_end(phases))
        raw.update(replay.end_to_end(phases, native))
        raw.update(serving.end_to_end(phases))
        slow = harness.median([s for p in phases.values() for s in p.slows])
        values = _normalize(raw, slow)
        detail = {"setups_s": setups, "untraced_s": wall, "raw": raw,
                  "host_slowness": slow,
                  "steps": {name: p.steps for name, p in phases.items()}}

        if not args.trace:
            metrics = _emit(values, "end_to_end")
        else:
            metrics, more = traced(args, groups, phases, wall, tally, native,
                                   fp, values)
            detail.update(more)
    finally:
        for g in groups.values():
            g.close()

    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "host": fp, "refused": tally.refused,
               "failures": tally.reasons, "end_to_end": values, **detail}
    print("summary " + json.dumps(summary, sort_keys=True, default=str),
          flush=True)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def _normalize(raw: dict, slow: float) -> dict:
    """Scale end-to-end metrics to the reference host speed: rates
    multiply by, and times divide by, the run's slowness (the median of
    the probes taken before every step) raised to the metric's exponent
    in ``host_scaled_metrics``. The exponent is how strongly the metric
    follows the probe: about 1 for interpreter-bound phases, about 0.5
    where NumPy kernels, ``cc`` or the daemon's other core carry part
    of the time. The host these numbers come from drifts by tens of
    percent over minutes; this removes the drift that is not the
    program's. Serve latencies at a fixed offered rate are queueing
    outcomes, not proportional to host speed, and stay unscaled. The
    raw values are in the summary line."""
    better = {m["name"]: m["better"] for m in _metric_table("end_to_end")}
    scaled = harness.SETTINGS["host_scaled_metrics"]
    out = {}
    for name, v in raw.items():
        if v is None or name not in scaled:
            out[name] = v
        elif better[name] == "lower":
            out[name] = v / slow ** scaled[name]
        else:
            out[name] = v * slow ** scaled[name]
    return out


def _phases(groups: dict, tr, workload: str) -> dict:
    """Every group's phases, each with its share of the run: the
    workload's weight for the group times the phase's share in it."""
    budget = harness.SETTINGS["workloads"][workload]["budget"]
    share = harness.SETTINGS["phase_share"]
    out = {}
    for name, g in groups.items():
        for p in g.phases(tr):
            p.share = budget[name] * share.get(p.name, 0.0)
            out[p.name] = p
    return out


def traced(args, groups, untraced, untraced_s, tally, native, fp, e2e):
    """The traced pass: the untraced pass's steps again, phase for
    phase, with spans around every call into a layer. The open-loop
    p99 of the untraced pass is reported here, unbounded: on a shared
    host its run-to-run spread exceeds any usable bound."""
    from perfbench import kernels, replay, serving

    tr = harness.Tracer(True)
    phases = _phases(groups, tr, args.workload)
    counts = {name: p.steps for name, p in untraced.items()}
    traced_s = harness.run_phases(list(phases.values()), tr, tally,
                                  args.seconds, counts)
    for g in groups.values():
        if hasattr(g, "check"):
            g.check(tally)

    layers = tr.self_times()
    # the workload's traced time: every step, without the scheduler
    # and host probes between steps (layer "harness")
    total = traced_s - layers.pop("harness", 0.0)
    print(f"per-layer self time, workload {args.workload} seed {args.seed}:")
    harness.print_self_time_table(layers, total)
    print(replay.small_call_split(phases))
    values = {
        "obs.tracing_overhead": traced_s / untraced_s,
        "obs.span_coverage": 1.0 - layers.get("bench", 0.0) / total,
    }
    for layer in harness.SETTINGS["layers"]:
        values[f"self_s.{layer}"] = layers.get(layer, 0.0)

    # in-process measurements on the workload's own traffic, outside
    # the end-to-end accounting above
    side = harness.Tracer(True)
    srv = groups["serve"]
    values.update(serving.protocol_costs(side, srv, phases))
    values["obs.telemetry_cost"] = srv.telemetry_cost(
        harness.SETTINGS["serve"]["telemetry_bursts"])
    values.update(kernels.per_layer(phases))
    values.update(replay.per_layer(phases, native))
    values.update(serving.per_layer(phases))
    values["serve_p99_ms"] = e2e["serve_p99_ms"]
    tr.extend(side)

    path = harness.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tr.write(path, args.workload, args.seed, {
        "host": fp, "self_time_s": layers, "steps_traced_s": total,
        "traced_s": traced_s, "untraced_s": untraced_s})
    print(f"wrote {len(tr.spans)} spans to {path.relative_to(harness.ROOT)}")
    print(f"tracing overhead: traced {traced_s:.3f} s vs untraced "
          f"{untraced_s:.3f} s ({traced_s / untraced_s - 1:+.1%})")
    return _emit(values, "per_layer"), {"traced_s": traced_s,
                                         "self_time_s": layers}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {harness.SRC}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # a termination request unwinds through the finally blocks, which
    # stop the daemon and remove the run directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = harness.isolate()
    sys.path.insert(0, str(harness.SRC))
    try:
        result = run(args, run_dir)
    finally:
        harness.cleanup(run_dir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
