"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``report``
    Regenerate every table/figure and write (or print) EXPERIMENTS.md.
``table <1-7|fig5|headline>``
    Regenerate one experiment and print it.
``sweep --kernel K [--vlen V] [--lmul L ...] [--sizes N ...]``
    Measure a kernel over an LMUL/size grid.
``advise --kernel K --n N [--vlen V]``
    Run the LMUL advisor (§6.3) for a workload size.
``sort --n N [--algo radix|quicksort] [--vlen V]``
    Sort random keys on the simulated machine and report the dynamic
    instruction count (and the qsort baseline for comparison).
``fuse [--pipeline P] [--n N] [--vlen V] [--lmul L] [--codegen C]
[--backend B]``
    Capture a pipeline with the lazy engine, dump the plan before and
    after fusion, and report the measured per-category counter savings
    of fused vs eager execution (plus plan-cache statistics).
``profile --algo sort|filter|scan [--format tree|json|chrome-trace]``
    Run a workload with profiling spans enabled and print (or write)
    the hierarchical profile: tree report with per-category breakdown,
    JSON, or a Chrome-trace file loadable in Perfetto / about:tracing.
``bench [--suite fusion|batch|codegen|all] [--jobs N] [--out F]``
    Run the deterministic benchmark grids (optionally over worker
    processes) and, with ``--out``, write the merged grid as JSON.
``ops [--json]``
    Print the unified OpSpec registry as a per-primitive tier-support
    matrix (strict / fast / fusion / codegen / batch-2D); ``--json``
    emits the machine-readable form for tooling.
``cache stats|clear|prune [--dir D]``
    Inspect, clear, or prune the persistent cache (``REPRO_CACHE_DIR``):
    the native tier's compiled C artifacts and the tuning DB.
``tune sweep|show|clear [--dir D] ...``
    Drive the shape→config auto-tuner: ``sweep`` measures a
    pipeline × size × config grid and fits/persists the policy,
    ``show`` prints it, ``clear`` deletes it. Consult the fitted
    policy with ``SVM(tune="auto")`` or ``repro serve --tune auto``
    (see ``docs/tuning.md``).
``serve [--port P | --unix PATH] [--flush-ms F] [--max-rows M] ...``
    Run the plan-serving daemon: coalesce concurrent NDJSON requests
    into 2D batch evaluations on a deadline window (see
    ``docs/serving.md``). ``--stats-json PATH`` writes the final
    serving statistics on shutdown.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main"]


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench import report

    return report.main(["--stdout"] if args.stdout else [])


def _cmd_table(args: argparse.Namespace) -> int:
    from .bench import experiments as E

    table_fns = {
        "1": E.table1, "2": E.table2, "3": E.table3, "4": E.table4,
        "5": E.table5, "6": E.table6, "7": lambda: E.table7(),
        "fig5": lambda: E.figure5(), "headline": lambda: E.headline(),
    }
    try:
        fn = table_fns[args.which]
    except KeyError:
        print(f"unknown experiment {args.which!r}; choose from {sorted(table_fns)}",
              file=sys.stderr)
        return 2
    print(fn().render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .tune import sweep_lmul
    from .rvv.types import LMUL
    from .utils.formatting import render_table

    lmuls = tuple(LMUL(x) for x in args.lmul)
    points = sweep_lmul(args.kernel, sizes=args.sizes, vlen=args.vlen, lmuls=lmuls)
    by_n: dict[int, dict[int, int]] = {}
    for p in points:
        by_n.setdefault(p.n, {})[int(p.lmul)] = p.instructions
    rows = [
        [f"{n:,}"] + [f"{by_n[n][int(lm)]:,}" for lm in lmuls]
        for n in args.sizes
    ]
    print(render_table(
        ["N"] + [f"LMUL={int(lm)}" for lm in lmuls], rows,
        title=f"{args.kernel} dynamic instruction count (VLEN={args.vlen})",
    ))
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .tune import choose_lmul, predict_scan_count
    from .rvv.types import LMUL

    for lm in (1, 2, 4, 8):
        pred = predict_scan_count(args.kernel, args.n, args.vlen, LMUL(lm))
        spill = f"  (spills: {', '.join(pred.spilled_values)})" if pred.has_spills else ""
        print(f"LMUL={lm}: {pred.count:>12,} instructions{spill}")
    best = choose_lmul(args.kernel, args.n, args.vlen)
    print(f"-> choose LMUL={int(best.lmul)} "
          f"({best.count:,} predicted dynamic instructions)")
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    from .algorithms import flat_quicksort, split_radix_sort
    from .scalar import GlibcMallocModel, ScalarMachine, qsort_baseline
    from .svm.context import SVM

    rng = np.random.default_rng(args.seed)
    keys = rng.integers(0, 2**32, args.n, dtype=np.uint32)
    svm = SVM(vlen=args.vlen, codegen="paper",
              malloc_model=GlibcMallocModel())
    arr = svm.array(keys)
    svm.reset()
    if args.algo == "radix":
        split_radix_sort(svm, arr)
    else:
        flat_quicksort(svm, arr, shuffle=True, rng=rng)
    if not np.array_equal(arr.to_numpy(), np.sort(keys)):
        print("sort FAILED verification", file=sys.stderr)
        return 1
    sm = ScalarMachine()
    qsort_baseline(sm, keys)
    print(f"{args.algo:>9}: {svm.instructions:>12,} dynamic instructions")
    print(f"    qsort: {sm.total:>12,} dynamic instructions "
          f"(speedup {sm.total / svm.instructions:.2f}x)")
    return 0


def _pipe_chain_scan(lz, data, lmul):
    lz.p_add(data, 10, lmul=lmul)
    lz.p_mul(data, 3, lmul=lmul)
    lz.p_xor(data, 5, lmul=lmul)
    lz.plus_scan(data, lmul=lmul)
    return data


def _pipe_elementwise(lz, data, lmul):
    lz.p_add(data, 1, lmul=lmul)
    lz.p_sll(data, 1, lmul=lmul)
    lz.p_or(data, 1, lmul=lmul)
    return data


def _pipe_filter(lz, data, lmul):
    lt_hi = lz.p_lt(data, 3 * 2**14, lmul=lmul)
    ge_lo = lz.p_ge(data, 2**14, lmul=lmul)
    lz.p_mul(ge_lo, lt_hi, lmul=lmul)
    out, _kept = lz.pack(data, ge_lo, lmul=lmul)
    lz.free(ge_lo)
    lz.free(lt_hi)
    return out


_FUSE_PIPELINES = {
    "chain-scan": _pipe_chain_scan,
    "elementwise": _pipe_elementwise,
    "filter": _pipe_filter,
}


def _cmd_fuse(args: argparse.Namespace) -> int:
    from .rvv.counters import Cat
    from .rvv.types import LMUL
    from .svm.context import SVM
    from .utils.formatting import render_table

    pipeline = _FUSE_PIPELINES[args.pipeline]
    lmul = LMUL(args.lmul)

    def run(fuse: bool):
        svm = SVM(vlen=args.vlen, codegen=args.codegen, backend=args.backend)

        def once():
            rng = np.random.default_rng(args.seed)
            data = svm.array(rng.integers(0, 2**16, args.n, dtype=np.uint32))
            svm.reset()
            with svm.lazy(fuse=fuse) as lz:
                result = pipeline(lz, data, lmul)
            return svm.machine.counters.snapshot(), result.to_numpy(), lz

        if fuse:
            once()  # warm the plan cache; the measured run below hits it
        snap, out, lz = once()
        return snap, out, lz, svm.engine.cache

    eager, ref, _, _ = run(False)
    fused, got, lz, cache = run(True)

    print(lz.plan.describe())
    print()
    print(lz.fused.describe(lz.plan))
    print()

    rows = []
    for cat in Cat:
        e, f = eager.by_category.get(cat, 0), fused.by_category.get(cat, 0)
        if e or f:
            rows.append([cat.value, f"{e:,}", f"{f:,}", f"{e - f:+,}"])
    rows.append(["total", f"{eager.total:,}", f"{fused.total:,}",
                 f"{eager.total - fused.total:+,}"])
    print(render_table(
        ["category", "eager", "fused", "saved"], rows,
        title=(f"{args.pipeline}: dynamic instructions, n={args.n:,} "
               f"VLEN={args.vlen} LMUL={args.lmul} ({args.codegen})"),
    ))
    if not np.array_equal(ref, got):
        print("fused result differs from eager (BUG)", file=sys.stderr)
        return 1
    pct = 100.0 * (eager.total - fused.total) / eager.total if eager.total else 0.0
    print(f"results bit-identical; fused saves {pct:.1f}% of dynamic instructions")
    s = cache.stats_dict()
    print(f"plan cache: hits={s['hits']} misses={s['misses']} "
          f"evictions={s['evictions']} size={s['size']}/{s['capacity']} "
          f"hit_rate={s['hit_rate']:.2f}")
    return 0


def _profile_workload_sort(svm, args, rng) -> int:
    from .algorithms import split_radix_sort

    keys = rng.integers(0, 2 ** args.bits, args.n, dtype=np.uint32)
    arr = svm.array(keys)
    svm.reset()
    split_radix_sort(svm, arr, bits=args.bits)
    if not np.array_equal(arr.to_numpy(), np.sort(keys)):
        print("sort FAILED verification", file=sys.stderr)
        return 1
    return 0


def _profile_workload_filter(svm, args, rng) -> int:
    from .algorithms import filter_in_range

    if args.batch:
        # pack captures as a structured node, but its instruction charge
        # is data-dependent, so every bucket takes the loop fallback —
        # visible as batch_bucket[path=loop]
        def pipe(lz, data):
            lt = lz.p_lt(data, 3 * 2 ** 14)
            ge = lz.p_ge(data, 2 ** 14)
            lz.p_mul(ge, lt)
            out, _ = lz.pack(data, ge)
            lz.free(ge)
            lz.free(lt)
            return out

        rows = [rng.integers(0, 2 ** 16, args.n, dtype=np.uint32)
                for _ in range(args.batch)]
        svm.batch(pipe, rows)
        return 0
    # two α-equivalent runs: the second one's plan comes from the cache,
    # so the profile shows both a plan_cache.miss and a plan_cache.hit
    for _ in range(2):
        data = svm.array(rng.integers(0, 2 ** 16, args.n, dtype=np.uint32))
        filter_in_range(svm, data, 2 ** 14, 3 * 2 ** 14)
    return 0


def _profile_workload_scan(svm, args, rng) -> int:
    if args.batch:
        def pipe(lz, data):
            lz.p_add(data, 1)
            lz.plus_scan(data)
            return data

        rows = [rng.integers(0, 100, args.n, dtype=np.uint32)
                for _ in range(args.batch)]
        svm.batch(pipe, rows)
        return 0
    data = svm.array(rng.integers(0, 100, args.n, dtype=np.uint32))
    svm.reset()
    svm.plus_scan(data)
    seg = svm.array(rng.integers(0, 100, args.n, dtype=np.uint32))
    heads = np.zeros(args.n, dtype=np.uint32)
    if args.n:
        heads[::64] = 1
    flags = svm.array(heads)
    svm.seg_plus_scan(seg, flags)
    return 0


_PROFILE_WORKLOADS = {
    "sort": _profile_workload_sort,
    "filter": _profile_workload_filter,
    "scan": _profile_workload_scan,
}


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .svm.context import SVM

    if args.batch and args.algo == "sort":
        print("--batch applies to the scan and filter workloads only",
              file=sys.stderr)
        return 2
    svm = SVM(vlen=args.vlen, codegen=args.codegen, mode=args.mode,
              profile="strips" if args.strips else True)
    rng = np.random.default_rng(args.seed)
    rc = _PROFILE_WORKLOADS[args.algo](svm, args, rng)
    if rc:
        return rc
    col = svm.profiler
    col.finish()
    if args.format == "tree":
        text = col.report(max_depth=args.max_depth)
    elif args.format == "json":
        text = json.dumps(col.to_json(), indent=2)
    else:  # chrome-trace
        text = json.dumps(col.to_chrome_trace(), indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"wrote {args.format} profile to {args.out}")
    else:
        print(text)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import time

    from .parallel import batch_cell, codegen_cell, fusion_cell, run_grid
    from .utils.formatting import fmt_count

    t0 = time.perf_counter()
    failures = 0
    grid: dict = {
        "meta": {"suite": args.suite, "n": args.n, "seed": args.seed,
                 "jobs": args.jobs},
    }

    if args.suite in ("fusion", "all"):
        params = [
            {"n": args.n, "vlen": vlen, "lmul": lmul, "depth": 3,
             "seed": args.seed}
            for vlen in (128, 1024) for lmul in (1, 8)
        ]
        cells = run_grid(fusion_cell, params, jobs=args.jobs)
        grid["fusion"] = cells
        print(f"fusion suite ({len(cells)} cells, n={args.n}):")
        print("  VLEN LMUL      eager      fused  saved  identical")
        for c in cells:
            failures += not c["identical"]
            print(f"  {c['vlen']:>4} {c['lmul']:>4} {fmt_count(c['eager']):>10}"
                  f" {fmt_count(c['fused']):>10} {c['saving_pct']:>5.1f}%"
                  f"  {c['identical']}")

    if args.suite in ("batch", "all"):
        params = [
            {"n": n, "vlen": vlen, "lmul": 1, "rows": rows, "depth": 3,
             "seed": args.seed}
            for vlen in (128, 512) for n, rows in ((256, 32), (2000, 16))
        ]
        cells = run_grid(batch_cell, params, jobs=args.jobs)
        grid["batch"] = cells
        print(f"batch suite ({len(cells)} cells):")
        print("  VLEN     n rows path       loop      batch  identical")
        for c in cells:
            ok = (c["identical_results"] and c["identical_counters"]
                  and c["batch_instr"] == c["loop_instr"])
            failures += not ok
            print(f"  {c['vlen']:>4} {c['n']:>5} {c['rows']:>4} {c['path']:<4}"
                  f" {fmt_count(c['loop_instr']):>10}"
                  f" {fmt_count(c['batch_instr']):>10}  {ok}")

    if args.suite in ("codegen", "all"):
        params = [
            {"n": n, "vlen": vlen, "lmul": lmul, "depth": 5,
             "seed": args.seed}
            for vlen in (128, 1024) for lmul in (1, 8) for n in (256, args.n)
        ]
        cells = run_grid(codegen_cell, params, jobs=args.jobs)
        grid["codegen"] = cells
        print(f"codegen suite ({len(cells)} cells):")
        print("  VLEN LMUL      n     strict    codegen  identical")
        for c in cells:
            ok = (c["identical_results"] and c["identical_counters"]
                  and c["codegen_instr"] == c["strict_instr"])
            failures += not ok
            print(f"  {c['vlen']:>4} {c['lmul']:>4} {c['n']:>6}"
                  f" {fmt_count(c['strict_instr']):>10}"
                  f" {fmt_count(c['codegen_instr']):>10}  {ok}")

    # merged grid (all requested suites in one document), written at
    # any --jobs count — the workers only compute cells, the parent
    # always owns the merge
    if args.out:
        with open(args.out, "w") as f:
            json.dump(grid, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote merged grid to {args.out}")

    elapsed = time.perf_counter() - t0
    print(f"done in {elapsed:.2f}s with jobs={args.jobs}")
    if failures:
        print(f"{failures} cell(s) failed identity checks", file=sys.stderr)
        return 1
    return 0


def _cmd_ops(args: argparse.Namespace) -> int:
    import json

    from .svm import opspec
    from .utils.formatting import render_table

    if args.json:
        print(json.dumps(opspec.support_matrix(), indent=2))
        return 0

    def yn(flag: bool) -> str:
        return "yes" if flag else "-"

    rows = []
    for spec in opspec.iter_specs():
        if spec.composite:
            # composites never execute themselves: eager bodies call
            # other primitives, capture lowers them into the plan
            rows.append([spec.name, spec.category, "-", "-", "lowered",
                         "-", "-", "-", "-", ", ".join(spec.aliases)])
            continue
        fuse = spec.fuse_role if spec.fuse_role else "-"
        rows.append([
            spec.name, spec.category, yn(bool(spec.strict)),
            yn(not spec.composite), fuse, yn(spec.codegen), yn(spec.native),
            yn(spec.batch2d), yn(spec.ragged2d), ", ".join(spec.aliases),
        ])
    print(render_table(
        ["op", "category", "strict", "fast", "fuse", "codegen", "native",
         "batch-2D", "ragged-2D", "aliases"],
        rows,
        title=f"OpSpec registry: {len(rows)} primitives "
              "(one descriptor drives eager, capture, fusion, codegen, batch)",
    ))
    print("fuse: lane ops merge into strip loops, tail ops close a fused "
          "group, lowered composites expand at capture")
    print("batch-2D '-': the op's charge or scalar flow is data-dependent; "
          "ragged-2D 'yes' means it still batches as one masked 2D "
          "evaluation with a per-row charge, else buckets replay the "
          "per-row loop")
    print("native 'yes': the op lowers into the compiled whole-plan C "
          "kernel tier; '-' ops force the plan back to codegen")
    return 0


def _unlink_all(paths) -> int:
    """Delete ``paths``; returns how many were removed."""
    removed = 0
    for path in paths:
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .config import default_cache_dir, env_cache_dir
    from .engine.native import artifact_dir, artifact_stats, artifacts
    from .tune.db import TuningDB

    configured = bool(args.dir or env_cache_dir())
    root = Path(args.dir) if args.dir else default_cache_dir()
    tdb = TuningDB(root)
    if args.action == "clear":
        # *.plan: pickled plan entries left by earlier versions
        removed = _unlink_all(artifacts(root) + artifacts(root, temps=True)
                              + sorted(root.glob("*.plan"))) + tdb.clear()
        print(f"removed {removed} cached file(s) from {root} "
              "(native artifacts and tuning entries)")
        return 0
    if args.action == "prune":
        temps = _unlink_all(artifacts(root, temps=True))
        tpruned = tdb.prune()
        print(f"pruned {temps} abandoned native build file(s) from "
              f"{artifact_dir(root)}")
        print(f"pruned {tpruned['removed']} stale tuning entr(ies) from "
              f"{tdb.tune_dir} ({tpruned['kept']} current kept, "
              f"{tpruned['temps']} temp file(s) removed)")
        return 0
    a = artifact_stats(root)
    t = tdb.stats_dict(scan=True)
    print(f"persistent cache at {root}")
    print(f"  native artifacts: {a['artifacts']}  bytes: {a['bytes']:,}")
    print(f"  tuning entries: {t['entries']}  bytes: {t['bytes']:,}  "
          f"stale: {t['stale']}  schema: v{t['schema']}  code: {t['code']}")
    if t["stale"]:
        print(f"  note: run 'repro cache prune' to evict the {t['stale']} "
              "stale tuning entr(ies) left by an older engine fingerprint")
    if not configured:
        print("  note: persistence is disabled — the engine writes this "
              "cache only when REPRO_CACHE_DIR is set or "
              "SVM(cache_dir=...) is passed")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    import json

    from .config import default_cache_dir
    from .rvv.types import LMUL
    from .tune import TuningDB, run_tune_sweep
    from .tune.sweep import DEFAULT_SIZES
    from .utils.formatting import render_table

    root = args.dir or default_cache_dir()
    db = TuningDB(root)

    if args.action == "clear":
        removed = db.clear()
        print(f"removed {removed} tuning file(s) from {db.tune_dir}")
        return 0

    if args.action == "show":
        files = db.entries()
        if not files:
            print(f"no tuning entries under {db.tune_dir} — run "
                  "'repro tune sweep' first")
            return 0
        s = db.stats_dict(scan=True)
        print(f"tuning DB at {s['dir']}: {s['entries']} fingerprint(s), "
              f"{s['bytes']:,} bytes, stale: {s['stale']}, "
              f"schema v{s['schema']}, code {s['code']}")
        rows = []
        for path in files:
            try:
                doc = json.loads(path.read_text())
            except Exception:
                rows.append([path.stem[:12], "?", "(unreadable)", "-", "-"])
                continue
            fp = doc.get("fingerprint", path.stem)
            name = ((doc.get("meta") or {}).get("pipelines") or {}).get(fp, "?")
            for key, rec in sorted((doc.get("entries") or {}).items()):
                rows.append([fp[:12], name, key, str(rec.get("lmul", "?")),
                             f"{rec.get('instructions', 0):,}"])
        print(render_table(
            ["fingerprint", "pipeline", "vlen:codegen:bucket", "lmul",
             "instructions"],
            rows, title="fitted shape→config policy (argmin dynamic "
                        "instructions per bucket)",
        ))
        return 0

    # sweep: measure the grid, fit the policy, persist it
    try:
        points, fitted = run_tune_sweep(
            pipelines=args.pipelines,
            sizes=tuple(args.sizes) if args.sizes else DEFAULT_SIZES,
            vlens=tuple(args.vlen),
            lmuls=tuple(LMUL(x) for x in args.lmuls),
            codegen=tuple(args.codegen),
            jobs=args.jobs,
            db=db,
        )
    except KeyError as exc:
        print(f"repro tune: {exc}", file=sys.stderr)
        return 2
    n_entries = sum(len(t) for t in fitted.values())
    print(f"swept {len(points)} cells -> {n_entries} policy entr(ies) "
          f"across {len(fitted)} pipeline fingerprint(s)")
    print(f"tuning DB written under {db.tune_dir}")
    print("consult it with SVM(tune='auto'), repro serve --tune auto, "
          "or inspect with 'repro tune show'")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import json
    import signal
    import sys as _sys

    from .serve import ServeConfig, Server

    if args.port is None and args.unix is None:
        args.port = 8377  # default listener: TCP on localhost
    config = ServeConfig(
        host=args.host, port=args.port, unix_path=args.unix,
        flush_ms=args.flush_ms, max_rows=args.max_rows,
        queue_limit=args.queue_limit, workers=args.workers,
        vlen=args.vlen, codegen=args.codegen, mode=args.mode,
        backend=args.backend, cache_dir=args.cache_dir,
        tune=args.tune,
        profile=args.profile, max_requests=args.max_requests,
        telemetry=not args.no_telemetry,
        flight_capacity=args.flight_capacity,
        flight_exemplars=args.flight_exemplars,
        flight_dump=args.flight_dump,
    )

    async def _main() -> tuple[dict, str]:
        server = Server(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(
                    sig, lambda: loop.create_task(server.shutdown()))

        def _flight_dump() -> None:
            # SIGUSR1: dump the flight recorder without disturbing the
            # daemon — to --flight-dump when set, else to stderr
            text = server.telemetry.recorder.dump_ndjson()
            if config.flight_dump:
                with contextlib.suppress(OSError):
                    with open(config.flight_dump, "w") as f:
                        f.write(text)
                print(f"REPRO_SERVE flight dump written to "
                      f"{config.flight_dump}", flush=True)
            else:
                _sys.stderr.write(text)
                _sys.stderr.flush()

        if hasattr(signal, "SIGUSR1"):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signal.SIGUSR1, _flight_dump)
        addr = server.address
        if addr is not None:
            # parseable announce line: tools/ci_serve_smoke.py reads it
            print(f"REPRO_SERVE listening addr={addr[0]}:{addr[1]} "
                  f"flush_ms={config.flush_ms} max_rows={config.max_rows} "
                  f"workers={config.workers}", flush=True)
        if config.unix_path:
            print(f"REPRO_SERVE listening unix={config.unix_path}",
                  flush=True)
        await server.wait_closed()
        return server.stats(), server.metrics_exposition()

    stats, exposition = asyncio.run(_main())
    if args.stats_json:
        with open(args.stats_json, "w") as f:
            json.dump(stats, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote serving stats to {args.stats_json}")
    if args.metrics_file:
        with open(args.metrics_file, "w") as f:
            f.write(exposition)
        print(f"wrote metrics exposition to {args.metrics_file}")
    req = stats["requests"]
    co = stats["coalescing"]
    print(f"served {req['ok']}/{req['total']} requests "
          f"(rejected {req['rejected']}, errors {req['errors']}) in "
          f"{co['flushes']} flushes, coalescing ratio {co['ratio']}")
    return 0


def _render_top(stats: dict, rate: float | None) -> str:
    """One ``repro top`` frame from a daemon's ``stats`` document."""
    req = stats["requests"]
    co = stats["coalescing"]
    pc = stats["plan_cache"]
    lat = stats.get("latency_ms") or {}
    tel = stats.get("telemetry") or {}
    flight = tel.get("flight") or {}
    cfg = stats["config"]
    lines = [
        f"repro top — uptime {stats.get('uptime_s', 0.0):.1f}s  "
        f"workers {cfg['workers']}  mode {cfg['mode']}  "
        f"window {cfg['flush_ms']}ms/{cfg['max_rows']} rows",
        f"requests    total {req['total']:,}  ok {req['ok']:,}  "
        f"rejected {req['rejected']:,}  errors {req['errors']:,}  "
        f"inflight {req['inflight']}",
        f"throughput  "
        + (f"{rate:.1f} req/s" if rate is not None else "(first poll)"),
        f"coalescing  ratio {co['ratio']}  flushes {co['flushes']:,}  "
        f"paths 2d={co['paths']['2d']:,} "
        f"ragged={co['paths'].get('ragged', 0):,} "
        f"loop={co['paths']['loop']:,}",
        f"latency_ms  p50 {lat.get('p50', '-')}  p90 {lat.get('p90', '-')}  "
        f"p99 {lat.get('p99', '-')}  max {lat.get('max', '-')}",
        f"plan cache  hit_rate {pc['hit_rate']:.3f}  "
        f"memory {pc['sources']['memory']:,}  "
        f"disk {pc['sources']['disk']:,}  "
        f"compile {pc['sources']['compile']:,}"
        if pc.get("sources") else
        f"plan cache  hit_rate {pc['hit_rate']:.3f}",
        f"flight      recorded {flight.get('recorded', 0):,}  "
        f"dropped {flight.get('dropped', 0):,}  "
        f"exemplars {flight.get('exemplars', 0)}",
    ]
    pipelines = stats.get("pipelines") or {}
    if pipelines:
        lines.append("pipelines:")
        width = max(len(p) for p in pipelines)
        for name in sorted(pipelines):
            doc = pipelines[name]
            plat = doc.get("latency_ms") or {}
            lines.append(
                f"  {name:<{width}}  requests {doc['requests']:,}"
                f"  p50 {plat.get('p50', '-')}ms"
                f"  p99 {plat.get('p99', '-')}ms")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from .serve import ServeClient

    if args.port is None and args.unix is None:
        args.port = 8377

    def _connect() -> "ServeClient":
        if args.unix is not None:
            return ServeClient(unix_path=args.unix)
        return ServeClient(host=args.host, port=args.port)

    prev: tuple[int, float] | None = None
    frames = 0
    try:
        with _connect() as client:
            while True:
                stats = client.stats()
                now = _time.monotonic()
                rate = None
                if prev is not None and now > prev[1]:
                    rate = max(0, stats["requests"]["total"] - prev[0]) \
                        / (now - prev[1])
                frame = _render_top(stats, rate)
                if not args.once:
                    # full-screen refresh: clear + home, like top(1)
                    print("\x1b[2J\x1b[H", end="")
                print(frame, flush=True)
                prev = (stats["requests"]["total"], now)
                frames += 1
                if args.once or (args.frames and frames >= args.frames):
                    return 0
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except ConnectionError as exc:
        print(f"repro top: connection lost: {exc}")
        return 1


def _add_config_flags(p: argparse.ArgumentParser, *, codegen: bool = False,
                      backend: bool = False, cache_dir: bool = False,
                      vlen_default: int = 1024) -> None:
    """Register the shared execution-config flags — the CLI face of
    :class:`repro.config.ExecConfig`, declared once so every
    subcommand spells the axes identically."""
    from .config import BACKENDS

    p.add_argument("--vlen", type=int, default=vlen_default,
                   help="vector register length in bits")
    if codegen:
        p.add_argument("--codegen", choices=["ideal", "paper"],
                       default="paper")
    if backend:
        p.add_argument("--backend", choices=list(BACKENDS), default=None,
                       help="fused-plan executor: generated NumPy kernels "
                            "(codegen, the default) or compiled whole-plan "
                            "C kernels (native, counters identical); "
                            "default from REPRO_BACKEND")
    if cache_dir:
        p.add_argument("--cache-dir", default=None,
                       help="persistent cache directory: native C "
                            "artifacts and the tuning DB (default: "
                            "REPRO_CACHE_DIR if set)")


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scan vector model for RVV — reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p.add_argument("--stdout", action="store_true", help="print instead of writing")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("table", help="regenerate one experiment")
    p.add_argument("which", help="1-7, fig5, or headline")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("sweep", help="measure a kernel over an LMUL/size grid")
    p.add_argument("--kernel", default="seg_plus_scan",
                   choices=["p_add", "plus_scan", "seg_plus_scan"])
    _add_config_flags(p)
    p.add_argument("--lmul", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--sizes", type=int, nargs="+",
                   default=[100, 1000, 10000, 100000])
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("advise", help="run the LMUL advisor (§6.3)")
    p.add_argument("--kernel", default="seg_plus_scan",
                   choices=["plus_scan", "seg_plus_scan"])
    p.add_argument("--n", type=int, required=True)
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_advise)

    p = sub.add_parser("sort", help="sort random keys on the simulator")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--algo", choices=["radix", "quicksort"], default="radix")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_sort)

    p = sub.add_parser(
        "fuse", help="inspect the lazy engine's plan fusion on a pipeline"
    )
    p.add_argument("--pipeline", choices=sorted(_FUSE_PIPELINES),
                   default="chain-scan")
    p.add_argument("--n", type=int, default=10000)
    _add_config_flags(p, codegen=True, backend=True)
    p.add_argument("--lmul", type=int, choices=[1, 2, 4, 8], default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_fuse)

    p = sub.add_parser(
        "profile", help="run a workload with profiling spans and export"
    )
    p.add_argument("--algo", choices=sorted(_PROFILE_WORKLOADS), default="sort")
    p.add_argument("--format", choices=["tree", "json", "chrome-trace"],
                   default="tree")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--bits", type=int, default=8,
                   help="key bits for the sort workload")
    _add_config_flags(p, codegen=True)
    p.add_argument("--mode", choices=["strict", "fast", "auto"], default="auto")
    p.add_argument("--strips", action="store_true",
                   help="record a span per vsetvl strip (verbose)")
    p.add_argument("--max-depth", type=int, default=None,
                   help="clip the tree report below this depth")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=0, metavar="N",
                   help="run the workload as an N-row svm.batch() so the "
                        "batch path shows up in the profile (scan/filter)")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "bench", help="run benchmark grids, optionally over worker processes"
    )
    p.add_argument("--suite", choices=["fusion", "batch", "codegen", "all"],
                   default="all")
    p.add_argument("--jobs", type=int, default=1,
                   help="fan grid cells over this many processes "
                        "(per-worker machines; results merge in input order)")
    p.add_argument("--n", type=int, default=20000,
                   help="element count for the fusion suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the merged grid (every suite run, one "
                        "JSON document) to this file; works at any "
                        "--jobs count")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "ops", help="print the OpSpec registry as a tier-support matrix"
    )
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable matrix "
                        "(the serve daemon's 'ops' request body)")
    p.set_defaults(fn=_cmd_ops)

    p = sub.add_parser(
        "serve", help="run the plan-serving daemon (request coalescing "
                      "into 2D batch evaluations)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (0 = ephemeral; default 8377 when no "
                        "--unix is given)")
    p.add_argument("--unix", default=None, metavar="PATH",
                   help="serve on a unix socket instead of TCP")
    p.add_argument("--flush-ms", type=float, default=2.0,
                   help="coalescing window deadline in milliseconds")
    p.add_argument("--max-rows", type=int, default=64,
                   help="flush a bucket as soon as it holds this many rows")
    p.add_argument("--queue-limit", type=int, default=1024,
                   help="max in-flight requests before rejection "
                        "(backpressure)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker pool size (SVM contexts sharing one warm "
                        "plan cache)")
    _add_config_flags(p, codegen=True, backend=True, cache_dir=True)
    p.add_argument("--mode", choices=["auto", "strict", "fast"],
                   default="auto")
    p.add_argument("--tune", choices=["auto"], default=None,
                   help="consult the persistent shape→config tuning DB "
                        "(under --cache-dir) per request shape at "
                        "dispatch time; see 'repro tune'")
    p.add_argument("--profile", action="store_true",
                   help="install per-worker obs collectors (engine and "
                        "batch spans and metrics, merged into 'metrics')")
    p.add_argument("--max-requests", type=int, default=None, metavar="N",
                   help="gracefully exit after N execute requests "
                        "(smoke tests)")
    p.add_argument("--stats-json", default=None, metavar="PATH",
                   help="write the final serving statistics JSON on "
                        "shutdown")
    p.add_argument("--metrics-file", default=None, metavar="PATH",
                   help="write the Prometheus text exposition of every "
                        "metric family on shutdown")
    p.add_argument("--no-telemetry", action="store_true",
                   help="disable the always-on telemetry layer (request "
                        "tracing, labeled metrics, flight recorder)")
    p.add_argument("--flight-capacity", type=int, default=512,
                   help="flight-recorder ring buffer size in events")
    p.add_argument("--flight-exemplars", type=int, default=8,
                   help="slowest-request span trees retained as exemplars")
    p.add_argument("--flight-dump", default=None, metavar="PATH",
                   help="write the flight recorder as NDJSON here on a "
                        "request error or SIGUSR1 (default on SIGUSR1: "
                        "stderr)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "top", help="live view of a running serve daemon (polls its "
                    "stats request)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="daemon TCP port (default 8377 when no --unix)")
    p.add_argument("--unix", default=None, metavar="PATH",
                   help="connect over a unix socket instead of TCP")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between polls")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (no screen clearing)")
    p.add_argument("--frames", type=int, default=0, metavar="N",
                   help="exit after N frames (0 = until interrupted)")
    p.set_defaults(fn=_cmd_top)

    p = sub.add_parser(
        "cache", help="inspect, prune or clear the persistent cache "
                      "(native C artifacts and the tuning DB)"
    )
    p.add_argument("action", choices=["stats", "clear", "prune"])
    p.add_argument("--dir", default=None,
                   help="cache directory (default: REPRO_CACHE_DIR, "
                        "else ~/.cache/repro)")
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "tune", help="sweep, inspect, or clear the persistent "
                     "shape→config auto-tuner (see docs/tuning.md)"
    )
    p.add_argument("action", choices=["sweep", "show", "clear"])
    p.add_argument("--dir", default=None,
                   help="cache directory holding the tuning DB "
                        "(default: REPRO_CACHE_DIR, else ~/.cache/repro)")
    p.add_argument("--pipelines", nargs="+", default=None, metavar="P",
                   help="pipelines to sweep (default: all of "
                        "chain_scan, scan, seg_scan)")
    p.add_argument("--sizes", type=int, nargs="+", default=None,
                   help="problem sizes (default spans the spill/strip "
                        "crossover: 64 ... 100000)")
    p.add_argument("--vlen", type=int, nargs="+", default=[1024],
                   help="VLEN values to sweep")
    p.add_argument("--lmuls", type=int, nargs="+", default=[1, 2, 4, 8],
                   help="LMUL candidates")
    p.add_argument("--codegen", choices=["ideal", "paper"], nargs="+",
                   default=["ideal", "paper"],
                   help="codegen preset(s) to sweep (the policy lookup "
                        "is preset-exact; default sweeps both)")
    p.add_argument("--jobs", type=int, default=1,
                   help="fan sweep cells over this many processes")
    p.set_defaults(fn=_cmd_tune)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
