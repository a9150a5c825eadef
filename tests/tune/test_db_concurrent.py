"""Two processes sharing one cache dir must not corrupt the TuningDB.

The tuning-store counterpart of tests/engine/test_plan_store_concurrent.py
(the native artifacts): concurrent sweeps (the serve-daemon-plus-ad-hoc-CLI case) write
per-fingerprint JSON files with atomic temp + rename, so racing
writers settle on complete, loadable envelopes and a subsequent
``SVM(tune="auto")`` consumer sees a valid policy.
"""

from __future__ import annotations

import json
import multiprocessing as mp

from repro.tune import TunePolicy, TuningDB, run_tune_sweep

SIZES = (64, 3000)
VLENS = (128,)
ROUNDS = 6


def _worker(cache_dir: str, seed: int, out_q) -> None:
    """Many sweep-and-persist rounds against the shared DB — identical
    grids, so both processes race on the very same files every round."""
    try:
        entry_counts = []
        for _ in range(ROUNDS):
            db = TuningDB(cache_dir)
            _, fitted = run_tune_sweep(
                pipelines=("chain_scan",), sizes=SIZES, vlens=VLENS,
                jobs=1, db=db, seed=seed,
            )
            entry_counts.append(
                sorted((fp, sorted(table)) for fp, table in fitted.items())
            )
        out_q.put(("ok", seed, entry_counts))
    except BaseException as exc:  # noqa: BLE001 - ship it to the parent
        out_q.put(("error", seed, repr(exc)))


def test_two_processes_share_tuning_db_without_corruption(tmp_path):
    cache_dir = str(tmp_path / "store")
    ctx = mp.get_context("spawn")  # a real second interpreter
    out_q = ctx.Queue()
    procs = [ctx.Process(target=_worker, args=(cache_dir, 0, out_q))
             for _ in range(2)]
    for p in procs:
        p.start()
    outcomes = [out_q.get(timeout=600) for _ in procs]
    for p in procs:
        p.join(timeout=600)
        assert p.exitcode == 0

    assert all(status == "ok" for status, _, _ in outcomes), outcomes
    # counts are data-oblivious: both processes fit identical tables
    (_, _, c1), (_, _, c2) = outcomes
    assert c1 == c2

    # every surviving file is complete, parseable JSON with the full
    # envelope (no torn writes), and no temp files were abandoned
    db = TuningDB(cache_dir)
    files = db.entries()
    assert files, "tuning DB ended up empty"
    for path in files:
        envelope = json.loads(path.read_text())
        assert set(envelope) >= {"schema", "code", "fingerprint", "entries"}
        assert db.load(path.stem) == envelope["entries"]
    assert not list(db.tune_dir.glob("*.tmp.*"))

    # and the surviving DB actually drives a policy
    pol = TunePolicy.load(cache_dir)
    assert not pol._empty
    fp = files[0].stem
    assert pol.choose(fp, 3000, 128, "paper") is not None
