"""CI probe: prove the persistent plan cache warms across processes.

Run with ``REPRO_CACHE_DIR`` set. Phase ``cold`` executes a pipeline
(the compiled plan is persisted as a side effect) and saves the result
bits; phase ``warm`` re-runs the identical pipeline in a *fresh
process* and asserts (a) the output is bit-identical, (b) the plan was
served from the on-disk store, and (c) no capture-analysis /
fuse / codegen work happened — no ``plan.compile`` span
and no ``codegen.compile`` event in the profile.

    REPRO_CACHE_DIR=/tmp/cache python tools/ci_warm_cache.py cold --ref /tmp/ref.npy
    REPRO_CACHE_DIR=/tmp/cache python tools/ci_warm_cache.py warm --ref /tmp/ref.npy
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro import SVM
from repro.rvv.types import LMUL

N = 5000


def _pipeline(profile: bool, backend: str = "codegen"):
    svm = SVM(vlen=512, codegen="paper", mode="fast", backend=backend,
              profile=profile)
    data = svm.array(np.arange(N, dtype=np.uint32))
    with svm.lazy() as lz:
        lz.p_add(data, 10, lmul=LMUL.M2)
        lz.p_mul(data, 3, lmul=LMUL.M2)
        lz.plus_scan(data, lmul=LMUL.M2)
    return data.to_numpy(), svm


def _span_names(span, out):
    out.add(span["name"])
    for child in span.get("children", ()):
        _span_names(child, out)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=["cold", "warm"])
    parser.add_argument("--ref", required=True,
                        help="path of the .npy reference written by cold")
    parser.add_argument("--backend", default="codegen",
                        choices=["codegen", "native", "native-speed"],
                        help="execution backend; 'native' additionally "
                             "proves the compiled C artifacts persist "
                             "next to the plan entries")
    args = parser.parse_args()

    if not os.environ.get("REPRO_CACHE_DIR"):
        print("error: REPRO_CACHE_DIR must be set", file=sys.stderr)
        return 2

    native = args.backend in ("native", "native-speed")

    if args.phase == "cold":
        out, svm = _pipeline(profile=False, backend=args.backend)
        store = svm.engine.store
        assert store is not None, "persistent store not configured"
        entries = store.entries()
        assert len(entries) == 1, f"expected 1 store entry, got {len(entries)}"
        if native:
            from repro.engine.native import native_available

            assert native_available(), "native CI job found no C toolchain"
            arts = store.native_artifacts()
            kinds = sorted(p.suffix for p in arts)
            assert kinds == [".c", ".so"], (
                f"expected one .c/.so artifact pair, got {arts}")
        np.save(args.ref, out)
        print(f"cold: persisted 1 compiled plan "
              f"({entries[0].stat().st_size} bytes), ref -> {args.ref}")
        return 0

    ref = np.load(args.ref)
    out, svm = _pipeline(profile=True, backend=args.backend)
    assert np.array_equal(out, ref), "warm run is not bit-identical"

    store = svm.engine.store
    assert store.hits == 1 and store.misses == 0, (
        f"expected a pure disk hit, got hits={store.hits} "
        f"misses={store.misses}")

    collector = svm.profiler
    collector.finish()
    doc = collector.to_json()
    names = _span_names(doc["profile"], set())
    assert "plan.compile" not in names, "warm run compiled anyway"
    assert not any(e["name"] == "codegen.compile" for e in doc["events"]), (
        "warm run ran codegen anyway")
    assert doc["metrics"].get("engine.plan_cache.disk_hits") == 1
    if native:
        # the lowered C source rode inside the persisted envelope: the
        # disk-served plan carries a ready NativePlan, not a re-lower
        from repro.engine.native import NativePlan

        assert isinstance(svm.engine.last_fused.native, NativePlan), (
            "disk-served plan lost its native lowering")
    print("warm: bit-identical, served from disk, no compile work")
    return 0


if __name__ == "__main__":
    sys.exit(main())
