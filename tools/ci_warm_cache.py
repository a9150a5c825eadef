"""CI probe: prove the native C artifacts warm across processes.

Run with ``REPRO_CACHE_DIR`` set and a C toolchain present. Phase
``cold`` runs a pipeline on the native backend — lowering it and
compiling its ``<digest>.c`` / ``<digest>.so`` pair under
``<cache_dir>/native/`` — and saves the result bits. Phase ``warm``
re-runs the identical pipeline in a *fresh process* and asserts that
(a) the output is bit-identical and the per-category counters equal
the codegen tier's, (b) the plan resolved ``disk``:
its ``.so`` was bound from the cache directory without running
``cc``, (c) nothing under ``native/`` is new or rewritten (same file
names, same ``.so`` mtimes), (d) the same pipeline at a second
length still leaves one artifact pair: the C source depends on the
pipeline's structure, not its shape, and (e) the native run left
``heap.live_bytes`` at its pre-call value: the temporary it frees is
released.

    REPRO_CACHE_DIR=/tmp/cache python tools/ci_warm_cache.py cold --ref /tmp/ref.npy
    REPRO_CACHE_DIR=/tmp/cache python tools/ci_warm_cache.py warm --ref /tmp/ref.npy
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import SVM
from repro.config import env_cache_dir
from repro.engine.native import NativePlan, artifacts, native_available
from repro.rvv.types import LMUL

N = 5000
#: A second length for the warm phase: a new plan, same C source.
N2 = 3001


def _pipeline(backend: str = "native", n: int = N):
    """Run the probe pipeline; returns (result, svm, live bytes before
    the call)."""
    svm = SVM(vlen=512, codegen="paper", mode="fast", backend=backend)
    data = svm.array(np.arange(n, dtype=np.uint32))
    svm.reset()
    live = svm.machine.heap.live_bytes
    with svm.lazy() as lz:
        lz.p_add(data, 10, lmul=LMUL.M2)
        tmp = lz.copy(data, lmul=LMUL.M2)
        lz.p_mul(data, tmp, lmul=LMUL.M2)
        lz.free(tmp)
        lz.plus_scan(data, lmul=LMUL.M2)
    return data.to_numpy(), svm, live


def _counts(svm) -> dict:
    return {c: k for c, k in
            svm.machine.counters.snapshot().by_category.items() if k}


def _snapshot(root: str) -> dict:
    """Artifact name -> mtime (ns) of everything under ``native/``."""
    return {p.name: p.stat().st_mtime_ns for p in artifacts(root)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=["cold", "warm"])
    parser.add_argument("--ref", required=True,
                        help="path of the .npy reference written by cold")
    args = parser.parse_args()

    root = env_cache_dir()
    if not root:
        print("error: REPRO_CACHE_DIR must be set", file=sys.stderr)
        return 2
    assert native_available(), "no C toolchain found"

    if args.phase == "cold":
        out, svm, _ = _pipeline()
        assert svm.engine.resolutions["compile"] == 1, svm.engine.resolutions
        kinds = sorted(p.suffix for p in artifacts(root))
        assert kinds == [".c", ".so"], (
            f"expected one .c/.so artifact pair, got {artifacts(root)}")
        np.save(args.ref, out)
        print(f"cold: built 1 native artifact pair, ref -> {args.ref}")
        return 0

    ref = np.load(args.ref)
    before = _snapshot(root)
    out, svm, live = _pipeline()
    assert np.array_equal(out, ref), "warm run is not bit-identical"
    assert svm.engine.resolutions == {"memory": 0, "disk": 1, "compile": 0}, (
        f"expected a disk resolution, got {svm.engine.resolutions}")
    native = svm.engine.last_fused.native
    assert isinstance(native, NativePlan) and not native.built, (
        "warm run did not bind the persisted artifact")
    assert svm.machine.heap.live_bytes == live, (
        f"native run left {svm.machine.heap.live_bytes - live} bytes allocated")
    _, ref_svm, _ = _pipeline("codegen")
    assert _counts(svm) == _counts(ref_svm), "counters differ from codegen"
    assert _snapshot(root) == before, "warm run wrote under native/"

    # a new length compiles a new plan but reuses the C artifact
    _, svm2, _ = _pipeline(n=N2)
    assert svm2.engine.resolutions["disk"] == 1, svm2.engine.resolutions
    assert _snapshot(root) == before, "a second length built a new artifact"
    print("warm: bit-identical, .so bound from disk, no cc, no new files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
