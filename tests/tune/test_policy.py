"""TunePolicy units: bucketing, fitting, lookup, and the apply guard.

The policy is the zero-cost dispatch consumer of the TuningDB: these
tests pin its fit rule (argmin instructions, ties to the smaller
LMUL), the nearest-bucket fallback (min |Δoctave|, ties downward), and
every stand-down condition of :meth:`TunePolicy.apply`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SVM
from repro.rvv.types import LMUL
from repro.tune import TunePolicy, TuningDB, fit_policy, n_bucket
from repro.tune.db import entry_key


def point(fp="fp0", n=1000, vlen=128, codegen="paper", lmul=1, instructions=100):
    return {"fingerprint": fp, "n": n, "vlen": vlen, "codegen": codegen,
            "lmul": lmul, "instructions": instructions, "config": {}}


class TestBucketing:
    @pytest.mark.parametrize("n,bucket", [
        (0, 0), (1, 1), (2, 2), (3, 2), (64, 7),
        (1000, 10), (3000, 12), (100000, 17),
    ])
    def test_n_bucket(self, n, bucket):
        assert n_bucket(n) == bucket

    def test_negative_clamped(self):
        assert n_bucket(-5) == 0


class TestFitPolicy:
    def test_argmin_instructions(self):
        fitted = fit_policy([
            point(lmul=1, instructions=300),
            point(lmul=4, instructions=100),
            point(lmul=8, instructions=200),
        ])
        key = entry_key(128, "paper", n_bucket(1000))
        assert fitted["fp0"][key]["lmul"] == 4
        assert fitted["fp0"][key]["instructions"] == 100

    def test_tie_goes_to_smaller_lmul(self):
        fitted = fit_policy([
            point(lmul=8, instructions=100),
            point(lmul=2, instructions=100),
        ])
        key = entry_key(128, "paper", n_bucket(1000))
        assert fitted["fp0"][key]["lmul"] == 2

    def test_separate_buckets_and_fingerprints(self):
        fitted = fit_policy([
            point(fp="a", n=64, lmul=1, instructions=10),
            point(fp="a", n=3000, lmul=8, instructions=10),
            point(fp="b", n=64, lmul=4, instructions=10),
        ])
        assert set(fitted) == {"a", "b"}
        assert len(fitted["a"]) == 2
        assert fitted["a"][entry_key(128, "paper", 7)]["lmul"] == 1
        assert fitted["a"][entry_key(128, "paper", 12)]["lmul"] == 8


class TestChoose:
    def _policy(self, tmp_path, entries, fp="fp0"):
        db = TuningDB(tmp_path)
        db.save(fp, entries)
        return TunePolicy(db)

    def test_exact_bucket(self, tmp_path):
        pol = self._policy(tmp_path, {
            entry_key(128, "paper", 10): {"lmul": 4, "instructions": 1, "n": 1000},
        })
        assert pol.choose("fp0", 1000, 128, "paper") is LMUL.M4

    def test_nearest_bucket_fallback(self, tmp_path):
        pol = self._policy(tmp_path, {
            entry_key(128, "paper", 7): {"lmul": 1, "instructions": 1, "n": 64},
            entry_key(128, "paper", 14): {"lmul": 8, "instructions": 1, "n": 9000},
        })
        # bucket 9 -> distance 2 to 7, 5 to 14: picks the small-n entry
        assert pol.choose("fp0", 400, 128, "paper") is LMUL.M1
        # bucket 13 -> distance 1 to 14: picks the large-n entry
        assert pol.choose("fp0", 5000, 128, "paper") is LMUL.M8

    def test_nearest_tie_goes_downward(self, tmp_path):
        pol = self._policy(tmp_path, {
            entry_key(128, "paper", 8): {"lmul": 1, "instructions": 1, "n": 200},
            entry_key(128, "paper", 12): {"lmul": 8, "instructions": 1, "n": 3000},
        })
        # bucket 10 is equidistant: the smaller (spill-safe) bucket wins
        assert pol.choose("fp0", 1000, 128, "paper") is LMUL.M1

    def test_vlen_and_codegen_matched_exactly(self, tmp_path):
        pol = self._policy(tmp_path, {
            entry_key(128, "paper", 10): {"lmul": 4, "instructions": 1, "n": 1000},
        })
        assert pol.choose("fp0", 1000, 256, "paper") is None
        assert pol.choose("fp0", 1000, 128, "ideal") is None

    def test_unknown_fingerprint(self, tmp_path):
        pol = self._policy(tmp_path, {
            entry_key(128, "paper", 10): {"lmul": 4, "instructions": 1, "n": 1000},
        })
        assert pol.choose("other", 1000, 128, "paper") is None

    def test_garbage_lmul_record_is_no_opinion(self, tmp_path):
        pol = self._policy(tmp_path, {
            entry_key(128, "paper", 10): {"lmul": "eight", "instructions": 1},
        })
        assert pol.choose("fp0", 1000, 128, "paper") is None

    def test_empty_policy_short_circuits(self, tmp_path):
        pol = TunePolicy.load(tmp_path / "never-swept")
        assert pol._empty
        assert pol.choose("fp0", 1000, 128, "paper") is None

    def test_memoized(self, tmp_path):
        db = TuningDB(tmp_path)
        db.save("fp0", {
            entry_key(128, "paper", 10): {"lmul": 4, "instructions": 1, "n": 1000},
        })
        pol = TunePolicy(db)
        assert pol.choose("fp0", 1000, 128, "paper") is LMUL.M4
        loads_after_first = db.hits + db.misses
        for _ in range(10):
            pol.choose("fp0", 1000, 128, "paper")
        assert db.hits + db.misses == loads_after_first  # no re-reads


class TestApply:
    def _plan_for(self, svm, n=1000, lmul=None):
        data = svm.array(np.arange(n, dtype=np.uint32))
        with svm.lazy() as lz:
            lz.p_add(data, 10, lmul=lmul)
            lz.plus_scan(data, lmul=lmul)
        return svm.engine.last_plan

    def _policy_choosing(self, tmp_path, svm, plan, lmul):
        db = TuningDB(tmp_path)
        db.save(plan.fingerprint(), {
            entry_key(svm.machine.vlen, svm.machine.codegen.name,
                      n_bucket(plan.max_n())):
                {"lmul": int(lmul), "instructions": 1, "n": plan.max_n()},
        })
        return TunePolicy(db)

    def test_apply_retags_default_plan(self, tmp_path):
        svm = SVM(vlen=128, codegen="paper", mode="fast")
        plan = self._plan_for(svm)
        pol = self._policy_choosing(tmp_path, svm, plan, LMUL.M8)
        assert pol.apply(plan, svm) is LMUL.M8
        from repro.engine.ir import Kind
        for nd in plan.nodes:
            if nd.kind is not Kind.FREE:
                assert nd.lmul is LMUL.M8

    def test_apply_stands_down_on_explicit_lmul(self, tmp_path):
        svm = SVM(vlen=128, codegen="paper", mode="fast")
        plan = self._plan_for(svm, lmul=LMUL.M2)   # hand-tuned pipeline
        pol = self._policy_choosing(tmp_path, svm, plan, LMUL.M8)
        assert pol.apply(plan, svm) is None
        assert all(nd.lmul is not LMUL.M8 for nd in plan.nodes)

    def test_apply_stands_down_when_choice_is_default(self, tmp_path):
        svm = SVM(vlen=128, codegen="paper", mode="fast")
        plan = self._plan_for(svm)
        pol = self._policy_choosing(tmp_path, svm, plan, svm.lmul)
        assert pol.apply(plan, svm) is None

    def test_apply_stands_down_when_empty(self, tmp_path):
        svm = SVM(vlen=128, codegen="paper", mode="fast")
        plan = self._plan_for(svm)
        assert TunePolicy.load(tmp_path / "nothing").apply(plan, svm) is None


class TestFingerprint:
    """Plan.fingerprint() must ignore exactly the tuning axes."""

    def _plan(self, *, vlen=128, lmul=None, n=500, codegen="paper"):
        svm = SVM(vlen=vlen, codegen=codegen, mode="fast")
        data = svm.array(np.arange(n, dtype=np.uint32))
        with svm.lazy() as lz:
            lz.p_add(data, 10, lmul=lmul)
            lz.plus_scan(data, lmul=lmul)
        return svm.engine.last_plan

    def test_invariant_to_tuning_axes(self):
        base = self._plan()
        assert self._plan(vlen=256).fingerprint() == base.fingerprint()
        assert self._plan(lmul=LMUL.M8).fingerprint() == base.fingerprint()
        assert self._plan(n=9999).fingerprint() == base.fingerprint()

    def test_sensitive_to_structure(self):
        base = self._plan()
        svm = SVM(vlen=128, codegen="paper", mode="fast")
        data = svm.array(np.arange(500, dtype=np.uint32))
        with svm.lazy() as lz:
            lz.p_mul(data, 10)          # different op chain
            lz.plus_scan(data)
        assert svm.engine.last_plan.fingerprint() != base.fingerprint()

    def test_max_n(self):
        assert self._plan(n=500).max_n() == 500
