"""TunePolicy — the dispatch-time consumer of the TuningDB.

The policy answers one question: *for this pipeline at this size,
which LMUL should the plan run at?* — keyed by
(:meth:`~repro.engine.ir.Plan.fingerprint`, size bucket) with the
non-swept context (VLEN, codegen preset) matched exactly. LMUL is the
one tuning axis appliable at dispatch time: it is a per-node tag the
engine specializes on, whereas vlen/backend are fixed per context
(they select a machine / an execution tier at construction).

Cost model: :meth:`TunePolicy.apply` is memoized per (fingerprint,
bucket, vlen, codegen) — the warm path is one fingerprint hash plus
one dict probe, and an *empty* policy (no tuning files on disk)
short-circuits before even that. ``repro serve`` therefore enables
tuning unconditionally-safely: a request whose shape was never swept
runs exactly as without tuning.

Safety: the policy only retags a plan whose nodes all carry the
context's *default* LMUL — a pipeline that set any explicit per-call
``lmul=`` is treated as hand-tuned and left alone. Retagging happens
before the plan-cache key is computed, so a tuned plan shares cache
entries (and is bit- and counter-identical) with an SVM pinned to the
chosen config.
"""

from __future__ import annotations

from ..engine.ir import Kind, Plan
from ..rvv.types import LMUL
from .db import TuningDB, entry_key

__all__ = ["TunePolicy", "fit_policy", "n_bucket"]


def n_bucket(n: int) -> int:
    """The power-of-two size bucket of a problem size: ``n.bit_length()``
    (0, 1, 2 → buckets 0, 1, 2; 1000 → 10; 3000 → 12). Counts are
    piecewise-linear in the strip count, so the per-octave resolution
    is enough to separate the spill/strip crossover the paper's Tables
    5-6 document."""
    return max(0, int(n)).bit_length()


def fit_policy(points) -> dict[str, dict[str, dict]]:
    """Fit measurements into TuningDB entry tables.

    ``points`` is an iterable of dicts (the :func:`repro.tune.sweep.
    tune_cell` result shape: fingerprint, n, vlen, codegen, lmul,
    instructions, config). Returns ``{fingerprint: {entry_key:
    record}}`` keeping, per (fingerprint, vlen, codegen, bucket), the
    measurement with the fewest instructions — ties to the smaller
    LMUL, matching :func:`repro.tune.advisor.choose_lmul`.
    """
    fitted: dict[str, dict[str, dict]] = {}
    for pt in points:
        fp = pt["fingerprint"]
        key = entry_key(pt["vlen"], pt["codegen"], n_bucket(pt["n"]))
        record = {
            "lmul": int(pt["lmul"]),
            "instructions": int(pt["instructions"]),
            "n": int(pt["n"]),
            "config": pt.get("config", {}),
        }
        table = fitted.setdefault(fp, {})
        best = table.get(key)
        if (
            best is None
            or record["instructions"] < best["instructions"]
            or (record["instructions"] == best["instructions"]
                and record["lmul"] < best["lmul"])
        ):
            table[key] = record
    return fitted


class TunePolicy:
    """Bucketed-n nearest-shape lookup over a :class:`TuningDB`.

    Construct directly from a DB (tests hand in a prepared one) or via
    :meth:`load` from a cache directory — the ``SVM(tune="auto")``
    path. All reads are lazy and memoized; the policy never writes.
    """

    def __init__(self, db: TuningDB | None) -> None:
        self.db = db
        #: (fingerprint, vlen, codegen, bucket) -> LMUL | None
        self._memo: dict[tuple, LMUL | None] = {}
        #: fingerprint -> raw entry table (lazy per-fingerprint load)
        self._tables: dict[str, dict] = {}
        # no DB or no resident files: permanently empty, zero-cost
        self._empty = db is None or not db.entries()

    @classmethod
    def load(cls, root) -> "TunePolicy":
        """The policy stored under cache directory ``root`` (empty —
        a no-op at dispatch — when nothing was ever swept there)."""
        return cls(TuningDB(root))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _table(self, fingerprint: str) -> dict:
        table = self._tables.get(fingerprint)
        if table is None:
            table = self.db.load(fingerprint) if self.db is not None else {}
            self._tables[fingerprint] = table
        return table

    def choose(self, fingerprint: str, n: int, vlen: int,
               codegen: str) -> LMUL | None:
        """The learned LMUL for this shape, or None (no opinion).
        Exact-bucket match first, then the nearest swept bucket of the
        same (vlen, codegen) — nearest in octaves, ties downward (the
        smaller-n entry is the spill-safe side of the crossover)."""
        bucket = n_bucket(n)
        memo_key = (fingerprint, int(vlen), codegen, bucket)
        if memo_key in self._memo:
            return self._memo[memo_key]
        choice = self._choose_uncached(fingerprint, bucket, vlen, codegen)
        self._memo[memo_key] = choice
        return choice

    def _choose_uncached(self, fingerprint: str, bucket: int, vlen: int,
                         codegen: str) -> LMUL | None:
        table = self._table(fingerprint)
        if not table:
            return None
        record = table.get(entry_key(vlen, codegen, bucket))
        if record is None:
            prefix = f"{int(vlen)}:{codegen}:"
            candidates = []
            for key, rec in table.items():
                if key.startswith(prefix):
                    try:
                        candidates.append((int(key[len(prefix):]), rec))
                    except ValueError:
                        continue
            if not candidates:
                return None
            _, record = min(
                candidates, key=lambda kv: (abs(kv[0] - bucket), kv[0])
            )
        try:
            return LMUL(int(record["lmul"]))
        except Exception:
            return None

    # ------------------------------------------------------------------
    # dispatch hook
    # ------------------------------------------------------------------
    def apply(self, plan: Plan, svm) -> LMUL | None:
        """Consult the policy for ``plan`` and retag its LMUL in place;
        returns the applied LMUL or None when the policy stood down.

        Called by :meth:`repro.engine.Engine.fused_for` before the
        plan-cache key is computed. Stands down when the policy is
        empty, the plan carries any explicit per-call LMUL, or the
        learned choice equals the context default.
        """
        if self._empty:
            return None
        base = svm.lmul
        # FREE carries no execution, so the policy never retags it
        nodes = [nd for nd in plan.nodes if nd.kind is not Kind.FREE]
        if not nodes or any(nd.lmul != base for nd in nodes):
            return None
        choice = self.choose(
            plan.fingerprint(), plan.max_n(),
            svm.machine.vlen, svm.machine.codegen.name,
        )
        if choice is None or choice == base:
            return None
        for nd in nodes:
            nd.lmul = choice
        # the capture-time key carries the old LMUL
        plan.invalidate()
        return choice
