"""Unified primitive registry: one :class:`OpSpec` per SVM primitive.

Before this registry existed every primitive was declared five times —
a strict per-strip kernel (:mod:`repro.svm.elementwise` and friends), a
closed-form NumPy fast path (:mod:`repro.svm.fastpath`), a capture node
kind (:mod:`repro.engine.capture`), a fusion lane recipe
(:mod:`repro.engine.fuse`) and a codegen emitter
(:mod:`repro.engine.codegen`) — and keeping the five in
agreement was manual. Now each primitive is declared exactly once here;
every layer consumes the spec:

* :class:`repro.svm.context.SVM` primitive methods are thin registry
  dispatches (``spec.strict``/``spec.fast`` keyed by variant);
* :class:`repro.engine.capture.PlanBuilder` records the structured node
  kind named by ``spec.node_kinds`` (``tools/check_opspec.py`` fails on
  an engine node kind no op records);
* the fuser and the code generator derive lane recipes from
  :data:`LANE_RECIPES` instead of per-kind if-ladders;
* :meth:`repro.engine.executor.Engine.compile_plan` sums
  ``spec.charge`` over a plan's replayed nodes into its static counter
  profile;
* the batch runner consults ``spec.ragged2d`` (derived from
  ``spec.data_dependent``) to pick the ``ragged`` path;
* ``repro ops`` prints the registry as a tier-support matrix and
  ``tools/check_opspec.py`` fails CI when a public primitive bypasses
  the registry or a spec is missing a kernel or charge profile.

Adding a primitive is now a one-file change: write the strict and fast
kernels and the fast kernel's pure charge function, register an
:class:`OpSpec`, and every tier — eager, capture, fusion, codegen,
batch — picks it up (see ``docs/opspec.md`` for the recipe).

This module must stay **engine-free**: the engine imports the registry
(for :data:`LANE_RECIPES` and batch metadata), so node kinds are plain
strings here and :mod:`repro.engine.ir` maps them to its ``Kind`` enum.

Calling conventions (normalized so the context can dispatch uniformly;
``m`` is the machine, pointers not SVMArrays):

===========  ==========================================================
variant      kernel signature
===========  ==========================================================
``vx``       ``fn(m, n, a, x, lmul)`` — in-place, scalar operand
``vv``       ``fn(m, n, a, b, lmul)`` — in-place, vector operand
``cmp``      ``fn(m, n, a, b_or_x, out, lmul)`` — flag vector out
``incl``     ``fn(m, n, src[, head_flags], op, lmul)`` — in-place scan
``excl``     same, exclusive
``""``       the op's own shape (see the kernel's docstring)
===========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

from ..rvv.types import LMUL
from . import elementwise as ew
from . import enumerate_op as en
from . import fastpath as fp
from . import permute_ops as pm
from . import scan as sc
from . import segmented as sg
from .fastpath import _NP_CMP, _UFUNC_VX

__all__ = [
    "OpSpec",
    "OPSPECS",
    "ALIASES",
    "LANE_RECIPES",
    "get_spec",
    "iter_specs",
    "lane_ufunc",
    "support_matrix",
]


@dataclass(frozen=True)
class OpSpec:
    """Everything the execution tiers need to know about one
    primitive.

    ``node_kinds`` maps a dispatch variant (``"vx"``, ``"vv"``,
    ``"incl"``, ``"excl"`` or ``""`` for single-variant ops) to the
    capture node kind's string value; ``strict``/``fast`` map the same
    variants to kernels, and ``charge`` maps them to the fast kernel's
    pure counter charge ``fn(codegen, vlen, n, sew, lmul) -> ((Cat,
    count), ...)`` (pack's survivor-strip term excluded), which the
    engine sums into a plan's static counter profile at compile time.
    ``profile`` names the register-pressure charge profile in
    :data:`repro.rvv.allocation.PROFILES`. ``fuse_role`` is
    ``"lane"`` (strip-fusable elementwise work), ``"tail"`` (an
    inclusive scan that may close a fused group) or ``""`` (replayed
    eagerly between groups). ``data_dependent`` marks charges that
    depend on values (pack's survivor count); the batch flags follow
    from it: a data-oblivious op batches on the plain 2D path
    (``batch2d``), a data-dependent one on the ``"ragged"`` path
    (``ragged2d``: its NumPy body compacts every row of the matrix and
    the runner adds each row's own charge items).
    ``future`` is the label of the :class:`ScalarFuture` the op returns
    under capture, ``composite`` marks derived ops that lower to other
    registered primitives (no kernels of their own), and ``profiled``
    selects the ops wrapped with an observability span.

    ``native`` declares that the op's node kinds lower to C in the
    compiled whole-plan tier (:mod:`repro.engine.native`); every
    registered op does today, pack included (its kernel reports its
    survivor-strip count so the data-dependent charge stays exact). An
    op that cannot lower must set ``native=False`` explicitly —
    ``tools/check_opspec.py`` gates that the flag and the native
    emitter table agree in both directions.
    """

    name: str
    category: str
    node_kinds: Mapping[str, str] = field(default_factory=dict)
    strict: Mapping[str, Callable] = field(default_factory=dict)
    fast: Mapping[str, Callable] = field(default_factory=dict)
    charge: Mapping[str, Callable] = field(default_factory=dict)
    profile: str = ""
    fuse_role: str = ""
    data_dependent: bool = False
    future: str | None = None
    native: bool = True
    composite: bool = False
    aliases: tuple[str, ...] = ()
    profiled: bool = True
    doc: str = ""

    @property
    def fusable(self) -> bool:
        return self.fuse_role in ("lane", "tail")

    @property
    def codegen(self) -> bool:
        """The op runs in the engine's Python unit loop: every op with
        kernels of its own does; a composite lowers to other ops."""
        return not self.composite

    @property
    def batch2d(self) -> bool:
        """Rows batch on the plain 2D path, charged one closed-form
        profile per row."""
        return not self.data_dependent

    @property
    def ragged2d(self) -> bool:
        """Rows batch on the ``"ragged"`` path: one 2D evaluation plus
        each row's own data-dependent charge items."""
        return self.data_dependent


#: name → spec, in declaration order (the order drives ``repro ops``
#: and the instrumentation list in :mod:`repro.svm.context`).
OPSPECS: dict[str, OpSpec] = {}

#: alias → canonical name (``plus_scan`` → ``scan``, ...).
ALIASES: dict[str, str] = {}


def _register(spec: OpSpec) -> None:
    OPSPECS[spec.name] = spec
    for alias in spec.aliases:
        ALIASES[alias] = spec.name


def get_spec(name: str) -> OpSpec:
    """Look up a spec by canonical name or alias."""
    return OPSPECS[ALIASES.get(name, name)]


def iter_specs():
    """All specs in declaration order."""
    return iter(OPSPECS.values())


def support_matrix() -> list[dict]:
    """The tier-support matrix as JSON-ready dicts, one per primitive
    in declaration order — the machine-readable form of ``repro ops``
    (``repro ops --json``) and the serving daemon's ``ops`` request.

    ``fuse`` is the spec's role (``"lane"``/``"tail"``), ``"lowered"``
    for composites (they expand into other primitives at capture), or
    None for ops replayed eagerly between fused groups.
    """
    rows = []
    for spec in iter_specs():
        rows.append({
            "op": spec.name,
            "category": spec.category,
            "composite": spec.composite,
            "strict": bool(spec.strict),
            "fast": bool(spec.fast),
            "fuse": "lowered" if spec.composite else (spec.fuse_role or None),
            "codegen": spec.codegen,
            "native": bool(spec.native) and not spec.composite,
            "batch2d": bool(spec.batch2d) and not spec.composite,
            "ragged2d": bool(spec.ragged2d) and not spec.composite,
            "data_dependent": spec.data_dependent,
            "aliases": list(spec.aliases),
        })
    return rows


# ---------------------------------------------------------------------------
# signature-normalizing fast-path closures
# ---------------------------------------------------------------------------

def _fast_vx(kernel: str):
    def fast(m, n, a, x, lmul=LMUL.M1):
        fp.fast_elementwise_vx(m, kernel, n, a, x, lmul)
    fast.__name__ = f"fast_{kernel}"
    return fast


def _fast_vv(kernel: str):
    def fast(m, n, a, b, lmul=LMUL.M1):
        fp.fast_elementwise_vv(m, kernel, n, a, b, lmul)
    fast.__name__ = f"fast_{kernel}_vv"
    return fast


def _fast_cmp_vv(which: str):
    def fast(m, n, a, b, out, lmul=LMUL.M1):
        fp.fast_cmp_vv(m, which, n, a, b, out, lmul)
    fast.__name__ = f"fast_p_{which}"
    return fast


def _fast_cmp_vx(which: str):
    def fast(m, n, a, x, out, lmul=LMUL.M1):
        fp.fast_cmp_vx(m, which, n, a, x, out, lmul)
    fast.__name__ = f"fast_p_{which}_vx"
    return fast


# ---------------------------------------------------------------------------
# the registry (declaration order == the profiled-method order)
# ---------------------------------------------------------------------------

_EW_DOCS = {
    "p_add": "p-add: ``a += x`` (scalar broadcast or elementwise vector).",
    "p_sub": "p-sub: ``a -= x``.",
    "p_mul": "p-mul: ``a *= x`` (low product).",
    "p_and": "p-and: ``a &= x``.",
    "p_or": "p-or: ``a |= x``.",
    "p_xor": "p-xor: ``a ^= x``.",
    "p_max": "p-max: ``a = max(a, x)`` (unsigned).",
    "p_min": "p-min: ``a = min(a, x)`` (unsigned).",
}

for _name, _doc in _EW_DOCS.items():
    _register(OpSpec(
        name=_name,
        category="elementwise",
        node_kinds={"vx": "ew_vx", "vv": "ew_vv"},
        strict={"vx": getattr(ew, _name), "vv": getattr(ew, f"{_name}_vv")},
        fast={"vx": _fast_vx(_name), "vv": _fast_vv(_name)},
        charge={"vx": partial(fp.charge_vx, kernel=_name),
                "vv": partial(fp.charge_vv, kernel=_name)},
        profile="elementwise",
        fuse_role="lane",
        doc=_doc,
    ))
del _name, _doc

for _name, _doc in (
    ("p_srl", "p-srl: ``a >>= x`` (logical; scalar shift only)."),
    ("p_sll", "p-sll: ``a <<= x`` (scalar shift only)."),
):
    _register(OpSpec(
        name=_name,
        category="elementwise",
        node_kinds={"vx": "ew_vx"},
        strict={"vx": getattr(ew, _name)},
        fast={"vx": _fast_vx(_name)},
        charge={"vx": partial(fp.charge_vx, kernel=_name)},
        profile="elementwise",
        fuse_role="lane",
        doc=_doc,
    ))
del _name, _doc

_register(OpSpec(
    name="p_select",
    category="elementwise",
    node_kinds={"": "select"},
    strict={"": ew.p_select},
    fast={"": fp.fast_p_select},
    charge={"": fp.charge_p_select},
    profile="elementwise",
    doc="p-select: ``b[i] = a[i] where flags[i] else b[i]``.",
))

_register(OpSpec(
    name="get_flags",
    category="elementwise",
    node_kinds={"": "get_flags"},
    strict={"": ew.get_flags},
    fast={"": fp.fast_get_flags},
    charge={"": fp.charge_get_flags},
    profile="elementwise",
    fuse_role="lane",
    doc="Extract bit ``bit`` of each element into a 0/1 flag vector.",
))

_CMP_DOCS = {
    "lt": "Flag compare: ``out[i] = (a[i] < b[i or scalar])`` (unsigned).",
    "le": "Flag compare: ``a <= b``.",
    "gt": "Flag compare: ``a > b``.",
    "ge": "Flag compare: ``a >= b``.",
    "eq": "Flag compare: ``a == b``.",
    "ne": "Flag compare: ``a != b``.",
}

for _which, _doc in _CMP_DOCS.items():
    _register(OpSpec(
        name=f"p_{_which}",
        category="elementwise",
        node_kinds={"vx": "cmp_vx", "vv": "cmp_vv"},
        strict={"vv": getattr(ew, f"p_{_which}"),
                "vx": getattr(ew, f"p_{_which}_vx")},
        fast={"vv": _fast_cmp_vv(_which), "vx": _fast_cmp_vx(_which)},
        charge={"vv": fp.charge_cmp_vv,
                "vx": partial(fp.charge_cmp_vx, ge=_which == "ge")},
        profile="elementwise",
        fuse_role="lane",
        doc=_doc,
    ))
del _which, _doc

_register(OpSpec(
    name="scan",
    category="scan",
    node_kinds={"incl": "scan", "excl": "scan"},
    strict={"incl": sc.scan, "excl": sc.scan_exclusive},
    fast={"incl": fp.fast_scan,
          "excl": partial(fp.fast_scan, inclusive=False)},
    charge={"incl": partial(fp.charge_scan, exclusive=False),
            "excl": partial(fp.charge_scan, exclusive=True)},
    profile="plus_scan",
    fuse_role="tail",  # inclusive scans close a fused group; exclusive replays
    aliases=("plus_scan", "scan_exclusive"),
    doc="⊕-scan of ``a`` in place (inclusive by default).",
))

_register(OpSpec(
    name="seg_scan",
    category="scan",
    node_kinds={"incl": "seg_scan", "excl": "seg_scan"},
    strict={"incl": sg.seg_scan, "excl": sg.seg_scan_exclusive},
    fast={"incl": fp.fast_seg_scan,
          "excl": partial(fp.fast_seg_scan, inclusive=False)},
    charge={"incl": partial(fp.charge_seg_scan, exclusive=False),
            "excl": partial(fp.charge_seg_scan, exclusive=True)},
    profile="seg_scan",
    aliases=("seg_plus_scan",),
    doc="Segmented ⊕-scan of ``a`` under ``head_flags``, in place.",
))

_register(OpSpec(
    name="permute",
    category="permutation",
    node_kinds={"": "permute"},
    strict={"": pm.permute},
    fast={"": fp.fast_permute},
    charge={"": fp.charge_permute},
    profile="permute",
    doc="Out-of-place permute: ``out[index[i]] = src[i]`` (Listing 5).",
))

_register(OpSpec(
    name="back_permute",
    category="permutation",
    node_kinds={"": "back_permute"},
    strict={"": pm.back_permute},
    fast={"": fp.fast_back_permute},
    charge={"": fp.charge_permute},
    profile="permute",
    doc="Gather: ``out[i] = src[index[i]]``.",
))

_register(OpSpec(
    name="pack",
    category="permutation",
    node_kinds={"": "pack"},
    strict={"": pm.pack},
    fast={"": fp.fast_pack},
    charge={"": fp.charge_pack},  # + PACK_VARIABLE per survivor strip
    profile="permute",
    data_dependent=True,  # charge depends on the survivor distribution
    future="pack.kept",
    doc="Stream compaction: keep flagged elements, preserving order.",
))

_register(OpSpec(
    name="enumerate",
    category="derived",
    node_kinds={"": "enumerate"},
    strict={"": en.enumerate_op},
    fast={"": fp.fast_enumerate},
    charge={"": fp.charge_enumerate},
    profile="enumerate",
    future="enumerate.count",
    doc="Enumerate (Listing 8): rank positions whose flag equals "
        "``set_bit``.",
))

_register(OpSpec(
    name="index_array",
    category="elementwise",
    node_kinds={"": "index"},
    strict={"": ew.p_index},
    fast={"": fp.fast_index},
    charge={"": fp.charge_index},
    profile="elementwise",
    doc="Blelloch's index primitive: the vector ``[0, 1, ..., n-1]``.",
))

_register(OpSpec(
    name="p_rsub",
    category="elementwise",
    node_kinds={"vx": "ew_vx"},
    strict={"vx": ew.p_rsub},
    fast={"vx": fp.fast_rsub},
    charge={"vx": partial(fp.charge_vx, kernel="p_add")},  # p_add's loop
    profile="elementwise",
    fuse_role="lane",
    doc="Reverse subtract in place: ``a[i] = x - a[i]``.",
))

_register(OpSpec(
    name="reduce",
    category="scan",
    node_kinds={"": "reduce"},
    strict={"": ew.reduce},
    fast={"": fp.fast_reduce},
    charge={"": fp.charge_reduce},
    profile="elementwise",
    future="reduce",
    doc="Full ⊕-reduction of ``a`` to a scalar.",
))

_register(OpSpec(
    name="shift1up",
    category="permutation",
    node_kinds={"": "shift1up"},
    strict={"": ew.shift1up},
    fast={"": fp.fast_shift1up},
    charge={"": fp.charge_shift1up},
    profile="elementwise",
    doc="Whole-array shift by one lane: ``out[0] = fill``, "
        "``out[i] = src[i-1]``.",
))

_register(OpSpec(
    name="copy",
    category="permutation",
    node_kinds={"": "copy"},
    strict={"": ew.copy},
    fast={"": fp.fast_copy},
    charge={"": fp.charge_copy},
    profile="elementwise",
    doc="Vector memcpy: a strip-mined vle/vse loop.",
))

# ---- composites: lower to other registered primitives --------------------

_register(OpSpec(
    name="reverse",
    category="derived",
    composite=True,
    profiled=False,
    doc="Reverse via index_array + p_rsub + back_permute.",
))

_register(OpSpec(
    name="split",
    category="derived",
    composite=True,
    profiled=False,
    doc="Split (Listing 7): stable partition by flags via enumerate ×2 "
        "+ p_add + p_select + permute.",
))


# ---------------------------------------------------------------------------
# fusion lane recipes (consumed by repro.engine.fuse / .codegen)
# ---------------------------------------------------------------------------

#: node-kind value → tuple of ``(lane_kind, op_override, const)``: the
#: strip lanes one captured node contributes to a fused group. ``op``
#: defaults to the node's own op; ``const`` is a structural scalar
#: baked at code-generation time (get_flags' ``& 1``).
LANE_RECIPES: dict[str, tuple[tuple[str, str | None, int | None], ...]] = {
    "ew_vx": (("vx", None, None),),
    "ew_vv": (("vv", None, None),),
    "cmp_vx": (("cmp_vx", None, None),),
    "cmp_vv": (("cmp_vv", None, None),),
    "get_flags": (("vx", "p_srl", None), ("vx", "p_and", 1)),
}


def lane_ufunc(lane_kind: str, op: str):
    """The NumPy kernel applied per strip for one lane of a fused
    group — compare lanes resolve through :data:`_NP_CMP`, arithmetic
    lanes through :data:`_UFUNC_VX`."""
    if lane_kind.startswith("cmp"):
        return _NP_CMP[op]
    return _UFUNC_VX[op]
