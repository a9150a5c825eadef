"""Unified primitive registry: one :class:`OpSpec` per SVM primitive,
one :class:`Signature` per node kind.

Before this registry existed every primitive was declared five times —
a strict per-strip kernel (:mod:`repro.svm.elementwise` and friends), a
closed-form NumPy fast path (:mod:`repro.svm.fastpath`), a capture node
kind (:mod:`repro.engine.capture`), a fusion lane recipe
(:mod:`repro.engine.fuse`) and a codegen emitter
(:mod:`repro.engine.codegen`) — and keeping the five in
agreement was manual. Now each primitive is declared once here, and
every layer consumes the spec:

* :class:`repro.engine.capture.PlanBuilder` records the structured node
  kind named by ``spec.node_kinds`` (``tools/check_opspec.py`` fails on
  an engine node kind no op records); the
  :class:`repro.svm.context.SVM` primitives are its records run at once
  by the engine's node step (``spec.strict`` or the kind's NumPy body,
  keyed by variant), with ``spec.doc`` as their docstrings;
* the fuser and the code generator derive lane recipes from
  :data:`LANE_RECIPES` instead of per-kind if-ladders;
* :meth:`repro.engine.executor.Engine.compile_plan` sums
  ``spec.charge`` over a plan's other nodes into its static counter
  profile;
* the batch runner consults ``spec.ragged2d`` (derived from
  ``spec.data_dependent``) to pick the ``ragged`` path;
* ``repro ops`` prints the registry as a tier-support matrix and
  ``tools/check_opspec.py`` fails CI when a public primitive bypasses
  the registry or a spec is missing a kernel or charge profile.

Each node kind's operand convention is declared once, as data, in
:data:`SIGNATURES`: its operand roles in the strict kernel's order,
its destination mode and its NumPy body. The engine's strict and
NumPy node calls, which run every eager and lazy node, and its read
and write sets derive from it, and ``tools/check_opspec.py`` holds
every strict kernel and body to it. A primitive that fits an existing kind
is a strict kernel, a pure charge function and one :class:`OpSpec`
(see ``docs/opspec.md`` for the recipe); a new kind also needs its
table entry, its capture record and its native emitter.

This module must stay **engine-free**: the engine imports the registry
(for :data:`SIGNATURES`, :data:`LANE_RECIPES` and batch metadata), so
node kinds are plain strings here and :mod:`repro.engine.ir` maps them
to its ``Kind`` enum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

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
    "SIGNATURES",
    "Signature",
    "get_spec",
    "iter_specs",
    "lane_ufunc",
    "node_op",
    "support_matrix",
]


@dataclass(frozen=True)
class OpSpec:
    """Everything the execution tiers need to know about one
    primitive.

    ``node_kinds`` maps a dispatch variant (``"vx"``, ``"vv"``,
    ``"incl"``, ``"excl"`` or ``""`` for single-variant ops) to the
    capture node kind's string value; ``strict`` maps the same variants
    to strict kernels, called ``fn(m, n, *operands, lmul)`` with the
    operands in the kind's :data:`SIGNATURES` role order, and
    ``charge`` maps them to the fast path's pure counter charge
    ``fn(codegen, vlen, n, sew, lmul) -> ((Cat, count), ...)`` (pack's
    survivor-strip term excluded), which the engine sums into a plan's
    static counter profile at compile time.
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
    under capture and ``composite`` marks derived ops that lower to
    other registered primitives (no kernels of their own).

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
    charge: Mapping[str, Callable] = field(default_factory=dict)
    profile: str = ""
    fuse_role: str = ""
    data_dependent: bool = False
    future: str | None = None
    native: bool = True
    composite: bool = False
    aliases: tuple[str, ...] = ()
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


@dataclass(frozen=True)
class Signature:
    """One node kind's operand convention.

    ``roles`` names, in one order, the strict kernel's positional
    operands after ``(m, n)`` and before ``lmul`` and the NumPy body's
    positional parameters: ``dst``, ``src`` and ``operand`` are the
    node's buffers, ``scalar`` its scalar operand (wrapped to the
    element dtype for the body) and ``op`` its ⊕ operator (resolved for
    the body). ``dst`` is the destination mode: ``"rw"`` (read, then
    written), ``"w"`` (overwritten whole), ``"prefix"`` (pack's first
    ``kept`` lanes) or ``""`` (no destination). ``keywords`` are the
    node fields the body takes by keyword: ``op`` names the kernel of a
    kind several ops share, ``inclusive`` a scan's variant. A call
    strip-mines by its ``src`` buffer's length and dtype, else by its
    ``dst``'s (:func:`repro.engine.nodes.node_spec`).
    """

    roles: tuple[str, ...]
    dst: str
    body: Callable
    keywords: tuple[str, ...] = ()

    def at(self, role: str) -> int | None:
        """The position of ``role``, or None when the kind has none."""
        return self.roles.index(role) if role in self.roles else None


#: node-kind value → its :class:`Signature`, for every kind but
#: ``free`` (``tools/check_opspec.py`` holds each strict kernel and
#: body to its entry).
SIGNATURES: dict[str, Signature] = {
    "ew_vx": Signature(("dst", "scalar"), "rw", fp.np_elementwise, ("op",)),
    "ew_vv": Signature(("dst", "operand"), "rw", fp.np_elementwise, ("op",)),
    "cmp_vx": Signature(("src", "scalar", "dst"), "w", fp.np_compare, ("op",)),
    "cmp_vv": Signature(("src", "operand", "dst"), "w", fp.np_compare, ("op",)),
    "get_flags": Signature(("src", "dst", "scalar"), "w", fp.np_get_flags),
    "scan": Signature(("dst", "op"), "rw", fp.np_scan, ("inclusive",)),
    "select": Signature(("operand", "src", "dst"), "rw", fp.np_select),
    "seg_scan": Signature(("dst", "operand", "op"), "rw", fp.np_seg_scan,
                          ("inclusive",)),
    "permute": Signature(("src", "dst", "operand"), "rw", fp.np_permute),
    "back_permute": Signature(("src", "dst", "operand"), "w",
                              fp.np_back_permute),
    "pack": Signature(("src", "dst", "operand"), "prefix", fp.np_pack),
    "enumerate": Signature(("src", "dst", "scalar"), "w", fp.np_enumerate),
    "reduce": Signature(("src", "op"), "", fp.np_reduce),
    "shift1up": Signature(("src", "dst", "scalar"), "w", fp.np_shift1up),
    "copy": Signature(("src", "dst"), "w", fp.np_copy),
    "index": Signature(("dst",), "w", fp.np_index),
}

#: The roles that name a buffer.
VECTOR_ROLES = frozenset(("dst", "src", "operand"))


def node_op(spec: OpSpec) -> str:
    """The ``op`` a node of ``spec`` records when its kind is shared
    (its body takes ``op`` by keyword): the op's name, or a flag
    compare's relation alone (``p_lt`` records ``lt``)."""
    return spec.name[2:] if "cmp_vv" in spec.node_kinds.values() else spec.name


#: name → spec, in declaration order (the order drives ``repro ops``).
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
            "fast": not spec.composite,
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
# the registry
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
    charge={"": fp.charge_p_select},
    profile="elementwise",
    doc="p-select: ``b[i] = a[i] where flags[i] else b[i]``.",
))

_register(OpSpec(
    name="get_flags",
    category="elementwise",
    node_kinds={"": "get_flags"},
    strict={"": ew.get_flags},
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
    charge={"": fp.charge_permute},
    profile="permute",
    doc="Out-of-place permute: ``out[index[i]] = src[i]`` (Listing 5).",
))

_register(OpSpec(
    name="back_permute",
    category="permutation",
    node_kinds={"": "back_permute"},
    strict={"": pm.back_permute},
    charge={"": fp.charge_permute},
    profile="permute",
    doc="Gather: ``out[i] = src[index[i]]``.",
))

_register(OpSpec(
    name="pack",
    category="permutation",
    node_kinds={"": "pack"},
    strict={"": pm.pack},
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
    charge={"": fp.charge_index},
    profile="elementwise",
    doc="Blelloch's index primitive: the vector ``[0, 1, ..., n-1]``.",
))

_register(OpSpec(
    name="p_rsub",
    category="elementwise",
    node_kinds={"vx": "ew_vx"},
    strict={"vx": ew.p_rsub},
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
    charge={"": fp.charge_copy},
    profile="elementwise",
    doc="Vector memcpy: a strip-mined vle/vse loop.",
))

# ---- composites: lower to other registered primitives --------------------

_register(OpSpec(
    name="reverse",
    category="derived",
    composite=True,
    doc="Reverse via index_array + p_rsub + back_permute.",
))

_register(OpSpec(
    name="split",
    category="derived",
    composite=True,
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
