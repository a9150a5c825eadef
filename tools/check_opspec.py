#!/usr/bin/env python
"""CI gate for the unified OpSpec registry.

Fails (exit 1) when the "declared exactly once" invariant is violated:

1. every public SVM primitive must map to exactly one registered
   :class:`repro.svm.opspec.OpSpec` (by name or alias) — no primitive
   may bypass the registry — and the recorder is the one front end:
   every registered op and alias has a ``PlanBuilder`` recording
   method, and its SVM method is generated from it (the eager
   recorder's method run at once), ``split`` being the one declared
   exception (its eager form charges Listing 7's scratch ``malloc``s,
   which the captured lowering does not); every engine node ``Kind``
   but ``FREE`` is recorded by some registered op (a kind no op
   records is dead IR);
2. every registered non-composite op must carry a strict kernel and
   a pure charge function (``charge``) under the same variant keys,
   and a register-pressure profile that exists in
   ``repro.rvv.allocation.PROFILES`` — the engine sums ``charge`` into
   each plan's static counter profile, so an op without one could not
   be charged (its fast call derives from its node kind's signature);
3. ``repro/svm/context.py`` must not import any kernel module — the
   registry is the only kernel supplier for the dispatch layer (AST
   check, so a sneaky ``from . import elementwise`` fails even if
   unused);
4. registry self-consistency: fusable ops need a lane recipe;
5. native-tier coverage: every non-composite op must either capture
   to node kinds the native backend can emit
   (``repro.engine.native.NATIVE_KINDS``) or declare ``native=False``
   explicitly — an op can never fall out of the compiled tier
   silently, and a stale ``native=False`` on a lowerable op fails too;
6. signatures: every node ``Kind`` but ``FREE`` has an entry in
   ``repro.svm.opspec.SIGNATURES`` (``FREE`` is released by the unit
   loop itself), and each entry matches the code that reads it: its
   roles are known and name ``dst`` at most once, its dst mode agrees
   with whether it names ``dst``, every strict kernel recorded as the
   kind takes ``(m, n)``, one positional parameter per role, then
   ``lmul``, and its NumPy body takes one positional parameter per
   role and exactly the declared keywords (``inspect.signature``) —
   so the engine's strict and NumPy node calls, which pass operands by
   role, cannot misplace one.

Run as ``PYTHONPATH=src python tools/check_opspec.py``.
"""

from __future__ import annotations

import ast
import inspect
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.engine.capture import PlanBuilder  # noqa: E402
from repro.engine.ir import Kind  # noqa: E402
from repro.rvv.allocation import PROFILES  # noqa: E402
from repro.svm import opspec  # noqa: E402
from repro.svm.context import SVM  # noqa: E402

#: Public SVM attributes that are infrastructure, not primitives.
NON_PRIMITIVE = {
    "array", "zeros", "empty", "free",          # array management
    "lazy", "batch", "engine",                  # lazy/batched execution
    "instructions", "counters", "profiler", "reset",  # counters
}

#: Registered primitives whose SVM method is written by hand, not
#: generated from the recorder: the eager split charges Listing 7's
#: scratch ``malloc``s, which the captured lowering does not.
HAND_WRITTEN = {"split"}

#: Kernel-supplying modules the dispatch layer must not import: the
#: registry is the only path from SVM methods to kernels. (split_op is
#: deliberately absent — it is a composition layer that calls back into
#: SVM primitives, not a kernel supplier.)
KERNEL_MODULES = {
    "elementwise", "fastpath",
    "scan", "segmented", "enumerate_op", "permute_ops",
}


def fail(errors: list[str]) -> None:
    for e in errors:
        print(f"check_opspec: {e}", file=sys.stderr)
    if errors:
        sys.exit(1)


def check_public_surface() -> list[str]:
    errors = []
    registered = set(opspec.OPSPECS) | set(opspec.ALIASES)
    for name in dir(SVM):
        if name.startswith("_") or name in NON_PRIMITIVE:
            continue
        if name not in registered:
            errors.append(
                f"public SVM primitive {name!r} bypasses the OpSpec registry"
            )
    for name in sorted(registered):
        record = getattr(PlanBuilder, name, None)
        if not callable(record):
            errors.append(
                f"registered op {name!r} has no PlanBuilder recording method"
            )
        method = getattr(SVM, name, None)
        if method is None:
            errors.append(f"registered op {name!r} has no SVM method")
        elif name in HAND_WRITTEN:
            continue
        elif getattr(method, "__wrapped__", None) is not record:
            errors.append(
                f"SVM.{name} is hand-written — every primitive but "
                f"{sorted(HAND_WRITTEN)} is generated from the recorder"
            )
    recorded = {kind for spec in opspec.iter_specs()
                for kind in spec.node_kinds.values()}
    for kind in Kind:
        if kind is not Kind.FREE and kind.value not in recorded:
            errors.append(
                f"node kind {kind.value!r} is recorded by no registered op "
                "— delete it or register the op that captures to it"
            )
    return errors


def check_specs() -> list[str]:
    errors = []
    for spec in opspec.iter_specs():
        if spec.composite:
            if spec.strict or spec.charge:
                errors.append(
                    f"composite {spec.name!r} must not carry kernels or "
                    "charges (it lowers to other primitives)"
                )
            continue
        if not spec.strict:
            errors.append(f"op {spec.name!r} lacks a strict kernel")
        if set(spec.charge) != set(spec.strict):
            errors.append(
                f"op {spec.name!r}: charge variants {sorted(spec.charge)} "
                f"!= strict variants {sorted(spec.strict)} — every variant "
                "needs the pure charge function its fast call applies"
            )
        if not spec.profile:
            errors.append(f"op {spec.name!r} lacks a counter-charge profile")
        elif spec.profile not in PROFILES:
            errors.append(
                f"op {spec.name!r}: profile {spec.profile!r} not in "
                f"rvv.allocation.PROFILES {sorted(PROFILES)}"
            )
        if spec.fuse_role == "lane":
            for kind in spec.node_kinds.values():
                if kind not in opspec.LANE_RECIPES:
                    errors.append(
                        f"lane op {spec.name!r}: node kind {kind!r} has no "
                        "entry in LANE_RECIPES"
                    )
    return errors


def check_native() -> list[str]:
    """Every non-composite op with codegen metadata must either lower
    into the native tier or carry an explicit ``native=False`` escape
    hatch — and the hatch must be honest (a lowerable op may not hide
    behind a stale ``native=False``)."""
    from repro.engine.native import NATIVE_KINDS

    emittable = {kind.value for kind in NATIVE_KINDS}
    errors = []
    for spec in opspec.iter_specs():
        if spec.composite:
            continue
        lowerable = (bool(spec.node_kinds)
                     and set(spec.node_kinds.values()) <= emittable)
        if spec.native and not lowerable:
            missing = sorted(set(spec.node_kinds.values()) - emittable)
            errors.append(
                f"op {spec.name!r} claims the native tier but captures to "
                f"node kind(s) {missing} the native backend cannot emit — "
                "add a native emitter or declare native=False explicitly"
            )
        if not spec.native and lowerable:
            errors.append(
                f"op {spec.name!r} declares native=False but every node "
                f"kind it captures to is native-emittable — drop the stale "
                "escape hatch"
            )
    return errors


_ROLES = opspec.VECTOR_ROLES | {"scalar", "op"}
_POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY,
               inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _positional(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind in _POSITIONAL]


def check_signatures() -> list[str]:
    errors = []
    table = opspec.SIGNATURES
    for kind in Kind:
        if kind is not Kind.FREE and kind.value not in table:
            errors.append(
                f"node kind {kind.value!r} has no entry in "
                "opspec.SIGNATURES — declare its roles, dst mode and body"
            )
    strict = {}
    for spec in opspec.iter_specs():
        for variant, kind in spec.node_kinds.items():
            if variant in spec.strict:
                strict.setdefault(kind, []).append(spec.strict[variant])
    for kind, sig in table.items():
        where = f"SIGNATURES[{kind!r}]"
        roles = list(sig.roles)
        if kind not in {k.value for k in Kind} or kind == Kind.FREE.value:
            errors.append(f"{where} names no node kind the engine runs")
        if set(roles) - _ROLES or roles.count("dst") > 1:
            errors.append(f"{where}: roles {roles} must be drawn from "
                          f"{sorted(_ROLES)}, dst at most once")
        if sig.dst not in ("rw", "w", "prefix", ""):
            errors.append(f"{where}: unknown dst mode {sig.dst!r}")
        elif ("dst" in roles) != bool(sig.dst):
            errors.append(f"{where}: dst mode {sig.dst!r} disagrees with "
                          f"roles {roles}")
        for fn in strict.get(kind, []):
            params = _positional(fn)
            if (params[:2] != ["m", "n"] or len(params) < len(roles) + 3
                    or params[len(roles) + 2] != "lmul"):
                errors.append(
                    f"{where}: strict kernel {fn.__module__}.{fn.__name__}"
                    f"{tuple(params)} does not take (m, n, <{len(roles)} "
                    f"roles {roles}>, lmul)")
        body = sig.body
        params = _positional(body)
        keywords = [p.name for p in inspect.signature(body).parameters.values()
                    if p.kind is inspect.Parameter.KEYWORD_ONLY]
        if len(params) != len(roles) or sorted(keywords) != sorted(sig.keywords):
            errors.append(
                f"{where}: body {body.__name__}{tuple(params)} with keywords "
                f"{keywords} does not take the {len(roles)} roles {roles} "
                f"and keywords {list(sig.keywords)}")
    return errors


def check_context_imports() -> list[str]:
    errors = []
    path = SRC / "repro" / "svm" / "context.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        names: list[str] = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            names = [f"{mod}.{a.name}" if mod else a.name for a in node.names]
            names.append(mod)
        for name in names:
            leaf = name.rsplit(".", 1)[-1]
            if leaf in KERNEL_MODULES:
                errors.append(
                    f"context.py imports kernel module {name!r} at line "
                    f"{node.lineno} — primitives must dispatch through the "
                    "registry"
                )
    return errors


def main() -> int:
    errors = (check_public_surface() + check_specs() + check_native()
              + check_signatures() + check_context_imports())
    if errors:
        fail(errors)
    n = sum(1 for s in opspec.iter_specs())
    print(f"check_opspec: OK — {n} registered ops, public surface covered "
          "and generated from the recorder, "
          "every op captures to a structured node kind, "
          "native flags consistent, every node kind's signature matches "
          "its kernels and body, context.py imports no kernel modules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
