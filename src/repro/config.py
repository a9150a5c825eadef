"""Unified execution configuration: one :class:`ExecConfig` per context.

Before this module existed the execution configuration was smeared
across the stack: ``SVM.__init__`` held vlen/lmul/backend keyword
arguments, ``REPRO_BACKEND`` / ``REPRO_CACHE_DIR`` /
``REPRO_NATIVE_*`` were read ad hoc by the executor, the native
lowering, the cache directory, and the sweep runner, and each consumer
invented its own precedence. :class:`ExecConfig` is the one place all
of those axes live, with a single layering rule applied by
:meth:`ExecConfig.resolve`::

    built-in defaults  <-  REPRO_* environment  <-  explicit kwargs
                                                 <-  per-call overrides

Every consumer goes through it: :class:`~repro.svm.context.SVM` holds
the resolved config of its context, the engine derives its backend and
native artifact directory from it, :mod:`repro.parallel` sweeps are expressed
as config deltas (:meth:`ExecConfig.override`), the serving daemon
builds its whole worker pool from one config, and the ``repro tune``
policy stores chosen configs per workload shape.

**All ``os.environ`` access in ``repro`` lives in this module** — the
``tools/check_config.py`` AST gate enforces it in CI, the same way
``tools/check_opspec.py`` guards the kernel registry. The environment
is read at *resolve time* (never cached at import), so tests and
long-running daemons observe monkeypatched or updated variables.

Environment variables
---------------------
=====================  ===========================  ==================
variable               ExecConfig field             default
=====================  ===========================  ==================
``REPRO_VLEN``         ``vlen``                     1024
``REPRO_LMUL``         ``lmul``                     1 (``LMUL.M1``)
``REPRO_BACKEND``      ``backend``                  None (engine picks)
``REPRO_DIGIT_BITS``   ``digit_bits``               2
``REPRO_CACHE_DIR``    ``cache_dir``                None (no persistence)
``REPRO_NATIVE_CC``    ``native_cc``                None (discover)
``REPRO_NATIVE_DISABLE`` ``native_disable``         False
``REPRO_BENCH_JOBS``   ``bench_jobs``               1 (inline)
=====================  ===========================  ==================

Malformed environment values are ignored (the layer below wins):
the environment is a convenience layer, not an API, and a typo in a
shell profile must never change results — only explicit arguments may
raise :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigurationError
from .rvv.types import LMUL

__all__ = [
    "ExecConfig",
    "ENV_VARS",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "env_backend",
    "env_cache_dir",
    "env_bench_jobs",
    "native_toolchain_env",
    "default_cache_dir",
]

#: Fast-path backends the engine understands (the executor validates
#: against this; it lives here so config stays import-light).
BACKENDS = ("codegen", "native", "native-speed")

#: The engine's default fast-path backend.
DEFAULT_BACKEND = "codegen"

#: ExecConfig field -> environment variable supplying its env layer.
ENV_VARS = {
    "vlen": "REPRO_VLEN",
    "lmul": "REPRO_LMUL",
    "backend": "REPRO_BACKEND",
    "digit_bits": "REPRO_DIGIT_BITS",
    "cache_dir": "REPRO_CACHE_DIR",
    "native_cc": "REPRO_NATIVE_CC",
    "native_disable": "REPRO_NATIVE_DISABLE",
    "bench_jobs": "REPRO_BENCH_JOBS",
}


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _env_str(name: str) -> str | None:
    raw = os.environ.get(name)
    return raw if raw else None


def _env_bool(name: str) -> bool | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    return raw not in ("", "0")


@dataclass(frozen=True)
class ExecConfig:
    """One frozen record of every execution-configuration axis.

    Instances are immutable and hashable: the tuning policy uses them
    as values, sweep grids express their axes as deltas over a base
    config (:meth:`override`), and process-pool workers receive them
    pickled inside parameter dicts.
    """

    #: Vector register length in bits (the machine's VLEN).
    vlen: int = 1024
    #: Default register-grouping factor for primitive calls.
    lmul: LMUL = LMUL.M1
    #: Fast-path engine backend; None defers to the engine default
    #: (:data:`DEFAULT_BACKEND`).
    backend: str | None = None
    #: Radix digit width for :func:`~repro.algorithms.radix_wide.
    #: split_radix_sort_wide` (the paper's digit-bits study axis).
    digit_bits: int = 2
    #: Persistent cache root (tuning DB and native C artifacts);
    #: None disables persistence.
    cache_dir: str | None = None
    #: Explicit C compiler for the native tier; None discovers one.
    native_cc: str | None = None
    #: Force the native tier's no-toolchain fallback path.
    native_disable: bool = False
    #: Default worker count for multiprocess sweep grids.
    bench_jobs: int = 1

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "lmul", LMUL(self.lmul))
        except ValueError:
            raise ConfigurationError(
                f"lmul must be one of {[int(m) for m in LMUL]}, "
                f"got {self.lmul!r}"
            ) from None
        if self.vlen < 32:
            raise ConfigurationError(f"vlen must be >= 32, got {self.vlen}")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if not 1 <= self.digit_bits <= 8:
            raise ConfigurationError(
                f"digit_bits must be in [1, 8], got {self.digit_bits}"
            )
        if self.bench_jobs < 1:
            raise ConfigurationError(
                f"bench_jobs must be >= 1, got {self.bench_jobs}"
            )

    # ------------------------------------------------------------------
    # layering
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> "ExecConfig":
        """Defaults overlaid with the ``REPRO_*`` environment layer
        (read now, not at import). Malformed values are ignored."""
        layer: dict = {}
        for field, value in (
            ("vlen", _env_int(ENV_VARS["vlen"])),
            ("lmul", _env_int(ENV_VARS["lmul"])),
            ("backend", _env_str(ENV_VARS["backend"])),
            ("digit_bits", _env_int(ENV_VARS["digit_bits"])),
            ("cache_dir", _env_str(ENV_VARS["cache_dir"])),
            ("native_cc", _env_str(ENV_VARS["native_cc"])),
            ("native_disable", _env_bool(ENV_VARS["native_disable"])),
            ("bench_jobs", _env_int(ENV_VARS["bench_jobs"])),
        ):
            if value is not None:
                layer[field] = value
        # a malformed env value must fall back, never raise
        for attempt in range(len(layer) + 1):
            try:
                return cls(**layer)
            except ConfigurationError:
                layer.pop(_first_bad_field(layer), None)
        return cls()  # pragma: no cover - loop always returns

    @classmethod
    def resolve(cls, **overrides) -> "ExecConfig":
        """The full layering: defaults <- environment <- explicit
        ``overrides`` (None values mean "not given" and are skipped)."""
        return cls.from_env().override(**overrides)

    def override(self, **overrides) -> "ExecConfig":
        """A copy with the given axes replaced; None values (and
        unchanged values) are skipped, so call sites can pass their
        optional keyword arguments straight through. Unknown axes
        raise."""
        known = {f.name for f in fields(self)}
        delta = {}
        for key, value in overrides.items():
            if key not in known:
                raise ConfigurationError(f"unknown ExecConfig axis {key!r}")
            if value is not None:
                delta[key] = value
        return replace(self, **delta) if delta else self

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """Plain-JSON form (LMUL as its integer value) — what the
        tuning DB persists and ``repro tune show`` prints."""
        return {
            "vlen": int(self.vlen),
            "lmul": int(self.lmul),
            "backend": self.backend,
            "digit_bits": int(self.digit_bits),
            "cache_dir": self.cache_dir,
            "native_cc": self.native_cc,
            "native_disable": bool(self.native_disable),
            "bench_jobs": int(self.bench_jobs),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExecConfig":
        """Inverse of :meth:`as_dict` (unknown keys rejected)."""
        return cls().override(**doc)

    def describe(self) -> str:
        """One-line human-readable form."""
        parts = [f"vlen={self.vlen}", f"lmul={int(self.lmul)}"]
        if self.backend is not None:
            parts.append(f"backend={self.backend}")
        parts.append(f"digit_bits={self.digit_bits}")
        if self.cache_dir:
            parts.append(f"cache_dir={self.cache_dir}")
        if self.native_disable:
            parts.append("native_disable")
        return " ".join(parts)


def _first_bad_field(layer: dict) -> str | None:
    """The first env-layer field whose value alone fails validation
    (helper for the forgiving :meth:`ExecConfig.from_env` loop)."""
    for key, value in layer.items():
        try:
            ExecConfig(**{key: value})
        except ConfigurationError:
            return key
    # combination-level failure: drop arbitrarily to make progress
    return next(iter(layer), None)


# ---------------------------------------------------------------------------
# low-level environment accessors (the single environ choke point)
# ---------------------------------------------------------------------------

def env_backend() -> str | None:
    """``REPRO_BACKEND`` or None — read at call time."""
    return _env_str(ENV_VARS["backend"])


def env_cache_dir() -> str | None:
    """``REPRO_CACHE_DIR`` or None — read at call time."""
    return _env_str(ENV_VARS["cache_dir"])


def env_bench_jobs() -> int:
    """``REPRO_BENCH_JOBS`` clamped to >= 1, else 1 (inline)."""
    value = _env_int(ENV_VARS["bench_jobs"])
    return max(1, value) if value is not None else 1


def native_toolchain_env() -> tuple[str | None, bool]:
    """The native tier's environment knobs as ``(cc_override,
    disabled)`` — consumed by :func:`repro.engine.native.find_compiler`."""
    return _env_str(ENV_VARS["native_cc"]), bool(_env_bool(ENV_VARS["native_disable"]))


def default_cache_dir() -> Path:
    """The conventional cache location (tuning DB, native artifacts):
    ``REPRO_CACHE_DIR`` if set, else ``$XDG_CACHE_HOME/repro``
    (``~/.cache/repro``)."""
    env = env_cache_dir()
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"
