"""ExecConfig layering: defaults <- REPRO_* env <- kwargs <- per-call.

The contract under test (ISSUE 10 tentpole, stage 1): one resolution
rule for every execution axis, the environment read at resolve time
(never import time), malformed env values silently dropping to the
layer below, and explicit arguments — the API surface — raising
:class:`~repro.errors.ConfigurationError` loudly.
"""

from __future__ import annotations

import pytest

from repro import SVM
from repro.config import (
    BACKENDS,
    DEFAULT_BACKEND,
    ENV_VARS,
    ExecConfig,
    default_cache_dir,
    env_backend,
    env_bench_jobs,
    native_toolchain_env,
)
from repro.errors import ConfigurationError
from repro.rvv.types import LMUL


class TestDefaults:
    def test_builtin_defaults(self):
        cfg = ExecConfig()
        assert cfg.vlen == 1024
        assert cfg.lmul == LMUL.M1
        assert cfg.backend is None
        assert cfg.digit_bits == 2
        assert cfg.cache_dir is None
        assert cfg.native_disable is False
        assert cfg.bench_jobs == 1

    def test_frozen_and_hashable(self):
        cfg = ExecConfig()
        with pytest.raises(Exception):
            cfg.vlen = 2048
        assert hash(ExecConfig(vlen=256)) == hash(ExecConfig(vlen=256))

    def test_lmul_coerced_from_int(self):
        assert ExecConfig(lmul=4).lmul is LMUL.M4


class TestEnvLayer:
    def test_env_overlays_defaults(self, monkeypatch):
        monkeypatch.setenv(ENV_VARS["vlen"], "256")
        monkeypatch.setenv(ENV_VARS["lmul"], "8")
        monkeypatch.setenv(ENV_VARS["backend"], "native-speed")
        cfg = ExecConfig.from_env()
        assert cfg.vlen == 256
        assert cfg.lmul is LMUL.M8
        assert cfg.backend == "native-speed"
        assert cfg.digit_bits == 2  # untouched axis keeps its default

    def test_env_read_at_resolve_time_not_import_time(self, monkeypatch):
        assert ExecConfig.from_env().vlen == 1024
        monkeypatch.setenv(ENV_VARS["vlen"], "512")
        assert ExecConfig.from_env().vlen == 512

    @pytest.mark.parametrize("var,value", [
        ("vlen", "banana"),      # not an int
        ("vlen", "8"),           # int but < 32
        ("backend", "turbo"),    # unknown backend
        ("lmul", "3"),           # not a power-of-two LMUL
        ("digit_bits", "99"),    # out of range
        ("bench_jobs", "0"),     # < 1
    ])
    def test_malformed_env_is_ignored(self, monkeypatch, var, value):
        monkeypatch.setenv(ENV_VARS[var], value)
        cfg = ExecConfig.from_env()          # must not raise
        assert getattr(cfg, var) == getattr(ExecConfig(), var)

    def test_malformed_env_keeps_good_siblings(self, monkeypatch):
        monkeypatch.setenv(ENV_VARS["vlen"], "nope")
        monkeypatch.setenv(ENV_VARS["backend"], "native-speed")
        cfg = ExecConfig.from_env()
        assert cfg.vlen == 1024              # bad field dropped
        assert cfg.backend == "native-speed"  # good field survives

    def test_removed_interp_backend_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(ENV_VARS["backend"], "interp")
        assert ExecConfig.from_env().backend is None  # dropped, no raise
        assert SVM().engine.backend == "codegen"


class TestExplicitLayer:
    def test_kwargs_beat_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VARS["vlen"], "256")
        assert ExecConfig.resolve(vlen=2048).vlen == 2048

    def test_none_means_not_given(self, monkeypatch):
        monkeypatch.setenv(ENV_VARS["vlen"], "256")
        assert ExecConfig.resolve(vlen=None).vlen == 256

    def test_explicit_bad_value_raises(self):
        with pytest.raises(ConfigurationError):
            ExecConfig(vlen=8)
        with pytest.raises(ConfigurationError):
            ExecConfig(backend="turbo")
        with pytest.raises(ConfigurationError):
            ExecConfig(digit_bits=0)

    def test_removed_interp_backend_raises(self):
        with pytest.raises(ConfigurationError):
            ExecConfig(backend="interp")
        with pytest.raises(ConfigurationError):
            SVM(backend="interp")

    def test_unknown_axis_raises(self):
        with pytest.raises(ConfigurationError):
            ExecConfig().override(warp_factor=9)

    def test_override_returns_self_when_no_delta(self):
        cfg = ExecConfig()
        assert cfg.override(vlen=None) is cfg

    def test_roundtrip_dict(self):
        cfg = ExecConfig(vlen=256, lmul=LMUL.M4, backend="native-speed")
        assert ExecConfig.from_dict(cfg.as_dict()) == cfg

    def test_as_dict_is_json_plain(self):
        doc = ExecConfig(lmul=LMUL.M8).as_dict()
        assert doc["lmul"] == 8 and type(doc["lmul"]) is int


class TestSVMIntegration:
    def test_svm_holds_resolved_config(self):
        svm = SVM(vlen=256, lmul=LMUL.M2)
        assert svm.config.vlen == 256
        assert svm.config.lmul is LMUL.M2
        assert svm.lmul is LMUL.M2
        assert svm.machine.vlen == 256

    def test_svm_env_layer(self, monkeypatch):
        monkeypatch.setenv(ENV_VARS["vlen"], "256")
        assert SVM().config.vlen == 256
        # explicit kwarg still wins over env
        assert SVM(vlen=128).config.vlen == 128

    def test_svm_explicit_config_object_skips_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VARS["vlen"], "256")
        svm = SVM(config=ExecConfig(vlen=2048))
        assert svm.config.vlen == 2048

    def test_svm_explicit_machine_wins_vlen(self):
        from repro import RVVMachine
        svm = SVM(RVVMachine(vlen=128), vlen=1024)
        assert svm.machine.vlen == 128
        assert svm.config.vlen == 128       # config reflects reality

    def test_svm_rejects_bad_tune(self):
        with pytest.raises(ConfigurationError):
            SVM(tune="always")


class TestCallTimeHelpers:
    def test_env_backend(self, monkeypatch):
        assert env_backend() is None
        monkeypatch.setenv(ENV_VARS["backend"], "native-speed")
        assert env_backend() == "native-speed"

    def test_env_bench_jobs_clamped(self, monkeypatch):
        monkeypatch.setenv(ENV_VARS["bench_jobs"], "-3")
        assert env_bench_jobs() == 1
        monkeypatch.setenv(ENV_VARS["bench_jobs"], "4")
        assert env_bench_jobs() == 4

    def test_native_toolchain_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VARS["native_cc"], "/usr/bin/cc")
        monkeypatch.setenv(ENV_VARS["native_disable"], "1")
        assert native_toolchain_env() == ("/usr/bin/cc", True)

    def test_default_cache_dir_env_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VARS["cache_dir"], str(tmp_path))
        assert default_cache_dir() == tmp_path

    def test_backend_constants(self):
        assert DEFAULT_BACKEND in BACKENDS
