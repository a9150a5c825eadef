"""The registry gate ``tools/check_opspec.py`` runs in the test suite
too: it passes on the tree, its surface rule fails on a hand-written
SVM primitive, and its signature rule fails when the per-kind
signature table loses a kind or miscounts a kind's roles."""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.svm import opspec
from repro.svm.context import SVM

_PATH = Path(__file__).resolve().parents[2] / "tools" / "check_opspec.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_opspec", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gate_passes(gate, capsys):
    assert gate.main() == 0
    assert "OK" in capsys.readouterr().out


def test_hand_written_primitive_fails(gate, monkeypatch):
    def copy(self, src, out=None, lmul=None):
        return src

    monkeypatch.setattr(SVM, "copy", copy)
    errors = gate.check_public_surface()
    assert any("SVM.copy is hand-written" in e for e in errors), errors
    with pytest.raises(SystemExit):
        gate.main()


def test_missing_kind_fails(gate, monkeypatch):
    table = dict(opspec.SIGNATURES)
    del table["permute"]
    monkeypatch.setattr(opspec, "SIGNATURES", table)
    errors = gate.check_signatures()
    assert any("'permute' has no entry" in e for e in errors), errors
    with pytest.raises(SystemExit):
        gate.main()


@pytest.mark.parametrize("roles", [("src", "dst"),
                                   ("src", "dst", "operand", "scalar")])
def test_wrong_role_count_fails(gate, monkeypatch, roles):
    table = dict(opspec.SIGNATURES)
    table["pack"] = dataclasses.replace(table["pack"], roles=roles)
    monkeypatch.setattr(opspec, "SIGNATURES", table)
    errors = gate.check_signatures()
    assert any("strict kernel" in e and "'pack'" in e for e in errors), errors
    assert any("body np_pack" in e for e in errors), errors
