"""Shared bench plumbing: collect every regenerated table/figure and
print them in the terminal summary (pytest captures stdout during the
tests themselves, so the rendered tables are re-emitted at the end
where they stay visible in `pytest benchmarks/` runs and tee'd logs).

Also home of :func:`rng`, the one seeded-generator helper every bench
file draws input data through — the BENCH_*.json files are regenerated
under a tolerance-0 CI gate, so input generation must be reproducible
down to the bit."""

from __future__ import annotations

import numpy as np
import pytest

_RENDERED: list[str] = []


def rng(seed: int) -> np.random.Generator:
    """The shared deterministic generator for benchmark inputs. Always
    pass an explicit seed; never use an unseeded/global generator in a
    bench file."""
    return np.random.default_rng(seed)


def record(result) -> None:
    """Register an ExperimentResult for the end-of-run summary."""
    _RENDERED.append(result.render())


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _RENDERED:
        terminalreporter.ensure_newline()
        terminalreporter.section("regenerated paper tables and figures")
        for text in _RENDERED:
            terminalreporter.write_line(text)
            terminalreporter.write_line("")
