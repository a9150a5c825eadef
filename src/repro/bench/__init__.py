"""Benchmark harness: regenerates every table and figure of the paper.

* :mod:`~repro.bench.paper_data` — the published reference numbers;
* :mod:`~repro.bench.experiments` — one regeneration function per
  table/figure;
* :mod:`~repro.bench.harness` — result structure and comparisons;
* :mod:`~repro.bench.report` — the EXPERIMENTS.md generator
  (``python -m repro.bench.report``).

The pytest entry points live in the repository's
``benchmarks/`` directory and call into this package.
"""

from . import paper_data
from .experiments import figure5, headline, table1, table2, table3, table4, table5, table6, table7
from .harness import ExperimentResult, rel_err, speedup

__all__ = [
    "paper_data",
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "figure5", "headline",
    "ExperimentResult", "rel_err", "speedup",
]
