"""Table 3: the unsegmented plus-scan (Listing 6) vs the sequential
scan — exact at N >= 10^5, within 7% below (the paper's remainder-strip
constants drift at small N; see EXPERIMENTS.md)."""

from repro.bench import experiments

from conftest import record


def test_table3():
    res = experiments.table3()
    record(res)
    res.check_within(0.07)
