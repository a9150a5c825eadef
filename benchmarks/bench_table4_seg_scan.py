"""Table 4: the segmented plus-scan (Listing 10) vs the sequential
segmented scan — exact reproduction at every N."""

from repro.bench import experiments

from conftest import record


def test_table4():
    res = experiments.table4()
    record(res)
    res.check_within(0.001)
