"""Table 6: (speedup over LMUL=1)/LMUL — the declining-returns ratio
of wider register groups for segmented scan."""

from repro.bench import experiments

from conftest import record


def test_table6():
    res = experiments.table6()
    record(res)
    res.check_within(0.035)
