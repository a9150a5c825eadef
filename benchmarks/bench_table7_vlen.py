"""Table 7: dynamic counts of segmented plus-scan and p_add across
VLEN in {128, 256, 512, 1024} at N=10^4 — VLA scalability."""

from repro.bench import experiments

from conftest import record


def test_table7():
    res = experiments.table7()
    record(res)
    res.check_within(0.01)
