"""Table 2: the elementwise p_add primitive (Listing 4) vs the
sequential baseline — exact reproduction for every N >= 10^3."""

from repro.bench import experiments

from conftest import record


def test_table2():
    res = experiments.table2()
    record(res)
    res.check_within(0.001)  # exact away from the paper's N=100 anomaly
