"""Figure 5: speedup vs VLEN=128 — p_add scales on the ideal
vlen/128 line while segmented scan saturates (its in-register phase
costs lg(vl) steps, growing with the register)."""

from repro.bench import experiments

from conftest import record


def test_figure5():
    res = experiments.figure5()
    record(res)
    res.check_within(0.01)
    # the qualitative claims of the figure
    padd = {int(r[0]): float(r[1]) for r in res.rows}
    seg = {int(r[0]): float(r[3]) for r in res.rows}
    assert padd[1024] > 7.5, "p_add should be near the ideal 8x"
    assert seg[1024] < 5.5, "seg scan must scale sublinearly"
    assert seg[128] == 1.0 and padd[128] == 1.0
