"""The abstract's headline speedups at N=10^6: 2.85x/4.29x at LMUL=1
(scan / segmented scan) improving to 21.93x/15.09x with LMUL tuning.

The segmented pair reproduces (4.29x and 15.09x -> 15.10x); the scan
pair inherits the paper's internal inconsistencies (see
EXPERIMENTS.md), so only the segmented claims are asserted.
"""

from repro.bench import experiments

from conftest import record


def test_headline():
    res = experiments.headline()
    record(res)
    res.check_within(0.01)
