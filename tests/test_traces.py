"""The episode state: one RunTrace and one int8 edge-status vector."""

import numpy as np

from drdplan.traces import RunTrace


def test_evaluate_records_and_marks_status():
    trace = RunTrace(policy="p", world_index=3)
    status = np.zeros(4, dtype=np.int8)
    world = {1: 1, 2: 0}
    assert trace.evaluate(1, world.__getitem__, np.array([1.0, 2.5, 4.0, 1.0]), status) == 1
    assert trace.evaluate(2, world.__getitem__, np.array([1.0, 2.5, 4.0, 1.0]), status) == 0
    assert trace.records == [(1, 1, 2.5), (2, 0, 4.0)]
    assert all(type(e) is int and type(o) is int and type(c) is float for e, o, c in trace.records)
    assert status.tolist() == [0, 1, -1, 0] and status.dtype == np.int8
    assert trace.total_cost == 6.5
