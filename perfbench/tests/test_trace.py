import threading

import pytest

from perfbench.layers import S, covered_sum
from perfbench.trace import Tracer, covered, layer_table, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 2), (1, 3), (5, 6)], lo=1, hi=5.5) == pytest.approx(2.5)
    assert covered_sum([(0, 2), (1, 3)], 0, 10) == 4


def test_self_time_subtracts_the_children_union():
    spans = [
        (0, -1, "outer", 0.0, 10.0, 1, 1, True, None),
        (1, 0, "child", 1.0, 4.0, 1, 1, True, None),
        (2, 0, "child", 3.0, 5.0, 1, 1, True, None),
        (3, 1, "grandchild", 2.0, 3.0, 1, 1, True, None),
        (0, -1, "outer", 0.0, 1.0, 2, 9, True, None),
    ]
    selfs = self_times(spans)
    assert selfs[(1, 0)] == pytest.approx(6.0)
    assert selfs[(1, 1)] == pytest.approx(2.0)
    assert selfs[(2, 0)] == pytest.approx(1.0)
    table = layer_table(spans)
    assert table["outer"]["calls"] == 2
    assert table["outer"]["self_s"] == pytest.approx(7.0)
    assert table["child"]["total_s"] == pytest.approx(5.0)


def test_wrapper_nests_per_thread_and_records_failures():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_inner = tracer.wrap(inner, "inner", key=lambda x: x)

    def outer(x):
        return traced_inner(x)

    traced_outer = tracer.wrap(outer, "outer")
    assert traced_outer(3) == 3
    with pytest.raises(ValueError):
        traced_inner(-1)
    worker = threading.Thread(target=traced_inner, args=(5,))
    worker.start()
    worker.join(5)
    spans = {span[0]: S(*span) for span in tracer.spans}
    first_inner, first_outer, failed, threaded = (spans[i] for i in (1, 0, 2, 3))
    assert first_inner.parent == first_outer.id and first_inner.key == 3
    assert failed.parent == -1 and not failed.ok
    assert threaded.parent == -1 and threaded.tid != first_outer.tid
    tracer.enabled = False
    traced_inner(1)
    assert len(tracer.spans) == 4
