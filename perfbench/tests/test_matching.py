"""Delivery matching by trace id, and the subscriber that records it."""

import pytest

from perfbench.loadgen import (
    Arrival,
    Sent,
    Subscriber,
    backlog,
    match_deliveries,
)
from repro.obs import TraceContext
from repro.ring import GMR
from repro.service import ViewDelta


def sent(i, due):
    return Sent(i, f"t{i}", 10, due, send=due, ack=due + 0.001, ok=True)


def arrival(last, *deltas):
    a = Arrival(last, count=len(deltas))
    for d in deltas:
        a.delta.add_inplace(GMR(d))
    return a


def test_matching_by_trace_id():
    batches = [sent(0, 1.0), sent(1, 2.0), sent(2, 3.0), sent(3, 4.0)]
    expected = {
        0: GMR({(1,): 2}),
        1: GMR(),                 # did not touch the watched view
        2: GMR({(2,): 1}),        # touched it, but nothing arrived
        3: GMR({(1,): 1, (5,): -1}),
    }
    arrivals = {
        "t0": arrival(1.25, {(1,): 2}),
        # a router delivers one delta per shard; the batch counts as
        # delivered at the last one, and their sum must be exact
        "t3": arrival(4.5, {(1,): 1}, {(5,): -1}),
    }
    m = match_deliveries(batches, arrivals, expected)
    assert m.delivery_s == pytest.approx({0: 0.25, 3: 0.5})
    assert m.undelivered == [2]
    assert m.mismatched == []


def test_batch_not_touching_the_view_needs_no_delivery():
    m = match_deliveries([sent(0, 1.0)], {}, {0: GMR()})
    assert m.delivery_s == {} and m.undelivered == [] and m.mismatched == []


def test_zero_net_change_split_across_shards_is_not_a_latency_sample():
    # Two shards report changes that cancel: exact, but no net delivery.
    arrivals = {"t0": arrival(1.5, {(1,): 1}, {(1,): -1})}
    m = match_deliveries([sent(0, 1.0)], arrivals, {0: GMR()})
    assert m.delivery_s == {} and m.mismatched == []


def test_wrong_delta_is_a_mismatch():
    arrivals = {"t0": arrival(1.5, {(1,): 3})}
    m = match_deliveries([sent(0, 1.0)], arrivals, {0: GMR({(1,): 2})})
    assert m.mismatched == [0]


def test_batches_outside_expected_are_ignored():
    m = match_deliveries([sent(0, 1.0), sent(1, 2.0)], {},
                         {1: GMR({(1,): 1})})
    assert m.undelivered == [1]


class FakeStream:
    def __init__(self, deltas):
        self.deltas = deltas
        self.marks = []
        self.closed_reason = None

    def __iter__(self):
        return iter(self.deltas)


def test_subscriber_records_last_arrival_per_trace():
    ticks = iter([1.0, 2.0, 3.0, 4.0])
    deltas = [
        ViewDelta("v", "R", 1, GMR({(1,): 1}), TraceContext("ta", "s1")),
        ViewDelta("v", "R", 2, GMR({(2,): 1}), TraceContext("tb", "s2")),
        ViewDelta("v", "R", 3, GMR({(1,): 1}), TraceContext("ta", "s3")),
        ViewDelta("v", None, 4, GMR({(9,): 1}), None),
    ]
    sub = Subscriber(FakeStream(deltas), clock=lambda: next(ticks))
    sub.run()
    assert sub.arrivals["ta"].last == 3.0
    assert sub.arrivals["ta"].count == 2
    assert sub.arrivals["ta"].delta == GMR({(1,): 2})
    assert sub.arrivals["tb"].last == 2.0
    assert sub.untraced == 1
    assert sub.accumulated == GMR({(1,): 2, (2,): 1, (9,): 1})


def test_backlog_flags_growing_lateness_only():
    rate = 10.0
    steady = [Sent(i, f"t{i}", 1, i / rate, send=i / rate + 0.001)
              for i in range(40)]
    assert not backlog(steady, rate)
    # each send 20 ms later than the last: behind by > 1 interval at
    # the end of the phase
    growing = [Sent(i, f"t{i}", 1, i / rate, send=i / rate + 0.02 * i)
               for i in range(40)]
    assert backlog(growing, rate)
