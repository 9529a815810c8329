"""Self-time arithmetic: nesting, overlap, cross-process joins."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.spans import Span, build_tree, layer_self_times, self_times


def sp(id, start, end, parent=None, proc="p", thread=1, layer=None):
    return Span(id, layer or id, float(start), float(end), parent, proc,
                thread)


def root(start=0, end=10):
    return Span("root", "root", float(start), float(end))


def test_nested_children_on_one_thread():
    spans = [sp("a", 1, 9), sp("b", 2, 4), sp("c", 5, 6)]
    st_ = self_times(root(), spans)
    assert st_["a"] == pytest.approx(8 - 2 - 1)
    assert st_["b"] == pytest.approx(2)
    assert st_["c"] == pytest.approx(1)
    assert st_["root"] == pytest.approx(2)  # unattributed
    assert sum(st_.values()) == pytest.approx(10)


def test_nested_grandchildren_subtract_from_parent_only():
    spans = [sp("a", 0, 10), sp("b", 2, 8), sp("c", 3, 5)]
    st_ = self_times(root(), spans)
    assert st_ == pytest.approx({"a": 4, "b": 4, "c": 2})


def test_overlapping_children_charge_the_critical_path():
    # Two parallel children on different threads (e.g. two shard
    # scatters): the overlap goes to the one that ends last.
    spans = [sp("x", 1, 6, thread=1), sp("y", 4, 9, thread=2)]
    st_ = self_times(root(), spans)
    assert st_["x"] == pytest.approx(3)
    assert st_["y"] == pytest.approx(5)
    assert st_["root"] == pytest.approx(2)
    assert sum(st_.values()) == pytest.approx(10)


def test_overlap_inside_a_parent_keeps_parent_gap():
    spans = [sp("p", 0, 10, thread=1),
             sp("x", 1, 5, parent="p", thread=2),
             sp("y", 3, 7, parent="p", thread=3)]
    st_ = self_times(root(), spans)
    assert st_["p"] == pytest.approx(4)    # 0-1 and 7-10
    assert st_["x"] == pytest.approx(2)    # 1-3
    assert st_["y"] == pytest.approx(4)    # 3-7
    assert sum(st_.values()) == pytest.approx(10)


def test_cross_process_spans_join_on_the_wall_clock():
    # Client call in the load generator; the server's request span names
    # the client span as parent (the trace header), and the server's own
    # admission span nests under the request on the request's thread.
    spans = [
        sp("client", 0, 10, proc="loadgen", thread=1),
        sp("request", 2, 8, parent="client", proc="server", thread=7),
        sp("admission", 3, 7, parent="client", proc="server", thread=7),
    ]
    children = build_tree(root(), spans)
    assert [c.id for c in children["root"]] == ["client"]
    assert [c.id for c in children["client"]] == ["request"]
    assert [c.id for c in children["request"]] == ["admission"]
    st_ = self_times(root(), spans)
    assert st_ == pytest.approx({"client": 4, "request": 2, "admission": 4})


def test_causal_parent_that_ended_early_is_skipped():
    # A delivery on the pump thread starts after its publish span ended:
    # it hangs under the nearest causal ancestor that encloses it.
    spans = [
        sp("request", 1, 9, thread=1),
        sp("publish", 2, 3, parent="request", thread=1),
        sp("deliver", 4, 5, parent="publish", thread=2),
    ]
    children = build_tree(root(), spans)
    assert [c.id for c in children["request"]] == ["publish", "deliver"]


def test_spans_are_clipped_to_the_root():
    spans = [sp("early", -5, 2), sp("late", 8, 20), sp("outside", 11, 12)]
    st_ = self_times(root(), spans)
    assert st_["early"] == pytest.approx(2)
    assert st_["late"] == pytest.approx(2)
    assert "outside" not in st_
    assert sum(st_.values()) == pytest.approx(10)


def test_layer_self_times_sum_by_layer():
    spans = [sp("a", 1, 3, layer="maintain", thread=1),
             sp("b", 4, 6, layer="maintain", thread=1),
             sp("c", 6, 7, layer="publish", thread=1)]
    by_layer = layer_self_times(root(), spans)
    assert by_layer == pytest.approx(
        {"maintain": 4, "publish": 1, "unattributed": 5})


@st.composite
def span_sets(draw):
    n = draw(st.integers(0, 12))
    spans = []
    for i in range(n):
        a = draw(st.floats(-2, 12, allow_nan=False))
        b = draw(st.floats(-2, 12, allow_nan=False))
        lo, hi = min(a, b), max(a, b)
        parent = draw(st.sampled_from([None] + [f"s{j}" for j in range(i)]))
        spans.append(sp(f"s{i}", lo, hi, parent=parent,
                        proc=draw(st.sampled_from("pq")),
                        thread=draw(st.integers(1, 3))))
    return spans


@settings(max_examples=300, deadline=None)
@given(span_sets())
def test_self_times_always_add_up_to_the_root(spans):
    st_ = self_times(root(), spans)
    assert sum(st_.values()) == pytest.approx(10, abs=1e-9)
    assert all(v >= -1e-12 for v in st_.values())


def test_many_spans_stay_fast():
    rng = random.Random(0)
    spans = []
    for i in range(300):
        a = rng.uniform(0, 10)
        spans.append(sp(f"s{i}", a, a + rng.uniform(0, 1),
                        thread=rng.randint(1, 4)))
    st_ = self_times(root(), spans)
    assert sum(st_.values()) == pytest.approx(10)
