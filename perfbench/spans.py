"""Span trees and self-time arithmetic for the traced run.

A span is one timed call into a layer: a name (``layer``), the process
and thread it ran on, an interval on the shared ``time.time()`` clock,
and optionally the id of the span that caused it (``parent``).  Spans
of one batch come from several processes — the load generator, the
router, the shards — and are joined on their common wall clock.

**Tree.**  A span's parent is the innermost span that encloses it on
the same thread (calls nest on one stack); failing that, the nearest
ancestor along its causal ``parent`` chain whose interval encloses it;
failing that, the batch root.  Every child therefore lies inside its
parent, which is what the attribution below needs.

**Self time.**  Each instant of the root interval is charged to exactly
one span: walking down from the root, an instant goes to the child that
covers it, and where several children overlap (parallel shard scatters,
a delivery that races its own ack) to the one that ends last — the
critical path.  An instant no child covers stays with the node.  For
children that do not overlap, a span's self time is its duration minus
the union of its children, and in every case the self times of all
spans of a batch add up to the root's duration exactly.  The root's own
share is the time no layer accounts for (``unattributed``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

#: slack for nesting tests: start and duration come from two clocks
#: (``time.time`` and ``perf_counter``), so a child that ends with its
#: parent can overshoot it by a few microseconds
EPS_S = 50e-6


@dataclass
class Span:
    id: str
    layer: str
    start: float
    end: float
    parent: str | None = None
    proc: str = ""
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def encloses(outer: Span, inner: Span, eps: float = EPS_S) -> bool:
    return outer.start - eps <= inner.start and inner.end <= outer.end + eps


def build_tree(root: Span, spans: list[Span]) -> dict[str, list[Span]]:
    """Children lists (keyed by span id, the root included) for the
    spans of one batch; spans are clipped to the root interval and
    spans entirely outside it are dropped."""
    inside = []
    for s in spans:
        if s.end <= root.start or s.start >= root.end or s.id == root.id:
            continue
        inside.append(Span(
            s.id, s.layer, max(s.start, root.start), min(s.end, root.end),
            s.parent, s.proc, s.thread, s.attrs,
        ))
    by_id = {s.id: s for s in inside}

    # Innermost enclosing span on the same thread: calls on one thread
    # nest like a stack.
    same_thread: dict[str, Span] = {}
    groups: dict[tuple, list[Span]] = defaultdict(list)
    for s in inside:
        groups[(s.proc, s.thread)].append(s)
    for group in groups.values():
        stack: list[Span] = []
        for s in sorted(group, key=lambda s: (s.start, -s.end)):
            while stack and not encloses(stack[-1], s):
                stack.pop()
            if stack:
                same_thread[s.id] = stack[-1]
            stack.append(s)

    def effective(s: Span) -> Span | None:
        if s.id in same_thread:
            return same_thread[s.id]
        return by_id.get(s.parent) if s.parent else None

    children: dict[str, list[Span]] = defaultdict(list)
    children[root.id] = []
    for s in inside:
        parent = same_thread.get(s.id)
        if parent is None:
            # Walk the causal chain up to the first enclosing ancestor.
            seen = {s.id}
            cand = by_id.get(s.parent) if s.parent else None
            while cand is not None and cand.id not in seen:
                if encloses(cand, s):
                    parent = cand
                    break
                seen.add(cand.id)
                cand = effective(cand)
        children[parent.id if parent is not None else root.id].append(s)
    # Clip every child to its parent so the walk below stays inside.
    for pid, kids in children.items():
        p = root if pid == root.id else by_id[pid]
        for k in kids:
            k.start = max(k.start, p.start)
            k.end = max(k.start, min(k.end, p.end))
    return children


def self_times(root: Span, spans: list[Span]) -> dict[str, float]:
    """Seconds of the root interval charged to each span id (the root's
    own id holds the unattributed time)."""
    children = build_tree(root, spans)
    out: dict[str, float] = defaultdict(float)

    def charge(node: Span, lo: float, hi: float) -> None:
        kids = [c for c in children.get(node.id, ())
                if c.end > lo and c.start < hi]
        if not kids:
            out[node.id] += hi - lo
            return
        cuts = sorted({lo, hi} | {
            min(hi, max(lo, x)) for c in kids for x in (c.start, c.end)
        })
        # Consecutive segments charged to the same child are merged so
        # each child is descended into once per contiguous run.
        run_child, run_lo = None, lo
        for a, b in zip(cuts, cuts[1:]):
            if b <= a:
                continue
            cover = [c for c in kids if c.start <= a and c.end >= b]
            best = max(cover, key=lambda c: (c.end, -c.start, c.id)) \
                if cover else None
            if best is not run_child:
                if run_child is not None:
                    charge(run_child, run_lo, a)
                elif a > run_lo:
                    out[node.id] += a - run_lo
                run_child, run_lo = best, a
        if run_child is not None:
            charge(run_child, run_lo, hi)
        else:
            out[node.id] += hi - run_lo

    charge(root, root.start, root.end)
    return dict(out)


def layer_self_times(root: Span, spans: list[Span]) -> dict[str, float]:
    """:func:`self_times` summed by layer name; the root's share is
    reported under ``"unattributed"``."""
    per_span = self_times(root, spans)
    layer_of = {s.id: s.layer for s in spans}
    out: dict[str, float] = defaultdict(float)
    for sid, secs in per_span.items():
        out["unattributed" if sid == root.id else layer_of[sid]] += secs
    return dict(out)
