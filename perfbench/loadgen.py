"""The load generator: one producer connection, one subscriber stream.

The producer (the calling thread) sends batches through one
``repro.net.Client`` and also issues the drain barriers; a second
thread iterates one ``DeltaStream`` on the watched view.  Every batch
carries a fresh ``TraceContext``; the server and the router stamp that
trace id on every delta envelope the batch causes, so a delivery is
matched to its batch by trace id on every topology — including a batch
split across shards, which arrives as one delta per shard (the batch
counts as delivered when the last one arrives).

Two sending disciplines:

* **open loop** — batch ``i`` is due at ``t0 + i / rate`` whatever the
  server does; latency is timed from the due time, so a stall also
  charges the wait it imposes on the batches queued behind it, and the
  generator's own lateness is recorded separately;
* **closed loop** — the next batch goes out as soon as the previous one
  is acknowledged (the capacity phase).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.net import Client
from repro.obs import TraceContext
from repro.ring import GMR

#: how often the producer polls for the subscriber's sight of a mark
_MARK_POLL_S = 0.0002


@dataclass
class Sent:
    """One batch as the producer saw it (``perf_counter`` seconds)."""

    index: int
    trace_id: str
    tuples: int
    due: float
    send: float = 0.0
    ack: float = 0.0
    ok: bool = False
    error: str | None = None
    #: ``time.time() - perf_counter()`` at send: maps this batch's
    #: times onto the wall clock the servers' spans use
    wall_offset: float = 0.0


@dataclass
class Arrival:
    """Deliveries of one trace id on the watched view."""

    last: float
    count: int = 0
    delta: GMR = field(default_factory=GMR)


class Subscriber(threading.Thread):
    """Reads the watched view's stream; records per-trace arrivals and
    accumulates every delta."""

    def __init__(self, stream, clock=time.perf_counter):
        super().__init__(name="perfbench-subscriber", daemon=True)
        self.stream = stream
        self.clock = clock
        self.arrivals: dict[str, Arrival] = {}
        self.accumulated = GMR()
        self.untraced = 0
        self.error: str | None = None

    def run(self) -> None:
        try:
            for delta in self.stream:
                now = self.clock()
                self.accumulated.add_inplace(delta.delta)
                if delta.trace is None:
                    self.untraced += 1
                    continue
                a = self.arrivals.get(delta.trace.trace_id)
                if a is None:
                    a = self.arrivals[delta.trace.trace_id] = Arrival(now)
                a.last = now
                a.count += 1
                a.delta.add_inplace(delta.delta)
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            self.error = f"{type(exc).__name__}: {exc}"


class LoadGen:
    """Drives one session: ``client`` + ``subscriber``; every batch
    sent is recorded in :attr:`sent`."""

    def __init__(self, client: Client, subscriber: Subscriber,
                 run_tag: str):
        self.client = client
        self.subscriber = subscriber
        self.run_tag = run_tag
        self.sent: list[Sent] = []

    def _send(self, index: int, relation: str, batch: GMR,
              due: float) -> Sent:
        trace_id = f"{self.run_tag}{index:06d}"
        s = Sent(index, trace_id, sum(abs(m) for m in batch.data.values()),
                 due)
        ctx = TraceContext(trace_id, f"{trace_id}c")
        s.wall_offset = time.time() - time.perf_counter()
        s.send = time.perf_counter()
        try:
            self.client.batch(relation, batch, trace=ctx)
            s.ok = True
        except Exception as exc:  # noqa: BLE001 - counted as failed
            s.error = f"{type(exc).__name__}: {exc}"
        s.ack = time.perf_counter()
        self.sent.append(s)
        return s

    def closed_loop(self, batches, start: int) -> list[Sent]:
        """Send back to back: each batch as soon as the previous one is
        acknowledged (its due time is its send time)."""
        return [self._send(start + k, relation, batch, time.perf_counter())
                for k, (relation, batch) in enumerate(batches)]

    def open_loop(self, batches, start: int, rate: float) -> list[Sent]:
        """Send batch ``k`` at ``t0 + k / rate``; returns the records."""
        out = []
        t0 = time.perf_counter() + 0.01
        interval = 1.0 / rate
        for k, (relation, batch) in enumerate(batches):
            due = t0 + k * interval
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            out.append(self._send(start + k, relation, batch, due))
        return out

    def barrier(self, timeout: float = 60.0) -> float:
        """Drain the server and wait until the subscriber has read the
        mark; returns the ``perf_counter`` time it was seen."""
        token = self.client.drain()
        stream = self.subscriber.stream
        deadline = time.perf_counter() + timeout
        while token not in stream.marks:
            if stream.closed_reason is not None or \
                    not self.subscriber.is_alive():
                raise RuntimeError(
                    f"stream ended before mark {token}: "
                    f"{stream.closed_reason or self.subscriber.error}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(f"mark {token} not seen in {timeout}s")
            time.sleep(_MARK_POLL_S)
        return time.perf_counter()


def backlog(sent: list[Sent], rate: float) -> bool:
    """True when the open-loop generator fell steadily behind: the
    median lateness of the last quarter of the phase exceeds one
    inter-batch interval (a system keeping up acks each batch before
    the next is due, so lateness stays near zero)."""
    if len(sent) < 8:
        return False
    q = len(sent) // 4
    late = sorted(s.send - s.due for s in sent[-q:])
    return late[len(late) // 2] > 1.0 / rate


@dataclass
class Matched:
    """Per-batch delivery outcome of the watched view."""

    delivery_s: dict[int, float]   # batch index -> due-to-last-arrival
    undelivered: list[int]         # expected but never arrived
    mismatched: list[int]          # arrived, but not the exact delta


def match_deliveries(sent: list[Sent], arrivals: dict[str, Arrival],
                     expected: dict[int, GMR]) -> Matched:
    """Join batches to deliveries by trace id.

    ``expected`` maps batch index -> the watched view's exact change
    (from the oracle).  A batch whose change is zero is not expected to
    deliver anything (it did not touch the watched view, or touched it
    without changing it); any delta that does carry its trace id must
    still sum to zero.
    """
    delivery: dict[int, float] = {}
    undelivered: list[int] = []
    mismatched: list[int] = []
    for s in sent:
        want = expected.get(s.index)
        if want is None:
            continue
        got = arrivals.get(s.trace_id)
        if got is None:
            if not want.is_zero():
                undelivered.append(s.index)
            continue
        if got.delta != want:
            mismatched.append(s.index)
        if not want.is_zero():
            delivery[s.index] = got.last - s.due
    return Matched(delivery, undelivered, mismatched)
