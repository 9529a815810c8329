"""Per-layer metrics from the spans of one synthetic batch."""

import pytest

from perfbench.layers import METRICS, compute
from perfbench.loadgen import Sent
from perfbench.spans import Span


def span(id, layer, start, end, proc="server", thread=7, parent=None,
         **attrs):
    return Span(id, layer, float(start), float(end), parent, proc, thread,
                attrs)


def test_one_batch_through_one_server():
    sent = Sent(0, "t0", 100, due=0.0, send=0.5, ack=9.0, ok=True)
    root = Span("root", "root", 0.0, 10.0)
    spans = [
        span("late", "loadgen.late", 0.0, 0.5, proc="loadgen", thread=1),
        span("t0c", "net.client.batch", 0.5, 9.0, proc="loadgen",
             thread=1),
        span("enc", "net.client.encode", 0.6, 1.0, proc="loadgen",
             thread=1),
        span("req", "net.server.request", 2.0, 8.0, parent="t0c",
             bytes=5000),
        span("ing", "service.ingest", 3.0, 7.0),
        span("adm", "service.admission", 3.5, 6.5, parent="t0c",
             touched=3, program=1),
        span("mnt", "exec.maintain", 4.0, 5.0, parent="adm", program=1),
        span("pub", "service.publish", 5.5, 6.0, parent="adm", program=1),
        span("dec", "net.client.stream_decode", 9.5, 9.8, proc="loadgen",
             thread=2, parent="pub"),
    ]
    extra = {"lag_drops": 0, "programs_per_view": 1.0, "late_s": [0.5],
             "gc_pause_s": 0.0, "overhead": 0.02, "all_spans": spans}
    metrics, breakdown, sum_errors = compute(
        [(sent, root, spans)], "server", extra)
    assert [name for name, _ in METRICS] == list(metrics)
    m = {k: v for k, (v, _) in metrics.items()}
    assert sum_errors == []
    assert m["service.lock_wait_ms_p50"] == pytest.approx(500)
    assert m["service.admission_self_ms_p50"] == pytest.approx(1500)
    assert m["exec.maintain_ms_p50"] == pytest.approx(1000)
    assert m["exec.maintain_calls_per_batch"] == 1
    assert m["service.views_touched_per_batch"] == 3
    assert m["net.wire.request_bytes_per_tuple"] == pytest.approx(50)
    # uncovered: 1.0-2.0 (client only) is the client's self time; the
    # root alone owns 9.0-9.5 and 9.8-10.0
    assert m["unattributed_share"] == pytest.approx(0.07)
    # program spans cover 3.5-6.5 of the 10 s
    assert m["program_span_gap_share"] == pytest.approx(0.7)
    assert sum(breakdown.values()) == pytest.approx(10_000)
    assert m["durability.wal_append_ms_p50"] == 0.0  # layer not reached
