"""Per-layer metrics of the traced run, computed from its spans.

Inputs are the NDJSON span files ``bootstrap.py`` writes per server
process, the load generator's own spans, and one root span per batch
(due time to the arrival of its last delta).  Every metric is named
after the module that does the work; a layer a workload never reaches
(no WAL on ``wire-q6``, no router on ``shared-views``) reports 0.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict

from perfbench.spans import Span, layer_self_times
from perfbench.stats import percentile

#: tail percentile of the per-layer timings (the open-loop phase of a
#: traced run has >= 100 batches: p90 has >= 10 samples beyond it)
TAIL = 90.0

#: (name, unit) of every per-layer metric, in report order
METRICS = [
    ("net.client.batch_ms_p50", "ms"),
    ("net.client.batch_ms_p90", "ms"),
    ("net.client.encode_ms_p50", "ms"),
    ("net.client.stream_decode_ms_p50", "ms"),
    ("net.wire.request_bytes_per_tuple", "bytes/tuple"),
    ("net.wire.stream_bytes_per_delta", "bytes"),
    ("net.server.request_ms_p50", "ms"),
    ("net.server.request_ms_p90", "ms"),
    ("net.server.decode_ms_p50", "ms"),
    ("net.server.stream_encode_ms_p50", "ms"),
    ("net.server.lag_drops", "count"),
    ("service.lock_wait_ms_p50", "ms"),
    ("service.lock_wait_ms_p90", "ms"),
    ("service.admission_self_ms_p50", "ms"),
    ("service.publish_ms_p50", "ms"),
    ("service.views_touched_per_batch", "count"),
    ("service.dag.factor_ms_p50", "ms"),
    ("service.dag.factor_ms_p90", "ms"),
    ("service.dag.programs_per_view", "ratio"),
    ("exec.maintain_ms_p50", "ms"),
    ("exec.maintain_ms_p90", "ms"),
    ("exec.maintain_calls_per_batch", "count"),
    ("exec.delta_tuples_per_batch", "tuples"),
    ("durability.wal_append_ms_p50", "ms"),
    ("durability.wal_append_ms_p90", "ms"),
    ("durability.wal_sync_ms_p90", "ms"),
    ("durability.wal_bytes_per_batch", "bytes"),
    ("durability.checkpoint_ms_max", "ms"),
    ("cluster.split_ms_p50", "ms"),
    ("cluster.scatter_ms_p50", "ms"),
    ("cluster.scatter_ms_p90", "ms"),
    ("cluster.shard_skew", "ratio"),
    ("cluster.merge_ms_p50", "ms"),
    ("loadgen.late_ms_p90", "ms"),
    ("loadgen.gc_pause_ms_total", "ms"),
    ("unattributed_share", "ratio"),
    ("program_span_gap_share", "ratio"),
    ("trace_overhead_share", "ratio"),
]

def load_spans(spans_dir: str) -> tuple[dict[str, list[Span]], list[str]]:
    """Spans of every server process, grouped by batch trace id, plus
    the wrapper targets a process could not find."""
    by_trace: dict[str, list[Span]] = defaultdict(list)
    missing: list[str] = []
    for path in sorted(glob.glob(os.path.join(spans_dir, "*.ndjson"))):
        with open(path, encoding="utf-8") as f:
            header = json.loads(f.readline())
            missing += [f"{header['proc']}: {m}" for m in header["missing"]]
            for line in f:
                d = json.loads(line)
                by_trace[d["trace"]].append(Span(
                    d["id"], d["layer"], d["start"], d["end"],
                    d["parent"], d["proc"], d["thread"], d["attrs"],
                ))
    return by_trace, missing


def _ms(values, p) -> float:
    return percentile(values, p) * 1e3 if values else 0.0


def _median(values) -> float:
    return percentile(values, 50.0) if values else 0.0


def _nested(span: Span, spans: list[Span]) -> list[Span]:
    """Spans on ``span``'s thread that lie inside it."""
    return [s for s in spans
            if s is not span and s.proc == span.proc
            and s.thread == span.thread
            and s.start >= span.start and s.end <= span.end]


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def compute(batches, entry_proc: str, extra: dict):
    """Per-layer metrics over ``batches`` — ``(sent, root, spans)`` per
    batch, ``root`` ``None`` when nothing was delivered — and the
    per-batch self-time table.

    ``entry_proc`` is the process the load generator talks to;
    ``extra`` holds the figures measured outside the spans
    (``lag_drops``, ``programs_per_view``, ``late_s``, ``gc_pause_s``,
    ``overhead``, ``all_spans``).  Returns ``(metrics, breakdown,
    sum_errors)``: ``breakdown`` maps layer -> median self ms over the
    delivered batches, ``sum_errors`` the batches whose self times do
    not add up to their root.
    """
    v = defaultdict(list)
    unattributed = root_total = program_gap = 0.0
    n_delivered = 0
    self_ms = defaultdict(list)
    sum_errors = []
    for sent, root, spans in batches:
        by_layer = defaultdict(list)
        for s in spans:
            by_layer[s.layer].append(s)
        v["client_batch"] += [s.dur for s in by_layer["net.client.batch"]]
        v["client_encode"].append(
            sum(s.dur for s in by_layer["net.client.encode"]))
        v["stream_decode"] += [s.dur for s in
                               by_layer["net.client.stream_decode"]]
        entry = [s for s in spans if s.proc == entry_proc
                 and s.layer.endswith(".request")]
        if entry and sent.tuples:
            v["req_bytes"].append(entry[0].attrs.get("bytes", 0)
                                  / sent.tuples)
        for s in spans:
            if s.proc == entry_proc and s.layer.endswith("stream_encode") \
                    and "bytes" in s.attrs:
                v["stream_bytes"].append(s.attrs["bytes"])
        v["request"] += [s.dur for s in by_layer["net.server.request"]]
        v["decode"] += [s.dur for s in by_layer["net.server.decode"]]
        enc = defaultdict(float)
        for s in by_layer["net.server.stream_encode"]:
            enc[(s.proc, s.thread, s.parent)] += s.dur
        v["stream_encode"] += list(enc.values())
        for s in by_layer["service.ingest"]:
            inner = _nested(s, spans)
            if inner:
                v["lock_wait"].append(min(x.start for x in inner) - s.start)
        for s in by_layer["service.admission"]:
            v["admission_self"].append(
                s.dur - _union((x.start, x.end) for x in _nested(s, spans)))
            if "touched" in s.attrs:
                v["touched"].append(s.attrs["touched"])
        v["publish"] += [s.dur for s in by_layer["service.publish"]]
        v["factor"] += [s.dur for s in by_layer["service.dag.factor"]]
        maintain = by_layer["exec.maintain"]
        v["maintain"].append(sum(s.dur for s in maintain))
        v["maintain_calls"].append(len(maintain))
        v["delta_tuples"].append(sum(s.attrs.get("tuples", 0)
                                     for s in by_layer["exec.last_delta"]))
        wal = defaultdict(float)
        for s in by_layer["durability.wal_append"]:
            wal[s.proc] += s.dur
        v["wal_append"] += list(wal.values())
        v["wal_sync"] += [s.dur for s in by_layer["durability.wal_sync"]]
        if by_layer["durability.wal_append"]:
            v["wal_bytes"].append(sum(s.attrs.get("bytes", 0) for s in
                                      by_layer["durability.wal_append"]))
        for s in by_layer["cluster.split"]:
            v["split"].append(s.dur)
            parts = [int(x) for x in str(s.attrs.get("parts", "")).split(",")
                     if x]
            if parts and sum(parts):
                v["skew"].append(max(parts) / (sum(parts) / len(parts)))
        if by_layer["cluster.scatter"]:
            v["scatter"].append(max(s.dur for s in by_layer["cluster.scatter"]))
        v["merge"] += [s.dur for s in by_layer["cluster.merge"]]

        if root is None:
            continue
        selfs = layer_self_times(root, spans)
        total = sum(selfs.values())
        if abs(total - root.dur) > 1e-6:
            sum_errors.append(sent.index)
        n_delivered += 1
        unattributed += selfs.get("unattributed", 0.0)
        root_total += root.dur
        program_gap += root.dur - _union(
            (max(s.start, root.start), min(s.end, root.end)) for s in spans
            if s.attrs.get("program") and s.end > root.start
            and s.start < root.end
        )
        for layer, secs in selfs.items():
            self_ms[layer].append(secs * 1e3)
    # A layer absent from a batch spent 0 ms on it: pad before taking
    # medians so each column is over the same delivered batches.
    breakdown = {
        layer: _median(vals + [0.0] * (n_delivered - len(vals)))
        for layer, vals in sorted(self_ms.items())
    }

    checkpoints = [s.dur for s in extra["all_spans"]
                   if s.layer == "durability.checkpoint"]
    values = {
        "net.client.batch_ms_p50": _ms(v["client_batch"], 50),
        "net.client.batch_ms_p90": _ms(v["client_batch"], TAIL),
        "net.client.encode_ms_p50": _ms(v["client_encode"], 50),
        "net.client.stream_decode_ms_p50": _ms(v["stream_decode"], 50),
        "net.wire.request_bytes_per_tuple": _median(v["req_bytes"]),
        "net.wire.stream_bytes_per_delta": _median(v["stream_bytes"]),
        "net.server.request_ms_p50": _ms(v["request"], 50),
        "net.server.request_ms_p90": _ms(v["request"], TAIL),
        "net.server.decode_ms_p50": _ms(v["decode"], 50),
        "net.server.stream_encode_ms_p50": _ms(v["stream_encode"], 50),
        "net.server.lag_drops": extra["lag_drops"],
        "service.lock_wait_ms_p50": _ms(v["lock_wait"], 50),
        "service.lock_wait_ms_p90": _ms(v["lock_wait"], TAIL),
        "service.admission_self_ms_p50": _ms(v["admission_self"], 50),
        "service.publish_ms_p50": _ms(v["publish"], 50),
        "service.views_touched_per_batch": _median(v["touched"]),
        "service.dag.factor_ms_p50": _ms(v["factor"], 50),
        "service.dag.factor_ms_p90": _ms(v["factor"], TAIL),
        "service.dag.programs_per_view": extra["programs_per_view"],
        "exec.maintain_ms_p50": _ms(v["maintain"], 50),
        "exec.maintain_ms_p90": _ms(v["maintain"], TAIL),
        "exec.maintain_calls_per_batch": _median(v["maintain_calls"]),
        "exec.delta_tuples_per_batch": _median(v["delta_tuples"]),
        "durability.wal_append_ms_p50": _ms(v["wal_append"], 50),
        "durability.wal_append_ms_p90": _ms(v["wal_append"], TAIL),
        "durability.wal_sync_ms_p90": _ms(v["wal_sync"], TAIL),
        "durability.wal_bytes_per_batch": _median(v["wal_bytes"]),
        "durability.checkpoint_ms_max": max(checkpoints, default=0.0) * 1e3,
        "cluster.split_ms_p50": _ms(v["split"], 50),
        "cluster.scatter_ms_p50": _ms(v["scatter"], 50),
        "cluster.scatter_ms_p90": _ms(v["scatter"], TAIL),
        "cluster.shard_skew": _median(v["skew"]),
        "cluster.merge_ms_p50": _ms(v["merge"], 50),
        "loadgen.late_ms_p90": _ms(extra["late_s"], TAIL),
        "loadgen.gc_pause_ms_total": extra["gc_pause_s"] * 1e3,
        "unattributed_share": unattributed / root_total if root_total
        else 0.0,
        "program_span_gap_share": program_gap / root_total if root_total
        else 0.0,
        "trace_overhead_share": extra["overhead"],
    }
    units = dict(METRICS)
    metrics = {name: (float(values[name]), units[name]) for name, _ in
               METRICS}
    return metrics, breakdown, sum_errors
