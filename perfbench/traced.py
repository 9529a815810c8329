"""The traced run: where each batch's time goes, layer by layer.

Two sessions over the same batches: an untraced reference (plain
servers) and a traced one (servers started through ``bootstrap.py``,
the load generator's client wrapped the same way).  Per-layer metrics
come from the traced session's open-loop phase; the reference session
gives ``trace_overhead_share``, the traced median delivery latency over
the untraced one on the same batches, minus one.
"""

from __future__ import annotations

import gc
import json
import os
import re
import statistics
import threading
import urllib.request

from perfbench.bootstrap import Recorder, trace_client
from perfbench.layers import compute, load_spans
from perfbench.loadgen import LoadGen, backlog, match_deliveries
from perfbench.oracle import Oracle
from perfbench.run import (
    OPEN_SHARE,
    REFERENCE_SHARE,
    WARM_BATCHES,
    GcPauses,
    Session,
)
from perfbench.spans import Span

_LAG_RE = re.compile(
    r"^repro_(?:server|router)_stream_lag_drops_total(?:\{[^}]*\})?\s+"
    r"([0-9.eE+-]+)", re.M,
)


def _lag_drops(client) -> float:
    return sum(float(m) for m in _LAG_RE.findall(client.metrics_raw()))


def _programs_per_view(port: int) -> float:
    """Maintenance programs per view from the server's DAG dump
    (``GET /views?dag=1``)."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/views?dag=1", timeout=30
    ) as reply:
        dump = json.loads(reply.read())["dag"]
    views = dump.get("views") or {}
    return dump["maintenance_programs"] / len(views) if views else 0.0


def _session(workload, workdir, spans_dir, tag, warm, open_b, rec, cpus):
    """Warm-up then the open-loop phase; returns what the checks and
    the metrics need.  ``rec`` wraps the load generator's client for
    the duration when given."""
    session = Session(workload, workdir, spans_dir, cpus)
    out = {}
    try:
        if rec is not None:
            trace_client(rec, "net.client.encode", "net.client.stream_decode")
        session.open()
        lg = LoadGen(session.client, session.subscriber, tag)
        lg.closed_loop(warm, 0)
        lg.barrier()
        with GcPauses() as pauses:
            out["open"] = lg.open_loop(open_b, len(warm), workload.rate)
            lg.barrier()
        out["gc_pause_s"] = pauses.total_s
        if spans_dir is not None:
            out["lag_drops"] = _lag_drops(session.client)
            dag_port = next(
                p.port for p in session.topology.procs
                if p.tag in ("server", "shard0")
            )
            out["programs_per_view"] = _programs_per_view(dag_port)
            out["snapshots"] = {
                v: session.client.snapshot(v) for v in workload.views
            }
        else:
            out["snapshots"] = {
                workload.watched: session.client.snapshot(workload.watched)
            }
        out["reason"] = session.stream.closed_reason
    finally:
        session.close()
        if rec is not None:
            rec.restore()
    out["sent"] = lg.sent
    out["subscriber"] = session.subscriber
    return out


def run_traced(workload, seed: int, seconds: float, workdir: str,
               cpus: list[int] | None = None):
    n_open = max(8, round(workload.rate * seconds * OPEN_SHARE))
    n_ref = max(8, round(n_open * REFERENCE_SHARE))
    batches = workload.batches(seed, WARM_BATCHES + n_open)
    warm = batches[:WARM_BATCHES]
    gc.collect()
    gc.freeze()

    ref = _session(workload, os.path.join(workdir, "ref"), None, "r",
                   warm, batches[WARM_BATCHES:WARM_BATCHES + n_ref], None,
                   cpus)
    spans_dir = os.path.join(workdir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    rec = Recorder("loadgen", "loadgen")
    traced = _session(workload, os.path.join(workdir, "traced"),
                      spans_dir, "t", warm, batches[WARM_BATCHES:], rec,
                      cpus)

    # Correctness: per-batch deltas in both sessions, final state in the
    # traced one (the reference sent a prefix of the same batches).
    oracle = Oracle(workload.specs(), workload.watched)
    expected = [oracle.step(rel, b) for rel, b in batches]
    findings = [f"view {view}: snapshot != oracle"
                for view, snap in traced["snapshots"].items()
                if snap != oracle.final(view)]
    attempted, failed = len(traced["snapshots"]), len(findings)
    for name, sess in (("reference", ref), ("traced", traced)):
        sub = sess["subscriber"]
        sent = sess["sent"]
        m = match_deliveries(sent, sub.arrivals,
                             {s.index: expected[s.index] for s in sent})
        bad = [s for s in sent if not s.ok]
        problems = (
            [f"{name} batch {s.index}: {s.error}" for s in bad]
            + [f"{name} batch {i}: never delivered" for i in m.undelivered]
            + [f"{name} batch {i}: delta != oracle" for i in m.mismatched]
        )
        if sub.accumulated != sess["snapshots"][workload.watched]:
            problems.append(f"{name}: accumulated deltas != snapshot")
        if sess["reason"] is not None or sub.error:
            problems.append(
                f"{name}: stream closed ({sess['reason'] or sub.error})")
        if backlog(sess["open"], workload.rate):
            problems.append(f"{name}: open-loop backlog")
        findings += problems[:5]
        failed += len(problems)
        attempted += len(sent) + 1
        sess["matched"] = m

    # Per-batch spans of the traced open-loop phase.
    by_trace, missing = load_spans(spans_dir)
    loadgen_spans: dict[str, list[Span]] = {}
    for sid, layer, trace, start, end, parent, tid, attrs in rec.records:
        loadgen_spans.setdefault(trace, []).append(
            Span(sid, layer, start, end, parent, "loadgen", tid, attrs or {}))
    main_thread = threading.main_thread().ident
    sub = traced["subscriber"]
    per_batch = []
    for s in traced["open"]:
        off = s.wall_offset
        spans = by_trace.get(s.trace_id, []) + loadgen_spans.get(
            s.trace_id, [])
        spans.append(Span(f"{s.trace_id}late", "loadgen.late",
                          s.due + off, s.send + off, None, "loadgen",
                          main_thread))
        spans.append(Span(f"{s.trace_id}c", "net.client.batch",
                          s.send + off, s.ack + off, None, "loadgen",
                          main_thread))
        arrival = sub.arrivals.get(s.trace_id)
        root = None
        if arrival is not None and not expected[s.index].is_zero():
            root = Span(f"{s.trace_id}root", "root", s.due + off,
                        arrival.last + off)
        per_batch.append((s, root, spans))

    # Overhead: the traced session's first n_ref open-loop batches
    # against the reference session's (the same batches).
    def delivery_median(sess, n):
        idx = {s.index for s in sess["open"][:n]}
        vals = [d for i, d in sess["matched"].delivery_s.items() if i in idx]
        return statistics.median(vals) if vals else None

    ref_med = delivery_median(ref, n_ref)
    traced_med = delivery_median(traced, n_ref)
    overhead = traced_med / ref_med - 1.0 if ref_med and traced_med else 0.0
    extra = {
        "lag_drops": traced["lag_drops"],
        "programs_per_view": traced["programs_per_view"],
        "late_s": [s.send - s.due for s in traced["open"]],
        "gc_pause_s": traced["gc_pause_s"],
        "overhead": overhead,
        "all_spans": [s for spans in by_trace.values() for s in spans],
    }
    entry = "router" if workload.topology == "router" else "server"
    metrics, breakdown, sum_errors = compute(per_batch, entry, extra)
    if sum_errors:
        findings.append(
            f"{len(sum_errors)} batches whose layer self times do not add "
            "up to their end-to-end time")
        failed += len(sum_errors)
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "traced_batches": len(traced["open"]),
        "reference_batches": n_ref,
        "delivery_p50_ms": {"reference": (ref_med or 0) * 1e3,
                            "traced": (traced_med or 0) * 1e3},
        "self_ms_p50": breakdown,
        "missing_wrappers": missing,
        "failed_share": failed / attempted,
        "findings": findings,
    }
    return failed == 0, attempted, failed, metrics, detail
