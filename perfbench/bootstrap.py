"""Start ``repro.cli.main`` with the layer boundaries timed from outside.

Usage (the traced run spawns servers this way)::

    python perfbench/bootstrap.py --spans-out S.ndjson --proc shard0 \\
        -- serve --port 0 ...

Before handing over to the CLI this wraps the public functions at each
layer boundary — the HTTP handler, the GMR codec, ``ViewService.ingest``,
the write-ahead log, the shard split, the backends' changefeed — and
captures every span the program's own tracer emits (``admission``,
``factor``, ``maintain``, ``publish``, ``deliver``, ``scatter``,
``merge``, ``checkpoint``).  Spans stay in memory and are written as
NDJSON when the CLI returns (the benchmark stops it with SIGINT, which
the CLI handles as Ctrl-C).  Nothing in the program changes; a wrapper
whose target no longer exists is skipped and listed in the output's
``missing`` record.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: program tracer stage -> layer, per process role
STAGE_LAYERS = {
    "server": {
        "admission": "service.admission",
        "factor": "service.dag.factor",
        "maintain": "exec.maintain",
        "publish": "service.publish",
        "deliver": "net.server.deliver",
        "flush": "ingest.flush",
        "checkpoint": "durability.checkpoint",
        "recover": "durability.recover",
    },
    "router": {
        "admission": "cluster.admission",
        "scatter": "cluster.scatter",
        "merge": "cluster.merge",
        "deliver": "cluster.deliver",
    },
}


class Recorder:
    """In-memory span sink shared by every wrapper of one process."""

    def __init__(self, proc: str, role: str):
        self.proc = proc
        self.role = role
        self.records: list[tuple] = []
        self.missing: list[str] = []
        self.patched: list[tuple] = []
        self.local = threading.local()
        self._ids = itertools.count(1)

    def batch_trace(self) -> str | None:
        return getattr(self.local, "trace", None)

    def add(self, layer, trace, start, dur, parent=None, span_id=None,
            attrs=None) -> None:
        if trace is None:
            return
        if span_id is None:
            span_id = f"{self.proc}-w{next(self._ids)}"
        # list.append is atomic under the GIL: no lock on the hot path.
        self.records.append((
            span_id, layer, trace, start, start + dur, parent,
            threading.get_ident(), attrs,
        ))

    def restore(self) -> None:
        """Undo every patch (the load generator wraps only one session)."""
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"proc": self.proc, "role": self.role,
                                "missing": self.missing}) + "\n")
            for sid, layer, trace, start, end, parent, tid, attrs in \
                    self.records:
                f.write(json.dumps({
                    "id": sid, "layer": layer, "trace": trace,
                    "start": start, "end": end, "parent": parent,
                    "proc": self.proc, "thread": tid,
                    "attrs": attrs or {},
                }, separators=(",", ":")) + "\n")


def _patch(rec: Recorder, owner, name: str, make):
    """Replace ``owner.name`` with ``make(original)``; records the
    target as missing when the program no longer has it."""
    original = getattr(owner, name, None)
    if original is None:
        rec.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return
    rec.patched.append((owner, name, original))
    setattr(owner, name, make(original))


def _timed(rec: Recorder, layer: str, trace_of=None, attrs_of=None):
    """Wrapper factory: time the call as a ``layer`` span of the
    thread's current batch, or of the ``(trace, parent)`` that
    ``trace_of(args)`` reads off the arguments."""

    def make(fn):
        def wrapper(*args, **kwargs):
            start = time.time()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - t0
                trace, parent = (
                    trace_of(args) if trace_of is not None else (None, None)
                )
                attrs = (
                    attrs_of(args, result)
                    if attrs_of is not None and result is not None else None
                )
                rec.add(layer, trace or rec.batch_trace(), start, dur,
                        parent=parent, attrs=attrs)

        return wrapper

    return make


def install(rec: Recorder) -> None:
    from repro.net import server as net_server
    from repro.obs import TRACE_HEADER, Tracer

    role_layers = STAGE_LAYERS[rec.role]
    prefix = "net.server" if rec.role == "server" else "cluster.router"

    # -- the program's own spans ----------------------------------------
    def make_emit(original):
        def _emit(self, span):
            original(self, span)
            layer = role_layers.get(span.stage, f"{rec.role}.{span.stage}")
            attrs = {k: v for k, v in span.attrs.items()
                     if isinstance(v, (int, float, str))}
            attrs["program"] = 1
            rec.add(layer, rec.batch_trace() or span.trace_id, span.start,
                    span.dur_s, parent=span.parent_id, span_id=span.span_id,
                    attrs=attrs)
        return _emit

    _patch(rec, Tracer, "_emit", make_emit)

    # -- HTTP request handling: sets the batch trace for the thread -----
    def make_post(original):
        def do_POST(self):
            header = self.headers.get(TRACE_HEADER) or ""
            trace, _, parent = header.partition("/")
            if not trace or not self.path.startswith("/batch/"):
                return original(self)
            rec.local.trace = trace
            start = time.time()
            t0 = time.perf_counter()
            try:
                return original(self)
            finally:
                rec.add(f"{prefix}.request", trace, start,
                        time.perf_counter() - t0, parent=parent or None,
                        attrs={"bytes": int(
                            self.headers.get("Content-Length") or 0)})
                rec.local.trace = None
        return do_POST

    _patch(rec, net_server.JsonHttpHandler, "do_POST", make_post)

    # -- stream envelopes: the trace rides on the event -----------------
    def event_trace(args):
        ctx = getattr(args[0], "trace", None)
        return (ctx.trace_id, ctx.span_id) if ctx is not None else (None,
                                                                      None)

    def line_bytes(args, result):
        return {"bytes": len(result)}

    if rec.role == "server":
        _patch(rec, net_server, "decode_gmr",
               _timed(rec, "net.server.decode"))
        _patch(rec, net_server, "encode_delta",
               _timed(rec, "net.server.stream_encode", event_trace))
        _patch(rec, net_server, "dump_line",
               _timed(rec, "net.server.stream_encode", envelope_trace,
                      line_bytes))
        from repro.service import ViewService
        _patch(rec, ViewService, "ingest", _timed(rec, "service.ingest"))

        from repro.exec.backend import NativeChangefeed
        _patch(rec, NativeChangefeed, "last_delta",
               _timed(rec, "exec.last_delta",
                      attrs_of=lambda a, r: {"tuples": len(r)}))

        from repro.durability.wal import WriteAheadLog

        def make_wal(fn):
            def wrapper(self, *args, **kwargs):
                before = self.bytes_written
                start = time.time()
                t0 = time.perf_counter()
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    rec.add("durability.wal_append", rec.batch_trace(),
                            start, time.perf_counter() - t0,
                            attrs={"bytes": self.bytes_written - before})
            return wrapper

        for method in ("append_batch", "append_delta"):
            _patch(rec, WriteAheadLog, method, make_wal)
        _patch(rec, WriteAheadLog, "sync",
               _timed(rec, "durability.wal_sync"))
        _patch(rec, os, "fsync", _timed(rec, "durability.wal_sync"))
    else:
        from repro.cluster import router as cluster_router
        from repro.cluster.shardmap import ShardMap

        _patch(rec, cluster_router, "decode_gmr",
               _timed(rec, "cluster.router.decode"))
        _patch(rec, cluster_router, "dump_line",
               _timed(rec, "cluster.router.stream_encode", envelope_trace,
                      line_bytes))
        _patch(rec, ShardMap, "split", _timed(
            rec, "cluster.split",
            attrs_of=lambda a, parts: {
                "parts": ",".join(str(len(p)) for p in parts)
            },
        ))
        trace_client(rec, "cluster.scatter.encode")


def trace_client(rec: Recorder, encode_layer: str,
                 decode_layer: str | None = None) -> None:
    """Time ``repro.net.Client``'s batch encoding (and, given
    ``decode_layer``, its stream decoding) in this process."""
    from repro.net import client as net_client

    # Each batch call makes its trace the thread's current one, so the
    # encode underneath it (also on router fan-out threads) joins it.
    def make_batch(original):
        def batch(self, relation, gmr, trace=None):
            rec.local.trace = trace.trace_id if trace else None
            try:
                return original(self, relation, gmr, trace=trace)
            finally:
                rec.local.trace = None
        return batch

    _patch(rec, net_client.Client, "batch", make_batch)
    _patch(rec, net_client, "encode_gmr", _timed(rec, encode_layer))
    if decode_layer is not None:
        _patch(rec, net_client, "decode_delta",
               _timed(rec, decode_layer, envelope_trace))


def envelope_trace(args):
    """``(trace id, parent span)`` of a delta envelope argument."""
    obj = args[0]
    if not isinstance(obj, dict) or obj.get("type") != "delta":
        return None, None
    t = obj.get("trace")
    if not isinstance(t, dict):
        return None, None
    return t.get("id"), t.get("span")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--proc", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    if not cli_argv:
        parser.error("no CLI command after --")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro import cli

    role = "router" if cli_argv[0] == "route" else "server"
    rec = Recorder(args.proc, role)
    install(rec)
    try:
        return cli.main(cli_argv)
    finally:
        rec.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
