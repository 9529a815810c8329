"""Run one workload of the serving benchmark and print its result.

    python3 perfbench/run.py --workload wire-q6 --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` reports the end-to-end metrics (untraced servers);
``--trace 1`` runs the same workload once untraced and once through
``bootstrap.py`` and reports the per-layer metrics.  The last line of
standard output is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it (``perfbench-detail``)
carries sample counts, tail percentiles, the environment and the
correctness findings.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 9
#: closed-loop warm-up batches before any timed phase
WARM_BATCHES = 40
#: share of ``--seconds`` given to the open-loop phase (the rest
#: measures capacity)
OPEN_SHARE = 0.6
#: rounds of the timed phase: each is an open-loop segment followed by
#: one closed-loop capacity burst, so both metrics sample the whole
#: run rather than one end of it; capacity is the median burst
ROUNDS = 12
#: seconds after which a run gives up and tears down (the contract
#: allows 180; stopping the servers takes at most 10 more)
RUN_DEADLINE_S = 165
#: traced runs: share of the open-loop batches the untraced reference
#: session sends (it only needs a median)
REFERENCE_SHARE = 0.5


class Aborted(BaseException):
    """Raised in the main thread by SIGTERM or the deadline alarm.  Not
    an ``Exception``: the load generator records a failed send and goes
    on, and an abort must not be recorded as one."""


def _abort(signum, frame):
    raise Aborted(f"run aborted by signal {signum}")


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _environment() -> dict:
    from repro.harness import bench_environment

    env = bench_environment()
    env["nproc"] = os.cpu_count()
    try:
        with open("/proc/loadavg") as f:
            env["loadavg"] = [float(x) for x in f.read().split()[:3]]
    except OSError:
        env["loadavg"] = None
    try:
        env["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        env["commit"] = "unknown (git unavailable)"
    return env


class GcPauses:
    """Wall time the load generator spends in its own collector."""

    def __init__(self):
        self.total_s = 0.0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.total_s += time.perf_counter() - self._t0

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class Session:
    """One live topology plus its producer client and subscriber."""

    def __init__(self, workload, workdir: str, spans_dir: str | None,
                 cpus: list[int] | None = None):
        from perfbench.procs import Topology

        self.workload = workload
        self.topology = Topology(ROOT, workdir, spans_dir, cpus)
        self.client = None
        self.stream = None
        self.subscriber = None
        self.setup_s = None

    def open(self) -> "Session":
        from repro.net import Client
        from perfbench.loadgen import Subscriber

        t0 = time.perf_counter()
        port = self.topology.start(self.workload)
        self.client = Client(port=port, timeout=60.0)
        self.stream = self.client.subscribe(self.workload.watched)
        self.setup_s = time.perf_counter() - t0
        self.subscriber = Subscriber(self.stream)
        self.subscriber.start()
        return self

    def close(self) -> None:
        # Servers first: their shutdown ends the stream, which lets the
        # subscriber's blocked read return at once.
        try:
            self.topology.close()
        finally:
            if self.stream is not None:
                self.stream.close()
            if self.subscriber is not None:
                self.subscriber.join(timeout=10.0)
            if self.client is not None:
                self.client.close()


def _plan(workload, seconds: float) -> dict:
    """Batch counts of the timed phases, per round.  The open loop runs
    for ``OPEN_SHARE`` of ``seconds`` at the workload's rate; the
    capacity bursts are a fixed amount of work — what the first
    baseline did in the rest of ``seconds`` — so every run, on every
    version, streams the same batches into the same state."""
    per_open = max(2, round(workload.rate * seconds * OPEN_SHARE / ROUNDS))
    per_cap = max(1, round(
        workload.cap_rate * seconds * (1.0 - OPEN_SHARE) / ROUNDS
    ))
    return {"rounds": ROUNDS, "open_per_round": per_open,
            "cap_per_round": per_cap,
            "n_open": ROUNDS * per_open, "n_cap": ROUNDS * per_cap}


def _check(workload, sent, batches, subscriber, snapshots, per_batch):
    """Correctness gate: per-batch deltas of the watched view for the
    ``per_batch`` indices, then subscriber accumulation == snapshot ==
    oracle for the watched view and snapshot == oracle for every view.
    Returns ``(expected, findings)``."""
    from perfbench.oracle import Oracle

    oracle = Oracle(workload.specs(), workload.watched)
    expected = {}
    for s in sent:
        relation, batch = batches[s.index]
        if s.index in per_batch:
            expected[s.index] = oracle.step(relation, batch)
        else:
            oracle.apply(relation, batch)
    findings = []
    for view, snap in snapshots.items():
        if snap != oracle.final(view):
            findings.append(f"view {view}: snapshot != oracle")
    if subscriber.accumulated != snapshots[workload.watched]:
        findings.append(
            f"view {workload.watched}: accumulated deltas != snapshot"
        )
    return expected, findings


def run_untraced(workload, seed: int, seconds: float, workdir: str,
                 cpus: list[int] | None = None):
    from perfbench.loadgen import LoadGen, backlog, match_deliveries
    from perfbench.procs import shm_segments
    from perfbench.stats import tail

    plan = _plan(workload, seconds)
    n_total = WARM_BATCHES + plan["n_open"] + plan["n_cap"]
    batches = workload.batches(seed, n_total)
    warm = batches[:WARM_BATCHES]
    per_round = plan["open_per_round"] + plan["cap_per_round"]
    # The pre-built batches are long-lived: without this, the
    # generator's own gen-2 collections over them stall sends for
    # ~100 ms and become the measured tail.
    gc.collect()
    gc.freeze()
    shm_before = shm_segments()

    setups = []
    for k in range(SETUPS - 1):
        s = Session(workload, os.path.join(workdir, f"setup{k}"), None,
                    cpus)
        try:
            setups.append(s.open().setup_s)
        finally:
            s.close()

    session = Session(workload, os.path.join(workdir, "run"), None, cpus)
    findings: list[str] = []
    try:
        session.open()
        setups.append(session.setup_s)
        lg = LoadGen(session.client, session.subscriber, "b")
        lg.closed_loop(warm, 0)
        lg.barrier()
        open_sent, bursts = [], []
        with GcPauses() as pauses:
            for k in range(ROUNDS):
                start = WARM_BATCHES + k * per_round
                seg = batches[start:start + per_round]
                open_sent += lg.open_loop(
                    seg[:plan["open_per_round"]], start, workload.rate)
                lg.barrier()
                # Capacity burst: closed loop, ended by a drain barrier
                # and timed until the subscriber reads its mark.
                t0 = time.perf_counter()
                done = lg.closed_loop(seg[plan["open_per_round"]:],
                                      start + plan["open_per_round"])
                bursts.append((sum(s.tuples for s in done),
                               lg.barrier() - t0))
            rss_mb = session.topology.peak_rss_mb()
        snapshots = {v: session.client.snapshot(v) for v in workload.views}
        reason = session.stream.closed_reason
    finally:
        session.close()
    if reason is not None:
        findings.append(f"subscriber stream closed: {reason}")
    if session.subscriber.error:
        findings.append(f"subscriber failed: {session.subscriber.error}")
    leaked = shm_segments() - shm_before
    if leaked:
        findings.append(f"leaked shm segments: {sorted(leaked)}")

    sent = lg.sent
    per_batch = {s.index for s in open_sent} | set(range(WARM_BATCHES))
    expected, view_findings = _check(
        workload, sent, batches, session.subscriber, snapshots, per_batch
    )
    findings += view_findings
    matched = match_deliveries(sent, session.subscriber.arrivals, expected)
    failed_batches = [s for s in sent if not s.ok]
    findings += [f"batch {s.index}: {s.error}" for s in failed_batches[:5]]
    findings += [f"batch {i}: never delivered"
                 for i in matched.undelivered[:5]]
    findings += [f"batch {i}: delivered delta != oracle"
                 for i in matched.mismatched[:5]]
    if session.subscriber.untraced:
        findings.append(
            f"{session.subscriber.untraced} deltas carried no trace id"
        )

    attempted = len(sent) + len(workload.views)
    failed = (
        len(failed_batches) + len(matched.undelivered)
        + len(matched.mismatched) + len(view_findings)
        + (1 if reason is not None or session.subscriber.error else 0)
        + (1 if leaked else 0) + (1 if session.subscriber.untraced else 0)
    )
    open_idx = {s.index for s in open_sent}
    ack = [s.ack - s.due for s in open_sent]
    delivery = [d for i, d in matched.delivery_s.items() if i in open_idx]
    late = [s.send - s.due for s in open_sent]
    n = plan["open_per_round"]
    invalid = any(backlog(open_sent[k:k + n], workload.rate)
                  for k in range(0, len(open_sent), n))
    if invalid:
        findings.append(
            "open-loop lateness kept growing (backlog): the latency "
            "figures of this run are invalid"
        )
    ack_t, del_t = tail(ack), tail(delivery)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "capacity_tuples_s": (
            statistics.median(t / secs for t, secs in bursts), "tuples/s"),
        "ack_p50_ms": (ack_t["p50"] * 1e3, "ms"),
        "delivery_p50_ms": (del_t["p50"] * 1e3, "ms"),
        "server_rss_mb": (rss_mb, "MiB"),
    }
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "rate_batches_s": workload.rate, "plan": plan,
        "setups_s": setups,
        "ack": ack_t, "delivery": del_t,
        "late_ms_p50": tail(late)["p50"] * 1e3,
        "late_ms_max": max(late) * 1e3,
        "backlog": invalid,
        "capacity_bursts": [{"tuples": t, "seconds": secs}
                            for t, secs in bursts],
        "gc_pause_ms_total": pauses.total_s * 1e3,
        "failed_share": failed / attempted,
        "findings": findings,
    }
    ok = failed == 0 and not invalid
    return ok, attempted, failed, metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        _fail_setup(f"no program sources under {src}: run from a "
                    "source checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail_setup(f"unknown workload {args.workload!r}; choose from "
                    + ", ".join(WORKLOADS))
    workdir = os.path.join(
        ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}"
    )
    from perfbench.procs import pin_cpus

    cpus = pin_cpus()  # before any thread or server starts
    # A hung server must not hang the run: past the deadline (and on
    # SIGTERM) raise in the main thread, so every ``finally`` below
    # tears the servers down before the process exits without a result.
    signal.signal(signal.SIGALRM, _abort)
    signal.signal(signal.SIGTERM, _abort)
    # The servers are stopped with SIGINT; a SIGINT this process was
    # started ignoring would be ignored by every server it spawns too.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.alarm(RUN_DEADLINE_S)
    shutil.rmtree(workdir, ignore_errors=True)  # never recover stale WALs
    try:
        if args.trace:
            from perfbench.traced import run_traced

            ok, attempted, failed, metrics, detail = run_traced(
                workload, args.seed, args.seconds, workdir, cpus
            )
        else:
            ok, attempted, failed, metrics, detail = run_untraced(
                workload, args.seed, args.seconds, workdir, cpus
            )
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run's work directory is still there
    detail["environment"] = _environment()
    detail["environment"]["cpus"] = cpus
    print("perfbench-detail " + json.dumps(detail, default=str))
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
