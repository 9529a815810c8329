"""Server subprocesses: spawn, find their ephemeral ports, tear down.

Servers are the real CLI — ``python -m repro serve`` / ``route`` — or,
for the traced run, the same CLI started through ``bootstrap.py``.
Their output goes to a log file in the run's work directory (a pipe
nobody drains could block a chatty server); the bound port is read
from the startup line the CLI prints.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

_PORT_RE = re.compile(r"serving on http://[\d.]+:(\d+)|"
                      r"views on http://[\d.]+:(\d+)")

STARTUP_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 5.0

def pin_cpus() -> list[int] | None:
    """Pin the load generator and every server to one CPU each.

    The CPUs this process may use are dealt round-robin: the calling
    thread (and every thread it starts later) gets the first, and the
    k-th process a :class:`Topology` given the returned list starts
    gets the (k+1)-th, modulo their number — on two CPUs the generator
    and a lone server get one each, and the two shards of a router
    topology run on different CPUs.
    Left to the scheduler, the threads of the generator and the servers
    migrate between CPUs and the placement of the moment decides how
    fast a batch goes: on this benchmark's 2-vCPU host closed-loop
    bursts of one run came out in two modes up to 40% apart.  Returns
    the CPU list, or ``None`` (nothing pinned) on a machine with a
    single usable CPU or without ``sched_setaffinity``.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus


class ServerProc:
    """One server subprocess and what is known about it."""

    def __init__(self, tag: str, popen: subprocess.Popen, log_path: str):
        self.tag = tag
        self.popen = popen
        self.log_path = log_path
        self.port: int | None = None

    def log_tail(self, n: int = 20) -> str:
        try:
            with open(self.log_path, encoding="utf-8", errors="replace") as f:
                return "".join(f.readlines()[-n:])
        except OSError:
            return ""

    def wait_port(self, deadline: float) -> int:
        """Poll the log for the startup line; raises if the process
        exits first or the deadline passes."""
        while True:
            try:
                with open(self.log_path, encoding="utf-8",
                          errors="replace") as f:
                    m = _PORT_RE.search(f.read())
            except OSError:
                m = None
            if m:
                self.port = int(m.group(1) or m.group(2))
                return self.port
            if self.popen.poll() is not None:
                raise RuntimeError(
                    f"{self.tag} exited with {self.popen.returncode} "
                    f"before listening:\n{self.log_tail()}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"{self.tag} did not start within "
                    f"{STARTUP_TIMEOUT_S:.0f}s:\n{self.log_tail()}"
                )
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` (peak resident set) of the live process, in MiB."""
        with open(f"/proc/{self.popen.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"{self.tag}: no VmHWM in /proc status")


class Topology:
    """The server processes of one session (a server, or shards plus a
    router), started in dependency order and torn down on every exit
    path by :meth:`close`; ``cpus`` is :func:`pin_cpus`'s list (``None``:
    not pinned)."""

    def __init__(self, root: str, workdir: str, spans_dir: str | None,
                 cpus: list[int] | None = None):
        self.root = root
        self.workdir = workdir
        self.spans_dir = spans_dir
        self.cpus = cpus
        self.procs: list[ServerProc] = []
        os.makedirs(workdir, exist_ok=True)

    def _command(self, tag: str, argv: list[str]) -> list[str]:
        if self.spans_dir is None:
            return [sys.executable, "-m", "repro", *argv]
        return [
            sys.executable,
            os.path.join(self.root, "perfbench", "bootstrap.py"),
            "--spans-out", os.path.join(self.spans_dir, f"{tag}.ndjson"),
            "--proc", tag, "--", *argv,
        ]

    def spawn(self, tag: str, argv: list[str]) -> ServerProc:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        log_path = os.path.join(self.workdir, f"{tag}.log")
        # A child inherits the CPUs of the thread that forks it: move
        # this thread to the child's CPU for the fork only.
        own = os.sched_getaffinity(0) if self.cpus else None
        try:
            if own is not None:
                cpus = self.cpus
                os.sched_setaffinity(
                    0, {cpus[(len(self.procs) + 1) % len(cpus)]})
            with open(log_path, "wb") as log:
                popen = subprocess.Popen(
                    self._command(tag, argv), stdout=log,
                    stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                    env=env, cwd=self.workdir,
                )
        finally:
            if own is not None:
                os.sched_setaffinity(0, own)
        proc = ServerProc(tag, popen, log_path)
        self.procs.append(proc)
        return proc

    def start(self, workload) -> int:
        """Start every process of ``workload``; returns the port the
        load generator talks to (the server, or the router)."""
        deadline = time.perf_counter() + STARTUP_TIMEOUT_S
        if workload.topology == "serve":
            argv = ["serve", "--port", "0"]
            for name, source in workload.views.items():
                if source == name:
                    argv.append(name)
                else:
                    argv += ["--sql", f"{name}={source}"]
            argv += workload.serve_args
            return self.spawn("server", argv).wait_port(deadline)

        shards = []
        for i in range(workload.n_shards):
            argv = ["serve", "--port", "0", *workload.serve_args]
            if workload.durable:
                argv += ["--wal-dir", os.path.join(self.workdir, f"wal{i}")]
            shards.append(self.spawn(f"shard{i}", argv))
        ports = [p.wait_port(deadline) for p in shards]
        argv = [
            "route", "--port", "0",
            "--shards", ",".join(f"127.0.0.1:{p}" for p in ports),
            *workload.route_args,
        ]
        for name, source in workload.views.items():
            argv += ["--sql", f"{name}={source}"]
        return self.spawn("router", argv).wait_port(deadline)

    def peak_rss_mb(self) -> float:
        return sum(p.peak_rss_mb() for p in self.procs)

    def close(self) -> None:
        """Stop every process and wait for each: SIGINT — the CLI's own
        Ctrl-C path, which closes the server (and a durable service's
        log) at once, where ``POST /shutdown`` waits out
        ``serve_forever``'s half-second poll — then SIGTERM, then
        SIGKILL, each sent to whatever still runs
        ``SHUTDOWN_TIMEOUT_S`` after the one before."""
        live = [p.popen for p in self.procs]
        for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGKILL):
            live = [p for p in live if p.poll() is None]
            for p in live:
                p.send_signal(sig)
            deadline = time.perf_counter() + SHUTDOWN_TIMEOUT_S
            for p in live:
                try:
                    p.wait(timeout=max(0.0, deadline - time.perf_counter()))
                except subprocess.TimeoutExpired:
                    pass
        for p in live:
            p.wait()
        self.procs = []


def shm_segments() -> set[str]:
    """Names of the repo's shared-memory segments currently in
    ``/dev/shm`` (the ``multiproc`` data plane names them ``repro*``)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro")}
    except OSError:
        return set()
