"""Server process control and the closed-loop load generator.

The load generator is this process: ``clients`` threads, each owning one
``JoinClient``.  A client submits a job, waits for it, fetches every page,
and only then takes the next job (a closed loop: ``JoinClient`` callers
each wait for their reply).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.errors import TransientWireError
from repro.net.client import JoinClient
from repro.net.server import result_fingerprint
from repro.net.wire import FetchPage, Page
from repro.obs.metrics import MetricsRegistry

import tracing
from workloads import Job, Served

HERE = os.path.dirname(os.path.abspath(__file__))
clock = time.perf_counter

#: Generous per-request bound; an n = 1024 algorithm 7 job takes seconds.
JOB_TIMEOUT_S = 120.0


class ServerProcess:
    """One ``perfbench/server.py`` child, stopped by closing its stdin."""

    def __init__(self, workdir: str, trace_out: str = "") -> None:
        self.journal = os.path.join(workdir, f"journal-{time.monotonic_ns()}")
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   "--journal", self.journal]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(
                f"server exited with code {self.proc.returncode} before "
                "listening")
        hello = json.loads(line)
        self.port: int = hello["port"]
        self.provider: str = hello["provider"]

    def stop(self) -> dict:
        """Close the pipe, collect the server's final report, reap it."""
        try:
            self.proc.stdin.close()
            report = json.loads(self.proc.stdout.readline() or "{}")
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            shutil.rmtree(self.journal, ignore_errors=True)
        return report


def serve(client: JoinClient, job: Job, tracer=None) -> Served:
    """Submit one job, wait for it, and fetch every page.

    With a tracer, the whole job is one ``client.job`` span and the page
    fetches one ``net.pages`` span inside it.
    """
    with tracer.span("client.job") if tracer else nullcontext() as root:
        return _serve(client, job, tracer, root)


def _serve(client: JoinClient, job: Job, tracer, root) -> Served:
    served = Served(job=job, submitted=clock())
    try:
        handle = client.submit_join(
            job.contract_id, dict(job.tables), job.predicate,
            recipient=job.recipient, algorithm=job.algorithm,
            epsilon=job.epsilon)
        served.job_id = handle.job_id
        if root is not None:
            root[tracing.JOB] = handle.job_id
        served.status = handle.wait(timeout=JOB_TIMEOUT_S)
        served.waited = clock()
        rows: list[bytes] = []
        relation = None
        with tracer.span("net.pages") if tracer else nullcontext():
            index = 0
            while True:
                page = client.request(FetchPage(handle.job_id, index))
                if not isinstance(page, Page):
                    raise RuntimeError(f"expected a page, got {page!r}")
                rows.extend(page.rows)
                chunk = page.relation()
                if relation is None:
                    relation = chunk
                else:
                    relation.extend(chunk)
                if page.last:
                    break
                index += 1
        served.delivered = relation
        served.pages_fingerprint = result_fingerprint(tuple(rows))
    except TransientWireError as exc:
        served.error = f"{type(exc).__name__}: {exc}"
        served.refused = "server busy" in str(exc)
    except Exception as exc:  # a lost job is counted, not fatal
        served.error = f"{type(exc).__name__}: {exc}"
    served.finished = clock()
    return served


@dataclass
class Window:
    """What one timed window produced."""

    runs: list[Served]
    start: float
    end: float
    client_metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_window(port: int, jobs: list[Job], clients: int, tracer=None
               ) -> Window:
    """Closed-loop load: ``clients`` clients serve ``jobs`` between them.

    The window runs from the first submission until the last job has
    returned its last page.
    """
    metrics = MetricsRegistry()
    lock = threading.Lock()
    runs: list[Served] = []
    queue = iter(jobs)
    start = clock()

    def loop() -> None:
        with JoinClient("127.0.0.1", port, metrics=metrics,
                        request_timeout=JOB_TIMEOUT_S) as client:
            while True:
                with lock:
                    job = next(queue, None)
                if job is None:
                    return
                served = serve(client, job, tracer)
                with lock:
                    runs.append(served)

    threads = [threading.Thread(target=loop, name=f"load-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Window(runs=runs, start=start, end=clock(), client_metrics=metrics)


def set_up(workdir: str, warmups: list[Job], trace_out: str = ""
           ) -> tuple[ServerProcess, float, list[Served]]:
    """Launch a server and serve the warm-up pass; time both together."""
    started = clock()
    server = ServerProcess(workdir, trace_out)
    try:
        with JoinClient("127.0.0.1", server.port,
                        request_timeout=JOB_TIMEOUT_S) as client:
            runs = [serve(client, job) for job in warmups]
    except BaseException:
        server.stop()
        raise
    return server, clock() - started, runs


def journal_filesystem(path: str) -> str:
    """The filesystem type holding ``path``, from the mount table."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) < 3:
                    continue
                point = parts[1]
                inside = path == point or path.startswith(point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, kind = point, parts[2]
    except OSError:
        pass
    return kind
