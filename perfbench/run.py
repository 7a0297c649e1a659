"""Served-join benchmark: joins through the networked, journal-backed server.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload equijoin_1k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each run launches ``perfbench/server.py`` (a ``JoinServer`` with the
program's default pool, queue and memory, journalling to a directory under
``.perfbench_out/``) and drives it from this process with a closed loop of
``JoinClient`` threads.  The timed window serves a fixed number of jobs,
``--seconds`` times the workload's reference rate, so both sides of a
comparison serve the same jobs (see ``NOTES.md``).  Every served result is
verified (see :mod:`workloads`); any failure makes ``correct`` false and
the exit code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
one untraced window for reference, then a window with every layer wrapped
(see :mod:`tracing`), and reports the per-layer metrics of
:data:`layers.PER_LAYER`.  Each run also writes a JSON report (and, when
traced, the spans of both processes) to ``.perfbench_out/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up is timed at least this many times per run, and again until
#: this many seconds were spent on it (short set-ups are noisy, so they
#: get more samples); the median is reported.
SETUP_REPS = 3
SETUP_MIN_S = 4.0
SETUP_MAX_REPS = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="served-join benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window on the reference "
                             "host; sets its number of jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke tests only)")
    return parser.parse_args(argv)


class Outcome:
    """One workload run: counts, metrics and the report written to disk."""

    def __init__(self, name: str) -> None:
        from stats import JobTally

        self.name = name
        self.tally = JobTally()
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.report: dict = {"workload": name}

    @property
    def correct(self) -> bool:
        return not self.problems and self.tally.failed == 0


def _account(outcome: Outcome, workload, warmups: list, windows: list) -> list:
    """Verify every served job; return the timed jobs that are correct."""
    served = [s for s in warmups if not s.error]
    for w in windows:
        served += [s for s in w.runs if not s.error]
    workload.verify(served)
    for s in warmups:
        if s.error or s.problem:
            outcome.problems.append(
                f"warm-up {s.job.contract_id}: {s.error or s.problem}")
    ok = []
    tally = outcome.tally
    for w in windows:
        for s in w.runs:
            tally.attempted += 1
            if s.refused:
                tally.refused += 1
            elif s.error:
                tally.lost += 1
            elif s.problem:
                tally.incorrect += 1
            else:
                tally.ok += 1
                ok.append(s)
                continue
            outcome.problems.append(
                f"job {s.job.contract_id} ({s.job_id or 'not admitted'}): "
                f"{s.error or s.problem}")
    tally.check()
    return ok


def run_untraced(workload, seed: int, seconds: float, workdir: str,
                 outcome: Outcome) -> None:
    import harness
    from stats import nearest_rank, tail_supported

    warmups = workload.warmup(seed)
    jobs = workload.timed(seed, workload.window_jobs(seconds))
    setups: list[float] = []
    served_warmups: list = []
    server = None
    final: dict = {}
    try:
        while len(setups) < SETUP_REPS or (
                sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS):
            if server is not None:
                server.stop()
                server = None
            server, seconds_taken, runs = harness.set_up(workdir, warmups)
            setups.append(seconds_taken)
            served_warmups += runs
        outcome.report["provider"] = server.provider
        window = harness.run_window(server.port, jobs, workload.clients)
    finally:
        if server is not None:
            final = server.stop()
    ok = _account(outcome, workload, served_warmups, [window])
    outcome.report["setup_samples_s"] = setups
    outcome.report["window_s"] = window.seconds
    if not ok:
        outcome.problems.append("no job completed correctly")
        return
    latencies = [s.latency for s in ok]
    outcome.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(ok) / window.seconds, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (final["peak_rss_mb"], "MB"),
    }
    outcome.report["latencies_s"] = latencies
    outcome.report["latency_p95_s"] = (
        nearest_rank(latencies, 0.95)
        if tail_supported(len(latencies), 0.95) else None)


def run_traced(workload, seed: int, seconds: float, workdir: str,
               outcome: Outcome, stem: str) -> None:
    import harness
    import layers
    import tracing

    warmups = workload.warmup(seed)
    jobs = workload.timed(seed, workload.window_jobs(seconds))
    served_warmups: list = []

    # An untraced window first: the reference for the tracing overhead.
    server, _, runs = harness.set_up(workdir, warmups)
    served_warmups += runs
    try:
        outcome.report["provider"] = server.provider
        untraced = harness.run_window(server.port, jobs, workload.clients)
    finally:
        server.stop()

    server_spans_path = os.path.join(workdir, f"{stem}-server-spans.json")
    server, _, runs = harness.set_up(workdir, warmups,
                                     trace_out=server_spans_path)
    served_warmups += runs
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced = harness.run_window(server.port, jobs, workload.clients,
                                    tracer=tracer)
    finally:
        patches.undo()
        server.stop()
    with open(server_spans_path) as source:
        server_dump = json.load(source)
    client_spans = tracer.spans()
    with open(os.path.join(workdir, f"{stem}-client-spans.json"), "w") as out:
        json.dump(client_spans, out)

    ok = _account(outcome, workload, served_warmups, [untraced, traced])
    traced_ids = {id(s) for s in traced.runs}
    ok_traced = [s for s in ok if id(s) in traced_ids]
    ok_untraced = len(ok) - len(ok_traced)
    if not ok_traced or not ok_untraced:
        outcome.problems.append("no job completed correctly")
        return
    metrics = traced.client_metrics
    client_bytes = (metrics.counter("client_bytes_written_total").value
                    + metrics.counter("client_bytes_read_total").value)
    retries = metrics.counter("client_retries_total").value
    ratio = ((len(ok_traced) / traced.seconds)
             / (ok_untraced / untraced.seconds))
    values, split = layers.per_layer(
        ok_traced, traced.start, traced.end, client_spans, server_dump,
        client_bytes, retries, ratio)
    outcome.metrics = {name: (values[name], unit)
                       for name, (unit, _) in layers.PER_LAYER.items()}
    outcome.report["execute_split_s_per_job"] = split
    outcome.report["execute_split_tolerance"] = layers.SPLIT_TOLERANCE
    if values["trace.execute_split_error"] > layers.SPLIT_TOLERANCE:
        outcome.problems.append(
            "self times inside service.execute do not add up to it: "
            f"error {values['trace.execute_split_error']:.4f}")


def run_workload(workload, seed: int, seconds: float, traced: bool,
                 workdir: str) -> Outcome:
    import harness

    outcome = Outcome(workload.name)
    stem = f"{workload.name}-seed{seed}-trace{int(traced)}"
    if traced:
        run_traced(workload, seed, seconds, workdir, outcome, stem)
    else:
        run_untraced(workload, seed, seconds, workdir, outcome)
    outcome.report.update({
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "clients": workload.clients,
        "workload_params": {k: v for k, v in vars(workload).items()
                            if not k.startswith("_")},
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "journal_filesystem": harness.journal_filesystem(workdir),
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "failed_ratio": outcome.tally.failed_ratio,
        "correct": outcome.correct,
        "problems": outcome.problems,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in outcome.metrics.items()},
    })
    with open(os.path.join(workdir, f"{stem}-report.json"), "w") as out:
        json.dump(outcome.report, out, indent=2, default=str)
    return outcome


def print_outcome(outcome: Outcome) -> None:
    report = outcome.report
    print(f"{outcome.name}: seed {report['seed']}, {report['clients']} "
          f"client(s), host_cpus {report['host_cpus']}, python "
          f"{report['python']}, provider {report.get('provider', '?')}, "
          f"journal on {report['journal_filesystem']}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<38} {value:>14.6g} {unit}")
    if report.get("latency_p95_s") is not None:
        print(f"  {'latency_p95_s':<38} {report['latency_p95_s']:>14.6g} s")
    tally = outcome.tally
    print(f"  {'failed_ratio':<38} {tally.failed_ratio:>14.6g} ratio "
          f"({tally.failed} of {tally.attempted} jobs: {tally.lost} lost, "
          f"{tally.incorrect} incorrect, {tally.refused} refused)")
    for problem in outcome.problems[:20]:
        print(f"  FAIL {problem}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's source (src/repro) is missing; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    catalog = workloads.build(tiny=args.tiny)
    names = list(catalog) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in catalog]
    if unknown or args.seconds <= 0:
        print(f"perfbench: unknown workload {unknown} or bad --seconds; "
              f"workloads are {sorted(catalog)}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(workdir, exist_ok=True)

    outcomes = []
    for name in names:
        outcome = run_workload(catalog[name], args.seed, args.seconds,
                               bool(args.trace), workdir)
        print_outcome(outcome)
        outcomes.append(outcome)
    if len(outcomes) == 1:
        metrics = outcomes[0].metrics
    else:
        metrics = {f"{o.name}.{k}": v for o in outcomes
                   for k, v in o.metrics.items()}
    correct = all(o.correct for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.tally.attempted for o in outcomes),
        "failed": sum(o.tally.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
